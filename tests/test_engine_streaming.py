"""Streaming window execution (PR 4 tentpole).

Four pinned properties:

* **Bit-identity** — streamed execution (any ``chunk_steps``, any
  ``mem_budget``) reproduces the monolithic window path and the
  step-wise references exactly: results, ``steps_elapsed``, trace
  totals, and the final rng state, across the chunk-boundary edge
  cases ``chunk_steps ∈ {1, w, w + 1}`` and the ``w = 0`` window.
* **Memory ceiling** — streamed EstimateEffectiveDegree and Radio MIS
  at ``n = 20000`` stay under their configured byte budget
  (tracemalloc), while the monolithic ``(w, n)`` footprint alone would
  exceed it severalfold.
* **Knob resolution** — explicit ``chunk_steps`` beats ``mem_budget``
  beats the process-wide default; the experiment harness imposes and
  restores the default around trials.
* **Plan/commit streaming** — ``StreamingSegmentProtocol.commit``
  receives one hear chunk per executed slab, in step order, and the
  ``StreamedCommitAdapter`` lets whole-window sources ride the
  streaming pipeline unmodified.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.analysis.experiments import measure_peak, run_trials
from repro.core.decay import run_decay, run_decay_reference
from repro.core.effective_degree import (
    EstimateEffectiveDegree,
    estimate_effective_degree,
    estimate_effective_degree_reference,
)
from repro.core.mis import MISConfig, compute_mis, compute_mis_reference
from repro.engine import (
    ObliviousWindow,
    ScheduleSegmentAdapter,
    SegmentProtocol,
    StreamedCommitAdapter,
    StreamedWindow,
    StreamingSegmentProtocol,
    WindowedRunner,
    chunk_steps_for_budget,
    memory_budget,
    resolve_chunk_steps,
    run_schedule,
    segment_schedule,
    set_memory_budget,
)
from repro.engine.streaming import STREAM_CELL_BYTES
from repro.radio import (
    BudgetExceededError,
    InvalidActionError,
    ProtocolError,
    RadioNetwork,
    TransmitPlan,
    as_transmit_plan,
)


def _assert_trace_equal(a: RadioNetwork, b: RadioNetwork) -> None:
    assert a.steps_elapsed == b.steps_elapsed
    assert a.trace.total_steps == b.trace.total_steps
    assert a.trace.total_transmissions == b.trace.total_transmissions
    assert a.trace.total_receptions == b.trace.total_receptions


def _graph(n: int = 60, seed: int = 0):
    return graphs.random_udg(n, 3.0, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# The network chunk kernel.
# ---------------------------------------------------------------------------
class TestDeliverWindowChunks:
    @pytest.mark.parametrize("chunk_steps", [1, 5, 21, 22, 1000])
    @pytest.mark.parametrize("mode", ["auto", "sparse", "dense"])
    def test_matches_monolithic_window(self, chunk_steps, mode):
        g = _graph()
        masks = np.random.default_rng(1).random((21, 60)) < 0.3
        mono_net, chunk_net = RadioNetwork(g), RadioNetwork(g)
        mono = mono_net.deliver_window(masks, mode=mode)
        slabs = list(
            chunk_net.deliver_window_chunks(
                masks, chunk_steps=chunk_steps, mode=mode
            )
        )
        assert (np.vstack(slabs) == mono).all()
        assert all(s.shape[0] <= chunk_steps for s in slabs)
        _assert_trace_equal(mono_net, chunk_net)

    def test_lazy_plan_called_in_order_exactly_once(self):
        g = _graph()
        masks = np.random.default_rng(2).random((10, 60)) < 0.2
        calls = []

        def produce(start, stop):
            calls.append((start, stop))
            return masks[start:stop]

        net = RadioNetwork(g)
        out = np.vstack(
            list(
                net.deliver_window_chunks(
                    TransmitPlan(10, produce), chunk_steps=4
                )
            )
        )
        assert calls == [(0, 4), (4, 8), (8, 10)]
        assert (out == RadioNetwork(g).deliver_window(masks)).all()

    def test_empty_plan_yields_nothing(self):
        net = RadioNetwork(_graph())
        plan = TransmitPlan(0, lambda s, e: np.zeros((0, 60), dtype=bool))
        assert list(net.deliver_window_chunks(plan, chunk_steps=3)) == []
        assert net.steps_elapsed == 0
        assert net.trace.total_steps == 0

    def test_validation(self):
        net = RadioNetwork(_graph())
        masks = np.zeros((4, 60), dtype=bool)
        with pytest.raises(InvalidActionError, match="chunk_steps"):
            list(net.deliver_window_chunks(masks, chunk_steps=0))
        with pytest.raises(ValueError, match="delivery mode"):
            list(
                net.deliver_window_chunks(masks, chunk_steps=2, mode="gpu")
            )
        bad_rows = TransmitPlan(4, lambda s, e: masks[s : s + 1])
        with pytest.raises(InvalidActionError, match="rows"):
            list(net.deliver_window_chunks(bad_rows, chunk_steps=2))
        bad_dtype = TransmitPlan(
            4, lambda s, e: np.zeros((e - s, 60), dtype=np.int64)
        )
        with pytest.raises(InvalidActionError, match="boolean"):
            list(net.deliver_window_chunks(bad_dtype, chunk_steps=2))

    def test_as_transmit_plan_passthrough(self):
        plan = TransmitPlan(3, lambda s, e: np.zeros((e - s, 5), dtype=bool))
        assert as_transmit_plan(plan) is plan
        arr = np.zeros((3, 5), dtype=bool)
        wrapped = as_transmit_plan(arr)
        assert wrapped.total_steps == 3
        assert wrapped.masks(1, 3).shape == (2, 5)


# ---------------------------------------------------------------------------
# Streamed emitters: bit-identity across chunk boundaries.
# ---------------------------------------------------------------------------
class TestStreamedEmitterEquivalence:
    def _eed_width(self, net, C=3):
        p = np.full(net.n, 0.5)
        active = np.ones(net.n, dtype=bool)
        return EstimateEffectiveDegree(net, p, active, C=C).total_steps

    def chunk_cases(self, w):
        # The satellite's boundary cases: one row per slab, exactly one
        # slab, and a slab wider than the window.
        return [1, 7, w, w + 1]

    def test_decay_streamed_equals_reference_across_chunks(self):
        g = _graph(70, 3)
        active = np.random.default_rng(4).random(70) < 0.4
        active[0] = True
        w = 5 * 7  # iterations * span for n = 70
        ref_net = RadioNetwork(g)
        ref_rng = np.random.default_rng(9)
        ref = run_decay_reference(
            ref_net, active, ref_rng, iterations=5
        )
        assert ref_net.steps_elapsed == w
        for chunk in self.chunk_cases(w):
            net = RadioNetwork(g)
            rng = np.random.default_rng(9)
            res = run_decay(
                net, active, rng, iterations=5, chunk_steps=chunk
            )
            assert (res.heard == ref.heard).all()
            assert (res.heard_from == ref.heard_from).all()
            _assert_trace_equal(net, ref_net)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_eed_streamed_equals_reference_across_chunks(self):
        g = _graph(60, 5)
        p = np.full(60, 0.5)
        active = np.ones(60, dtype=bool)
        w = self._eed_width(RadioNetwork(g))
        ref_net = RadioNetwork(g)
        ref_rng = np.random.default_rng(11)
        ref = estimate_effective_degree_reference(
            ref_net, p, active, ref_rng, C=3
        )
        for chunk in self.chunk_cases(w):
            net = RadioNetwork(g)
            rng = np.random.default_rng(11)
            res = estimate_effective_degree(
                net, p, active, rng, C=3, chunk_steps=chunk
            )
            assert (res.counts == ref.counts).all()
            assert (res.high == ref.high).all()
            _assert_trace_equal(net, ref_net)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_eed_mem_budget_equals_reference(self):
        # The budget knob is just another route to a chunk size.
        g = _graph(60, 6)
        p = np.full(60, 0.4)
        active = np.ones(60, dtype=bool)
        ref = estimate_effective_degree_reference(
            RadioNetwork(g), p, active, np.random.default_rng(12), C=3
        )
        res = estimate_effective_degree(
            RadioNetwork(g), p, active, np.random.default_rng(12), C=3,
            mem_budget=10 * STREAM_CELL_BYTES * 60,  # 10-row slabs
        )
        assert (res.counts == ref.counts).all()

    def test_mis_streamed_equals_reference(self):
        g = _graph(50, 7)
        config = MISConfig(eed_C=3, record_golden=False)
        ref_net = RadioNetwork(g)
        ref_rng = np.random.default_rng(21)
        ref = compute_mis_reference(ref_net, ref_rng, config)
        for chunk in (1, 13, None):
            net = RadioNetwork(g)
            rng = np.random.default_rng(21)
            res = compute_mis(net, rng, config, chunk_steps=chunk)
            assert res.mis == ref.mis
            assert res.steps_used == ref.steps_used
            assert res.rounds_used == ref.rounds_used
            _assert_trace_equal(net, ref_net)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_width_block_emits_nothing(self):
        # w = 0: a Decay block of zero iterations executes no steps and
        # leaves the rng untouched on every path.
        g = _graph(40, 8)
        active = np.ones(40, dtype=bool)
        net = RadioNetwork(g)
        rng = np.random.default_rng(3)
        res = run_decay(net, active, rng, iterations=0, chunk_steps=1)
        assert not res.heard.any()
        assert net.steps_elapsed == 0
        assert (
            rng.bit_generator.state
            == np.random.default_rng(3).bit_generator.state
        )

    def test_zero_total_streamed_window_direct(self):
        # A StreamedWindow with total_steps = 0 charges and executes
        # nothing; its consume callback is never called.
        net = RadioNetwork(_graph(40, 8))
        folded = []

        def emit():
            yield StreamedWindow(
                TransmitPlan(0, lambda s, e: np.zeros((0, 40), dtype=bool)),
                folded.append,
            )
            return "ok"

        runner = WindowedRunner(net, max_steps=0, chunk_steps=1)
        assert runner.run(emit()) == "ok"
        assert folded == []
        assert runner.steps_executed == 0
        assert net.steps_elapsed == 0

    def test_wide_materialized_window_streams_slabwise(self):
        # A plain ObliviousWindow wider than the configured bound is
        # executed in slabs into one reply — identical bits and trace.
        g = _graph()
        masks = np.random.default_rng(14).random((40, 60)) < 0.25

        def emit(collected):
            collected["reply"] = yield ObliviousWindow(masks)

        mono_net, stream_net = RadioNetwork(g), RadioNetwork(g)
        a, b = {}, {}
        WindowedRunner(mono_net).run(emit(a))
        WindowedRunner(stream_net, chunk_steps=7).run(emit(b))
        assert (a["reply"] == b["reply"]).all()
        _assert_trace_equal(mono_net, stream_net)


# ---------------------------------------------------------------------------
# Budget accounting on streamed windows.
# ---------------------------------------------------------------------------
class TestStreamedBudget:
    def test_raises_before_offending_chunk(self):
        g = _graph()
        masks = np.random.default_rng(15).random((12, 60)) < 0.2
        folded = []

        def emit():
            yield StreamedWindow(as_transmit_plan(masks), folded.append)

        net = RadioNetwork(g)
        runner = WindowedRunner(net, max_steps=10, chunk_steps=4)
        with pytest.raises(BudgetExceededError):
            runner.run(emit())
        # Two full chunks executed and folded; the third (rows 8..11)
        # raised before executing.
        assert len(folded) == 2
        assert runner.steps_executed == 8
        assert net.steps_elapsed == 8

    def test_exact_budget_completes(self):
        g = _graph()
        masks = np.random.default_rng(16).random((12, 60)) < 0.2
        net = RadioNetwork(g)
        runner = WindowedRunner(net, max_steps=12, chunk_steps=5)
        folded = []

        def emit():
            yield StreamedWindow(as_transmit_plan(masks), folded.append)

        runner.run(emit())
        assert runner.steps_executed == net.steps_elapsed == 12
        assert sum(f.shape[0] for f in folded) == 12

    def test_consumerless_stream_rejected_in_generator_form(self):
        net = RadioNetwork(_graph())

        def emit():
            yield StreamedWindow(
                TransmitPlan(2, lambda s, e: np.zeros((e - s, 60), bool))
            )

        with pytest.raises(ProtocolError, match="consume"):
            WindowedRunner(net).run(emit())


# ---------------------------------------------------------------------------
# Knob resolution and the experiments-layer budget.
# ---------------------------------------------------------------------------
class TestKnobResolution:
    def test_chunk_steps_for_budget_model(self):
        n = 1000
        assert chunk_steps_for_budget(n, STREAM_CELL_BYTES * n * 7) == 7
        assert chunk_steps_for_budget(n, 1) == 1  # floored at one row
        assert chunk_steps_for_budget(0, 123) >= 1
        with pytest.raises(ValueError, match="mem_budget"):
            chunk_steps_for_budget(n, 0)

    def test_precedence_explicit_over_budget_over_global(self):
        n = 100
        assert resolve_chunk_steps(n) is None
        assert resolve_chunk_steps(n, chunk_steps=5, mem_budget=1 << 30) == 5
        assert resolve_chunk_steps(
            n, mem_budget=STREAM_CELL_BYTES * n * 3
        ) == 3
        set_memory_budget(STREAM_CELL_BYTES * n * 9)
        try:
            assert resolve_chunk_steps(n) == 9
            assert resolve_chunk_steps(n, chunk_steps=2) == 2
        finally:
            set_memory_budget(None)
        assert resolve_chunk_steps(n) is None
        with pytest.raises(ValueError, match="chunk_steps"):
            resolve_chunk_steps(n, chunk_steps=0)

    def test_runner_validates_knobs(self):
        net = RadioNetwork(_graph())
        with pytest.raises(ValueError, match="chunk_steps"):
            WindowedRunner(net, chunk_steps=0)
        with pytest.raises(ValueError, match="mem_budget"):
            WindowedRunner(net, mem_budget=0)

    def test_run_trials_imposes_and_restores_budget(self):
        observed = []

        def measure(rng):
            observed.append(memory_budget())
            return 1.0

        set_memory_budget(77 << 20)
        try:
            run_trials(measure, 2, seed=0, mem_budget=11 << 20)
            assert observed == [11 << 20] * 2
            assert memory_budget() == 77 << 20
            run_trials(measure, 1, seed=0)
            assert observed[-1] == 77 << 20  # untouched when unset
        finally:
            set_memory_budget(None)


# ---------------------------------------------------------------------------
# Mask ownership: the chunk loop transforms masks in place.
# ---------------------------------------------------------------------------
class _HeldWindow(SegmentProtocol):
    """Plans one oblivious window over a matrix it keeps holding."""

    def __init__(self, masks: np.ndarray) -> None:
        super().__init__(masks.shape[1])
        self.masks = masks
        self._planned = False

    def plan(self, rng):
        if self._planned:
            return None
        self._planned = True
        return ObliviousWindow(self.masks)

    def commit(self, reply):
        pass

    def steps_remaining(self):
        return 0 if self._planned else self.masks.shape[0]

    def result(self):
        return None


class TestMaskOwnership:
    """A faulted streamed run never writes into a mask matrix its
    caller still holds: the runner owns only what a plan hands out,
    and :func:`as_transmit_plan` hands out copies."""

    @staticmethod
    def _faulted_net(n: int = 60) -> RadioNetwork:
        from repro.faults import FaultSchedule

        schedule = FaultSchedule(
            crashes=tuple((v, 3) for v in range(0, n, 4)),
            sleeps=((1, 0, 40),),
            tx_prob=tuple((v, 0.3) for v in range(2, n, 4)),
            seed=5,
        )
        return RadioNetwork(_graph(n), faults=schedule)

    def test_streamed_materialized_plan_left_intact(self):
        masks = np.random.default_rng(31).random((12, 60)) < 0.3
        before = masks.tobytes()
        net = self._faulted_net()
        folded = []

        def emit():
            yield StreamedWindow(as_transmit_plan(masks), folded.append)

        WindowedRunner(net, chunk_steps=5).run(emit())
        assert net._fault_state.realized["suppressed_transmissions"] > 0
        assert sum(f.shape[0] for f in folded) == 12
        assert masks.tobytes() == before

    def test_multiplexed_stream_leaves_source_masks_intact(self):
        from repro.engine import multiplex

        rng = np.random.default_rng(32)
        main_masks = rng.random((8, 60)) < 0.3
        bg_masks = rng.random((8, 60)) < 0.3
        before = (main_masks.tobytes(), bg_masks.tobytes())
        net = self._faulted_net()
        schedule = multiplex(
            _HeldWindow(main_masks), _HeldWindow(bg_masks),
            rng=np.random.default_rng(0), stream=True,
        )
        WindowedRunner(net, chunk_steps=3).run(schedule)
        assert net._fault_state.realized["suppressed_transmissions"] > 0
        assert (main_masks.tobytes(), bg_masks.tobytes()) == before


# ---------------------------------------------------------------------------
# The streaming plan/commit form.
# ---------------------------------------------------------------------------
class _ChunkCountingSource(StreamingSegmentProtocol):
    """Native streaming source: one streamed window, commits per chunk."""

    def __init__(self, n: int, masks: np.ndarray) -> None:
        super().__init__(n)
        self.masks = masks
        self.chunks: list[np.ndarray] = []
        self._planned = False

    def plan(self, rng):
        if self._planned:
            return None
        self._planned = True
        return self.stream(as_transmit_plan(self.masks))

    def commit(self, hear_chunk):
        self.chunks.append(hear_chunk)

    def result(self):
        return np.vstack(self.chunks)


class TestStreamingSegmentProtocol:
    def test_commit_receives_chunks_in_order(self):
        g = _graph()
        masks = np.random.default_rng(17).random((11, 60)) < 0.25
        source = _ChunkCountingSource(60, masks)
        net = RadioNetwork(g)
        out = WindowedRunner(net, chunk_steps=4).run_segments(
            source, np.random.default_rng(0)
        )
        assert [c.shape[0] for c in source.chunks] == [4, 4, 3]
        assert (out == RadioNetwork(g).deliver_window(masks)).all()

    def test_streamed_commit_adapter_buffers_whole_window(self):
        # A whole-window SegmentProtocol rides the streaming pipeline
        # unmodified: chunks re-assemble into the single (w, n) commit.
        g = _graph()
        masks = np.random.default_rng(18).random((9, 60)) < 0.25

        class _WholeWindow(SegmentProtocol):
            def __init__(self):
                super().__init__(60)
                self.reply = None
                self._planned = False

            def plan(self, rng):
                if self._planned:
                    return None
                self._planned = True
                return ObliviousWindow(masks)

            def commit(self, reply):
                self.reply = reply

            def result(self):
                return self.reply

        inner = _WholeWindow()
        adapter = StreamedCommitAdapter(inner)
        net = RadioNetwork(g)
        out = WindowedRunner(net, chunk_steps=2).run_segments(
            adapter, np.random.default_rng(0)
        )
        assert out.shape == (9, 60)
        assert (out == RadioNetwork(g).deliver_window(masks)).all()

    def test_streamed_commit_adapter_contract_errors(self):
        masks = np.zeros((4, 6), dtype=bool)

        class _One(SegmentProtocol):
            def __init__(self):
                super().__init__(6)
                self._planned = False

            def plan(self, rng):
                if self._planned:
                    return None
                self._planned = True
                return ObliviousWindow(masks)

            def commit(self, reply):
                pass

            def steps_remaining(self):
                return 0 if self._planned else 4

            def result(self):
                return "inner"

        adapter = StreamedCommitAdapter(_One())
        rng = np.random.default_rng(0)
        segment = adapter.plan(rng)
        assert isinstance(segment, StreamedWindow)
        with pytest.raises(ProtocolError, match="chunks"):
            adapter.plan(rng)
        with pytest.raises(ProtocolError, match="more chunk rows"):
            adapter.commit(np.zeros((5, 6), dtype=np.int64))
        # Delegation of the non-window surface.
        fresh = StreamedCommitAdapter(_One())
        assert fresh.steps_remaining() == 4
        fresh.plan(rng)
        fresh.commit(np.zeros((4, 6), dtype=np.int64))
        assert fresh.plan(rng) is None
        assert fresh.result() == "inner"

    def test_set_memory_budget_validates(self):
        with pytest.raises(ValueError, match="mem_budget"):
            set_memory_budget(0)

    def test_generator_emitter_through_adapter_streams(self):
        # ScheduleSegmentAdapter over a streamed-emitter generator: the
        # StreamedWindow passes through and the generator's own consume
        # folds in-stream (PR 3's run_segments round trip, streamed).
        from repro.core.decay import decay_block_schedule

        g = _graph(30, 9)
        active = np.zeros(30, dtype=bool)
        active[::2] = True
        net_a, net_b = RadioNetwork(g), RadioNetwork(g)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        adapter = ScheduleSegmentAdapter(
            decay_block_schedule(net_a, active, rng_a, iterations=4), 30
        )
        a = WindowedRunner(net_a, chunk_steps=3).run_segments(
            adapter, rng_a
        )
        b = run_decay_reference(net_b, active, rng_b, iterations=4)
        assert (a.heard == b.heard).all()
        assert (a.heard_from == b.heard_from).all()
        _assert_trace_equal(net_a, net_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


# ---------------------------------------------------------------------------
# The memory ceiling at n = 20000 (the scaling acceptance regression).
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def big_udg():
    n = 20000
    # Average degree ~8: sparse enough that the cost model's slack
    # covers the gather/sparse kernels' degree-sum terms. MIS and EED
    # are defined on disconnected graphs, so one sample suffices.
    side = float(np.sqrt(n * np.pi / 9.0))
    return graphs.random_udg(
        n, side, np.random.default_rng(42), connected=False
    )


class TestMemoryCeiling:
    BUDGET = 64 << 20  # 64 MiB

    def test_streamed_eed_stays_under_budget(self, big_udg):
        n = big_udg.number_of_nodes()
        net = RadioNetwork(big_udg)
        p = np.full(n, 0.5)
        active = np.ones(n, dtype=bool)
        total = EstimateEffectiveDegree(net, p, active, C=8).total_steps
        # The monolithic (w, n) hear-window alone (int64) dwarfs the
        # budget — that is what stalled n >= 10^4 before streaming.
        assert total * n * 8 > 4 * self.BUDGET

        def workload():
            return estimate_effective_degree(
                net, p, active, np.random.default_rng(1), C=8,
                mem_budget=self.BUDGET,
            )

        result, peak = measure_peak(workload)
        assert result.high.shape == (n,)
        assert peak < self.BUDGET, (
            f"streamed EED peaked at {peak / 2**20:.0f} MiB, over the "
            f"{self.BUDGET >> 20} MiB budget"
        )

    def test_streamed_mis_stays_under_budget(self, big_udg):
        n = big_udg.number_of_nodes()
        net = RadioNetwork(big_udg)
        config = MISConfig(
            round_factor=0.15,
            decay_amplification=0.5,
            eed_C=1,
            record_golden=False,
        )

        def workload():
            return compute_mis(
                net, np.random.default_rng(2), config,
                mem_budget=self.BUDGET,
            )

        result, peak = measure_peak(workload)
        assert result.steps_used == net.steps_elapsed
        assert peak < self.BUDGET, (
            f"streamed MIS peaked at {peak / 2**20:.0f} MiB, over the "
            f"{self.BUDGET >> 20} MiB budget"
        )
