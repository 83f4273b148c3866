"""The streamed-chunk loop: coin draw, faults and delivery per chunk.

Three surfaces, every one pinned against an independent oracle:

* the in-place fault transform
  (:meth:`~repro.faults.state.FaultState.transform_window_inplace`)
  and the point-wise deafness test
  (:meth:`~repro.faults.state.FaultState.deaf_at`) against the
  mask-materializing window forms, including realized counters;
* the COO delivery kernels
  (:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`) and
  their slab scatter against a brute-force dense reference on every
  routing regime;
* end-to-end: runner executions of Decay, EED, and full Radio MIS
  bit-identical to their step-wise ``*_reference`` twins — across
  arbitrary ``chunk_steps`` splits, restriction modes, forced
  ``sparse``/``dense`` delivery, and fault schedules whose jam windows
  straddle chunk and section boundaries — plus the refusal of unknown
  delivery modes (the retired ``"pipeline"``, ``"numba"`` and
  ``"cupy"`` modes among them) and the per-run reset of the provenance
  counters.
"""

from __future__ import annotations

import functools

import numpy as np
import networkx as nx
import pytest

import repro.api as api
from repro.api import DecayConfig, EEDConfig
from repro.core import (
    MISConfig,
    compute_mis,
    compute_mis_reference,
    run_decay,
    run_decay_reference,
)
from repro.core.effective_degree import (
    estimate_effective_degree,
    estimate_effective_degree_reference,
)
from repro.engine.kernels import (
    DENSE_ROW_DENSITY,
    DeliveryKernels,
    require_delivery_mode,
)
from repro.faults.schedule import FaultSchedule, Jam
from repro.faults.state import FaultState
from repro.radio.errors import ProtocolError
from repro.radio.network import DELIVERY_MODES, NO_SENDER, RadioNetwork
from repro.radio.trace import CheapTrace
from test_residual import _reference_delivery


def _udg(n: int, seed: int) -> nx.Graph:
    from repro import graphs

    side = float(np.sqrt(n * np.pi / 9.0))
    return graphs.random_udg(
        n, side, np.random.default_rng(seed), connected=False
    )


# ---------------------------------------------------------------------------
# The fused fault transform + point-wise deafness
# ---------------------------------------------------------------------------


def _fault_state(n: int = 40) -> FaultState:
    schedule = FaultSchedule(
        crashes=((3, 15), (8, 2)),
        joins=((5, 9), (11, 30)),
        sleeps=((7, 4, 22), (13, 0, 6)),
        jams=(Jam(5, 18, (1, 2, 7)), Jam(20, 26, None)),
        tx_prob=((9, 0.4), (17, 0.85)),
        energy=((12, 3), (19, 5)),
        seed=11,
    )
    return FaultState(schedule, n)


class TestFusedFaultTransform:
    @pytest.mark.parametrize("start", [0, 7, 13])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_inplace_transform_matches_window_form(
        self, start, restricted
    ):
        n = 40
        rng = np.random.default_rng(start + 1)
        masks = rng.random((12, n)) < 0.4
        cols = None
        if restricted:
            cols = np.unique(rng.integers(0, n, size=25)).astype(np.int64)
            masks = masks[:, : cols.size].copy()

        ref_state = _fault_state(n)
        effective, _ = ref_state.transform_window(
            masks.copy(), start, cols
        )

        fused_state = _fault_state(n)
        fused = masks.copy()
        fused_state.transform_window_inplace(fused, start, cols)

        assert (fused == effective).all()
        assert dict(fused_state.realized) == dict(ref_state.realized)
        assert (
            fused_state.energy_remaining == ref_state.energy_remaining
        ).all()

    def test_inplace_counters_accumulate_across_chunks(self):
        """Chunked in-place transforms realize the same counters as
        one whole-window transform (the pipeline executes per chunk)."""
        n = 40
        rng = np.random.default_rng(3)
        masks = rng.random((24, n)) < 0.5

        whole = _fault_state(n)
        whole.transform_window(masks.copy(), 0)

        chunked = _fault_state(n)
        for start, stop in ((0, 6), (6, 11), (11, 17), (17, 24)):
            chunk = masks[start:stop].copy()
            chunked.transform_window_inplace(chunk, start)
        assert dict(chunked.realized) == dict(whole.realized)

    def test_deaf_at_matches_deaf_window(self):
        n = 40
        state = _fault_state(n)
        start, width = 3, 30
        alive = state.alive_window(start, width)
        deaf = state.deaf_window(start, width, alive)
        rng = np.random.default_rng(8)
        steps = rng.integers(start, start + width, size=200)
        nodes = rng.integers(0, n, size=200)
        point = state.deaf_at(steps, nodes)
        assert (point == deaf[steps - start, nodes]).all()


# ---------------------------------------------------------------------------
# COO delivery kernels and their slab scatter against the reference
# ---------------------------------------------------------------------------


def _assert_coo_is_reference(masks, adj, coo, counters):
    """A COO reception triple rebuilds exactly the brute-force hear
    matrix, and the counters account every row once."""
    step, node, sender = coo
    rebuilt = np.full(masks.shape, NO_SENDER, dtype=np.int64)
    rebuilt[step, node] = sender
    want, want_rx = _reference_delivery(adj, masks)
    assert (rebuilt == want).all()
    assert step.size == want_rx
    assert sum(counters.values()) == masks.shape[0]


class TestCooKernels:
    @pytest.mark.parametrize("mode", ["auto", "sparse", "dense"])
    @pytest.mark.parametrize(
        "family,width,density",
        [
            ("udg", 2, 0.1),    # narrow: gather regime
            ("udg", 12, 0.1),   # wide: spmm regime
            ("gnp", 6, 0.5),    # dense rows
            ("udg", 5, 0.0),    # all-empty: skip regime
        ],
    )
    def test_coo_matches_slab(self, mode, family, width, density):
        """The COO triple and its slab scatter both equal the
        brute-force reference, on every routing regime."""
        n = 120
        if family == "udg":
            g = _udg(n, 13)
        else:
            g = nx.gnp_random_graph(n, 0.4, seed=13)
        net = RadioNetwork(g)
        kern = DeliveryKernels(net._adj.indptr, net._adj.indices, n)
        adj = net._adj.toarray().astype(np.int64)
        rng = np.random.default_rng(width)
        masks = rng.random((width, n)) < density

        coo_counters: dict[str, int] = {}
        coo = kern.execute_coo(masks, mode, coo_counters)
        _assert_coo_is_reference(masks, adj, coo, coo_counters)

        slab = np.full((width, n), NO_SENDER, dtype=np.int64)
        slab_counters: dict[str, int] = {}
        rx = kern.execute(masks, slab, mode, slab_counters)
        assert (slab == _reference_delivery(adj, masks)[0]).all()
        assert rx == coo[0].size
        assert slab_counters == coo_counters

    def test_all_dense_auto_block_runs_only_dense(self):
        """Popcount-first routing: a block whose rows are all dense
        bumps only ``coo-dense`` — whether it arrives full-width or as
        a compact ``cols`` block — and equals the reference."""
        n = 120
        g = _udg(n, 13)
        net = RadioNetwork(g)
        kern = DeliveryKernels(net._adj.indptr, net._adj.indices, n)
        adj = net._adj.toarray().astype(np.int64)
        rng = np.random.default_rng(2)
        cols = np.arange(0, n, 3, dtype=np.int64)  # compact: 40 of 120
        masks = np.zeros((7, n), dtype=bool)
        masks[:, cols] = rng.random((7, cols.size)) < 0.5
        assert (masks.sum(axis=1) >= DENSE_ROW_DENSITY * n).all()
        for block_cols in (None, cols):
            counters: dict[str, int] = {}
            coo = kern.execute_coo(masks, "auto", counters, cols=block_cols)
            assert counters == {"coo-dense": 7}
            _assert_coo_is_reference(masks, adj, coo, counters)

    @pytest.mark.parametrize("width", [3, 40])
    def test_compact_cols_block_matches_reference(self, width):
        """A compact ``cols`` block — sparse rows, mixed rows, and an
        all-quiet row — routes and delivers exactly as full width."""
        n = 120
        g = _udg(n, 13)
        net = RadioNetwork(g)
        kern = DeliveryKernels(net._adj.indptr, net._adj.indices, n)
        adj = net._adj.toarray().astype(np.int64)
        rng = np.random.default_rng(width)
        cols = np.sort(rng.choice(n, size=50, replace=False))
        density = np.where(np.arange(width) % 2 == 0, 0.02, 0.6)
        masks = np.zeros((width, n), dtype=bool)
        masks[:, cols] = rng.random((width, cols.size)) < density[:, None]
        masks[0] = False
        for mode in DELIVERY_MODES:
            full_counters: dict[str, int] = {}
            full = kern.execute_coo(masks, mode, full_counters)
            counters: dict[str, int] = {}
            coo = kern.execute_coo(masks, mode, counters, cols=cols)
            assert counters == full_counters
            _assert_coo_is_reference(masks, adj, coo, counters)

    def test_coo_triples_are_int64_and_clean(self):
        g = _udg(90, 5)
        net = RadioNetwork(g)
        kern = DeliveryKernels(net._adj.indptr, net._adj.indices, net.n)
        rng = np.random.default_rng(1)
        masks = rng.random((9, net.n)) < 0.2
        step, node, sender = kern.execute_coo(masks, "auto", {})
        assert step.dtype == node.dtype == sender.dtype == np.int64
        # Clean receptions never land on a transmitter.
        assert not masks[step, node].any()


# ---------------------------------------------------------------------------
# Mode registry: pipeline availability, refusal, toggle
# ---------------------------------------------------------------------------


class TestPipelineMode:
    @pytest.mark.parametrize(
        "mode", ["pipeline", "fused", "quantum", "numba", "cupy"]
    )
    def test_unknown_mode_refused(self, mode):
        """Only the registry's modes are accepted; the fused pass is an
        ``"auto"`` behavior, so the retired ``"pipeline"`` mode — like
        the retired compiled ``"numba"`` and ``"cupy"`` backends — is
        refused by name like any other unknown mode, at the kernel
        registry and at the policy front door."""
        assert mode not in DELIVERY_MODES
        with pytest.raises(ProtocolError) as err:
            require_delivery_mode(mode)
        assert repr(mode) in str(err.value)
        assert "unknown delivery mode" in str(err.value)
        with pytest.raises(ProtocolError, match=repr(mode)):
            api.ExecutionPolicy(delivery=mode)

    def test_auto_runs_the_one_chunk_loop(self):
        """Under ``"auto"`` a Decay run equals its step-wise twin and
        names only the COO kernels that ran in provenance; the retired
        ``pipeline-numpy`` row never appears."""
        g = _udg(150, 21)
        report = api.run("decay", g, seed=3)
        twin = api.run(
            "decay", g, seed=3,
            policy=api.ExecutionPolicy(engine="reference"),
        )
        assert report.result == twin.result
        kernel_use = report.provenance["delivery"]["kernel_use"]
        assert "pipeline-numpy" not in kernel_use
        assert sum(kernel_use.values()) == report.steps
        assert set(kernel_use) <= {
            "coo-gather", "coo-spmm", "coo-dense", "coo-sparse-mixed",
            "skip-empty",
        }


# ---------------------------------------------------------------------------
# End-to-end: the chunk loop against the step-wise twins
# ---------------------------------------------------------------------------


_TRACE_TOTALS = ("total_steps", "total_transmissions", "total_receptions")


def _assert_same_trace(net_a, net_b):
    for attr in _TRACE_TOTALS:
        assert getattr(net_a.trace, attr) == getattr(net_b.trace, attr)


@functools.lru_cache(maxsize=None)
def _mis_twin(n, graph_seed, seed, faults):
    """The step-wise reference MIS run on ``_udg(n, graph_seed)`` with
    ``faults`` installed: result, network, and a four-draw probe of the
    rng state it left behind. Cached — the twin is independent of every
    execution knob the tests vary."""
    net = RadioNetwork(_udg(n, graph_seed), faults=faults)
    rng = np.random.default_rng(seed)
    result = compute_mis_reference(net, rng, MISConfig())
    return result, net, rng.integers(0, 2**63, 4).tolist()


def _assert_mis_matches_twin(n, graph_seed, seed, faults=None, **policy_kw):
    """A runner MIS under ``policy_kw`` equals the step-wise twin:
    result, steps, round history, rng stream, trace totals, and the
    realized fault counters."""
    ref, net_a, probe_a = _mis_twin(n, graph_seed, seed, faults)
    net_b = RadioNetwork(_udg(n, graph_seed))
    rng = np.random.default_rng(seed)
    out = compute_mis(
        net_b, rng, MISConfig(),
        policy=api.ExecutionPolicy(faults=faults, **policy_kw),
    )
    assert out.mis == ref.mis
    assert out.steps_used == ref.steps_used
    assert out.history == ref.history
    assert rng.integers(0, 2**63, 4).tolist() == probe_a
    _assert_same_trace(net_a, net_b)
    if faults is not None:
        assert dict(net_a._fault_state.realized) == dict(
            net_b._fault_state.realized
        )


#: A schedule whose jam windows and sleeps straddle chunk AND section
#: boundaries: one Decay section of an n = 130 MIS round spans
#: ceil(log2 130) * iters steps, and the windows below cross both the
#: chunk splits and the mis/decay-marked -> mis/decay-mis boundary.
_STRADDLING_FAULTS = FaultSchedule(
    crashes=((5, 60),),
    joins=((9, 35),),
    sleeps=((11, 20, 160),),
    jams=(
        Jam(25, 95, (1, 2, 3, 11)),
        Jam(140, 260, None),
    ),
    tx_prob=((7, 0.6),),
    energy=((13, 8),),
    seed=4,
)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("chunk_steps", [1, 3, 7, 64, 65])
    def test_decay_chunk_boundary_invariance(self, chunk_steps):
        """The chunk loop folds exactly like the step-wise twin
        whatever the chunk split — including heights of 1 and heights
        that straddle sweeps."""
        g = _udg(130, 31)
        net_a = RadioNetwork(g)
        net_b = RadioNetwork(g)
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        active = np.arange(130) % 3 == 0
        ref = run_decay_reference(net_a, active, rng_a, iterations=4)
        out = run_decay(
            net_b, active, rng_b, iterations=4,
            policy=api.ExecutionPolicy(chunk_steps=chunk_steps),
        )
        assert out == ref
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        _assert_same_trace(net_a, net_b)

    @pytest.mark.parametrize("delivery", ["sparse", "dense"])
    @pytest.mark.parametrize("restrict", ["force", "off"])
    def test_decay_forced_delivery(self, delivery, restrict):
        g = _udg(130, 33)
        net_a = RadioNetwork(g)
        net_b = RadioNetwork(g)
        rng_a = np.random.default_rng(10)
        rng_b = np.random.default_rng(10)
        active = np.arange(130) % 4 == 1
        ref = run_decay_reference(net_a, active, rng_a, iterations=3)
        out = run_decay(
            net_b, active, rng_b, iterations=3,
            policy=api.ExecutionPolicy(
                delivery=delivery, restrict=restrict, chunk_steps=5
            ),
        )
        assert out == ref
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        _assert_same_trace(net_a, net_b)
        # A forced mode really forces: every non-empty row ran on it.
        ran = set(net_b.kernel_use) - {"skip-empty"}
        if delivery == "dense":
            assert ran == {"coo-dense"}
        else:
            assert ran and "coo-dense" not in ran

    @pytest.mark.parametrize("restrict", ["auto", "force", "off"])
    def test_eed_equivalence_across_restriction(self, restrict):
        g = _udg(140, 17)
        p = np.where(np.arange(140) % 2 == 0, 0.5, 0.125)
        active = np.arange(140) % 5 != 0
        net_a = RadioNetwork(g)
        net_b = RadioNetwork(g)
        rng_a = np.random.default_rng(23)
        rng_b = np.random.default_rng(23)
        ref = estimate_effective_degree_reference(
            net_a, p, active, rng_a, C=2
        )
        out = estimate_effective_degree(
            net_b, p, active, rng_b, C=2,
            policy=api.ExecutionPolicy(restrict=restrict, chunk_steps=6),
        )
        assert out == ref
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        _assert_same_trace(net_a, net_b)

    @pytest.mark.parametrize(
        "policy_kw",
        [
            {},
            {"chunk_steps": 7},
            {"restrict": "force"},
            {"restrict": "off", "chunk_steps": 5},
            {"delivery": "sparse", "chunk_steps": 7},
            {"delivery": "dense", "restrict": "force"},
            {"delivery": "sparse", "restrict": "off"},
            {"delivery": "dense", "chunk_steps": 3},
        ],
    )
    def test_mis_equivalence(self, policy_kw):
        _assert_mis_matches_twin(150, 41, 11, **policy_kw)

    @pytest.mark.parametrize("chunk_steps", [3, 11, None])
    def test_mis_with_faults_straddling_boundaries(self, chunk_steps):
        """Jam windows and sleeps that straddle chunk AND section
        boundaries realize exactly as in the step-wise twin through the
        in-place transform and point-wise deaf silencing."""
        kw: dict = {}
        if chunk_steps is not None:
            kw["chunk_steps"] = chunk_steps
        _assert_mis_matches_twin(
            130, 51, 19, faults=_STRADDLING_FAULTS, **kw
        )

    @pytest.mark.parametrize("delivery", ["sparse", "dense"])
    @pytest.mark.parametrize("restrict", ["force", "off"])
    def test_mis_faulted_forced_delivery(self, delivery, restrict):
        _assert_mis_matches_twin(
            130, 51, 19, faults=_STRADDLING_FAULTS,
            delivery=delivery, restrict=restrict, chunk_steps=11,
        )

    def test_validated_run_still_green(self):
        """The validating runner checks the production chunk loop — COO
        fold included — and a validated run stays bit-identical to a
        plain one."""
        g = _udg(90, 61)
        report = api.run(
            "mis", g, seed=2,
            policy=api.ExecutionPolicy(validate=True),
        )
        plain = api.run("mis", g, seed=2)
        assert report.result == plain.result


# ---------------------------------------------------------------------------
# Provenance: per-run counter reset, residual + timing surfaces
# ---------------------------------------------------------------------------


class TestProvenanceCounters:
    def test_residual_and_timing_in_provenance(self):
        report = api.run("mis", _udg(120, 71), seed=5)
        residual = report.provenance["residual"]
        assert set(residual) >= {"rebuilds"}
        timing = report.provenance["timing"]
        assert set(timing) == {
            "plan", "coins", "faults", "deliver", "commit"
        }
        assert all(v >= 0.0 for v in timing.values())
        assert timing["deliver"] > 0.0

    def test_counters_reset_per_run_on_reused_network(self):
        """Satellite: residual_stats (and kernel_use, timing) describe
        one run — a second run on the same network must not inherit
        the first run's rebuild counts."""
        net = RadioNetwork(_udg(120, 81), trace=CheapTrace())
        first = api.run(
            "mis", net, seed=6,
            policy=api.ExecutionPolicy(restrict="force"),
        )
        second = api.run(
            "mis", net, seed=6,
            policy=api.ExecutionPolicy(restrict="force"),
        )
        r1 = first.provenance["residual"]
        r2 = second.provenance["residual"]
        assert r1["rebuilds"] > 0
        assert r2["rebuilds"] == r1["rebuilds"]  # reset, not accumulated
        assert first.provenance["delivery"]["kernel_use"] == (
            second.provenance["delivery"]["kernel_use"]
        )

    def test_eed_ladder_shares_one_residual_context(self):
        """The whole EED level ladder is one plan: a forced-restricted
        block builds exactly one residual context (regression for the
        per-level rebuild ISSUE 9 closes)."""
        n = 140
        g = _udg(n, 91)
        report = api.run(
            "eed", g, seed=3,
            config=EEDConfig(p=0.25, C=2),
            policy=api.ExecutionPolicy(restrict="force"),
        )
        assert report.provenance["residual"]["rebuilds"] == 1

    def test_report_equality_ignores_timing(self):
        g = _udg(80, 95)
        assert api.run("mis", g, seed=4) == api.run("mis", g, seed=4)


# ---------------------------------------------------------------------------
# Decay config sanity for this suite's API use
# ---------------------------------------------------------------------------


def test_decay_config_roundtrip():
    report = api.run(
        "decay", _udg(100, 99), seed=1, config=DecayConfig(iterations=2)
    )
    assert report.steps > 0
