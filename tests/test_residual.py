"""Residual delivery + compiled chunk kernels (ISSUE 7).

Four layers, each pinned independently:

* **Contract-v2 coins** (:mod:`repro.engine.pcg`) — compact
  eligible-node blocks are ``rng.random`` row-major whatever the chunk
  split, and scatter into full-width or member-column masks, refusing
  by name an eligible node that is not a member.
* **Delivery kernels** (:mod:`repro.engine.kernels`) — every mode is
  bit-identical to a brute-force dense reference on the same CSR, and
  degree-dependent routing state is recomputed from the CSR handed in
  (the satellite-2 regression: residual sub-graphs must not inherit a
  parent's degree extremes).
* **Mode registry** — ``available_delivery_modes`` reports what this
  process can run; explicit requests for absent compiled backends are
  refused with the uniform :class:`ProtocolError` naming the installed
  alternatives (silent fallback is reserved for ``"auto"``).
* **Restricted execution** (:mod:`repro.engine.residual` + runner) —
  member-set closure, context reuse, and full bit-identity (result,
  steps, per-phase trace totals, final rng state) of
  ``restrict="force"``/``"auto"`` against ``"off"`` and the step-wise
  references, including under :class:`ValidatingRunner`.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import (
    MISConfig,
    compute_mis,
    compute_mis_reference,
    estimate_effective_degree,
    estimate_effective_degree_reference,
    run_decay,
    run_decay_reference,
)
from repro.engine.kernels import (
    ALL_DELIVERY_MODES,
    COMPILED_DELIVERY_MODES,
    DeliveryKernels,
    available_delivery_modes,
    compiled_kernel_name,
    probe_cupy,
    probe_numba,
    require_delivery_mode,
)
from repro.engine.pcg import CoinField, member_positions, scatter_rows
from repro.engine.policy import ExecutionPolicy
from repro.engine.residual import (
    RESTRICT_MODES,
    ResidualContext,
    validate_restrict,
)
from repro.engine.runner import run_schedule
from repro.engine.segments import PlanSection, StreamedWindow
from repro.radio import RadioNetwork
from repro.radio.errors import ProtocolError
from repro.radio.network import (
    DELIVERY_MODES,
    GATHER_WINDOW_WIDTH,
    NO_SENDER,
    TransmitPlan,
)


def _assert_trace_equal(a: RadioNetwork, b: RadioNetwork) -> None:
    assert a.steps_elapsed == b.steps_elapsed
    assert a.trace.total_steps == b.trace.total_steps
    assert a.trace.total_transmissions == b.trace.total_transmissions
    assert a.trace.total_receptions == b.trace.total_receptions
    assert {
        k: (s.steps, s.transmissions, s.receptions)
        for k, s in a.trace.phase_stats().items()
    } == {
        k: (s.steps, s.transmissions, s.receptions)
        for k, s in b.trace.phase_stats().items()
    }


def _rng_state(rng: np.random.Generator):
    return rng.bit_generator.state


# ---------------------------------------------------------------------------
# Contract-v2 coins: compact eligible-node blocks
# ---------------------------------------------------------------------------


class TestCoinField:
    def test_chunked_draws_are_one_row_major_stream(self):
        # Any chunk split of a (k, L) plan draws the same values as one
        # monolithic block, and leaves the generator in the same state.
        width = 13
        rng_a = np.random.default_rng(31)
        rng_b = np.random.default_rng(31)
        coins = CoinField(rng_a)
        got = np.concatenate(
            [coins.draw(rows, width).copy() for rows in (4, 1, 7)]
        )
        np.testing.assert_array_equal(got, rng_b.random((12, width)))
        assert _rng_state(rng_a) == _rng_state(rng_b)

    def test_any_bit_generator(self):
        # No stream arithmetic of its own: any numpy bit generator works.
        rng_a = np.random.Generator(np.random.PCG64DXSM(5))
        rng_b = np.random.Generator(np.random.PCG64DXSM(5))
        np.testing.assert_array_equal(
            CoinField(rng_a).draw(6, 3), rng_b.random((6, 3))
        )
        assert _rng_state(rng_a) == _rng_state(rng_b)

    def test_empty_blocks_draw_nothing(self):
        rng = np.random.default_rng(0)
        before = _rng_state(rng)
        coins = CoinField(rng)
        assert coins.draw(0, 5).shape == (0, 5)
        assert coins.draw(4, 0).shape == (4, 0)
        assert _rng_state(rng) == before

    def test_scatter_full_and_member_columns(self):
        bits = np.array([[True, False, True], [False, True, True]])
        eligible = np.array([1, 4, 6])
        full = scatter_rows(bits, eligible, 8)
        assert full.shape == (2, 8)
        np.testing.assert_array_equal(full[:, eligible], bits)
        assert not np.delete(full, eligible, axis=1).any()
        members = np.array([0, 1, 4, 5, 6])
        compact = scatter_rows(bits, eligible, 8, members)
        np.testing.assert_array_equal(compact, full[:, members])
        # Every node eligible: the compact bits are the mask.
        assert scatter_rows(bits, np.arange(3), 3) is bits

    def test_eligible_outside_members_refused_by_name(self):
        with pytest.raises(ProtocolError, match="eligible transmitters"):
            member_positions(np.array([0, 2, 5]), np.array([2, 3, 9]))
        np.testing.assert_array_equal(
            member_positions(np.array([0, 2, 5]), np.array([2, 5])),
            [1, 2],
        )


# ---------------------------------------------------------------------------
# Delivery kernels on raw CSR
# ---------------------------------------------------------------------------


def _reference_delivery(adj: np.ndarray, masks: np.ndarray):
    """Brute-force radio semantics on a dense adjacency."""
    w, n = masks.shape
    hear = np.full((w, n), NO_SENDER, dtype=np.int64)
    tx = masks.astype(np.int64)
    counts = tx @ adj
    idsum = (tx * (np.arange(n) + 1)) @ adj
    clean = (counts == 1) & ~masks
    hear[clean] = idsum[clean] - 1
    return hear, int(clean.sum())


def _kernels_for(g: nx.Graph):
    net = RadioNetwork(g)
    csr = net._context.csr
    kern = DeliveryKernels(csr.indptr, csr.indices, net.n)
    return kern, csr.toarray().astype(np.int64)


class TestDeliveryKernels:
    @pytest.mark.parametrize("mode", ["auto", "sparse", "dense"])
    @pytest.mark.parametrize("width", [5, GATHER_WINDOW_WIDTH + 8])
    def test_modes_bit_identical_to_reference(self, mode, width):
        # width spans both sparse sub-kernels (gather vs spmm).
        g = nx.gnp_random_graph(48, 0.12, seed=11)
        kern, adj = _kernels_for(g)
        rng = np.random.default_rng(4)
        for density in (0.05, 0.5):
            masks = rng.random((width, kern.n)) < density
            want, want_rx = _reference_delivery(adj, masks)
            hear = np.full((width, kern.n), NO_SENDER, dtype=np.int64)
            got_rx = kern.execute(masks, hear, mode)
            np.testing.assert_array_equal(hear, want)
            assert got_rx == want_rx

    def test_empty_masks_counted_as_skip(self):
        g = nx.path_graph(10)
        kern, _ = _kernels_for(g)
        counters: dict[str, int] = {}
        hear = np.full((4, 10), NO_SENDER, dtype=np.int64)
        rx = kern.execute(
            np.zeros((4, 10), dtype=bool), hear, "auto", counters
        )
        assert rx == 0
        assert counters == {"skip-empty": 4}
        assert (hear == NO_SENDER).all()

    def test_counters_account_every_row(self):
        g = nx.gnp_random_graph(40, 0.2, seed=2)
        kern, _ = _kernels_for(g)
        rng = np.random.default_rng(9)
        masks = rng.random((12, kern.n)) < 0.3
        masks[3] = True  # guarantee at least one dense row
        counters: dict[str, int] = {}
        hear = np.full((12, kern.n), NO_SENDER, dtype=np.int64)
        kern.execute(masks, hear, "auto", counters)
        assert sum(counters.values()) == 12

    def test_degrees_recomputed_from_handed_in_csr(self):
        # Satellite 2: an induced sub-CSR's routing state reflects the
        # *sub-graph's* degrees. A star with the hub removed has no
        # edges at all — inheriting the parent's max_degree (n-1) would
        # poison the dense pre-emption and the packing bound.
        g = nx.star_graph(12)  # hub 0, leaves 1..12
        net = RadioNetwork(g)
        full = DeliveryKernels(
            net._context.csr.indptr, net._context.csr.indices, net.n
        )
        assert full.max_degree == 12
        leaves = np.arange(1, 13, dtype=np.int64)
        sub_indptr, sub_indices = net._context.induced_csr(leaves)
        sub = DeliveryKernels(sub_indptr, sub_indices, leaves.size)
        assert sub.max_degree == 0
        assert sub.min_degree == 0
        assert sub.degrees.sum() == 0

    def test_zero_node_kernels(self):
        kern = DeliveryKernels(
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), 0
        )
        assert kern.max_degree == 0 and kern.min_degree == 0


# ---------------------------------------------------------------------------
# Mode registry: availability, refusals, provenance names
# ---------------------------------------------------------------------------


class TestModeRegistry:
    def test_available_modes_always_include_numpy_modes(self):
        avail = available_delivery_modes()
        for mode in DELIVERY_MODES:
            assert mode in avail
        for mode in COMPILED_DELIVERY_MODES:
            assert mode in ALL_DELIVERY_MODES
            probe = {"numba": probe_numba, "cupy": probe_cupy}[mode]
            assert (mode in avail) == probe()

    def test_unknown_mode_refused_with_full_inventory(self):
        with pytest.raises(ProtocolError) as err:
            require_delivery_mode("quantum")
        assert "unknown delivery mode" in str(err.value)
        assert str(ALL_DELIVERY_MODES) in str(err.value)

    def test_installed_modes_accepted(self):
        for mode in available_delivery_modes():
            require_delivery_mode(mode)  # must not raise

    @pytest.mark.skipif(
        probe_numba(), reason="numba installed: refusal cannot fire"
    )
    def test_absent_numba_refused_by_name(self):
        with pytest.raises(ProtocolError) as err:
            require_delivery_mode("numba")
        msg = str(err.value)
        assert "'numba'" in msg and "not installed" in msg
        assert str(available_delivery_modes()) in msg
        # The policy front door refuses identically — no silent
        # fallback for an explicit request.
        with pytest.raises(ProtocolError, match="numba"):
            ExecutionPolicy(delivery="numba")

    @pytest.mark.skipif(
        probe_cupy(), reason="cupy usable: refusal cannot fire"
    )
    def test_absent_cupy_refused_by_name(self):
        with pytest.raises(ProtocolError, match="cupy"):
            ExecutionPolicy(delivery="cupy")

    def test_compiled_kernel_names(self):
        assert compiled_kernel_name("sparse") == "numpy"
        assert compiled_kernel_name("dense") == "numpy"
        assert compiled_kernel_name("numba") == "csr-numba"
        assert compiled_kernel_name("cupy") == "spmm-cupy"
        expected_auto = "csr-numba" if probe_numba() else "numpy"
        assert compiled_kernel_name("auto") == expected_auto

    def test_restrict_modes_validated(self):
        for mode in RESTRICT_MODES:
            validate_restrict(mode)  # must not raise
        with pytest.raises(ProtocolError, match="unknown restrict"):
            validate_restrict("maybe")
        with pytest.raises(ProtocolError, match="unknown restrict"):
            ExecutionPolicy(restrict="maybe")


# ---------------------------------------------------------------------------
# Residual contexts
# ---------------------------------------------------------------------------


class TestResidualContext:
    def test_members_are_support_plus_one_hop(self):
        g = nx.path_graph(7)  # 0-1-2-3-4-5-6
        net = RadioNetwork(g)
        support = np.zeros(7, dtype=bool)
        support[2] = True
        ctx = ResidualContext(net, support)
        np.testing.assert_array_equal(ctx.members, [1, 2, 3])
        assert ctx.k == 3
        assert ctx.live_at_build == 1
        # Induced sub-CSR degrees: path 1-2-3 relabeled 0-1-2.
        np.testing.assert_array_equal(ctx.kernels.degrees, [1, 2, 1])

    def test_covers_is_subset_of_build_support(self):
        g = nx.cycle_graph(8)
        net = RadioNetwork(g)
        support = np.zeros(8, dtype=bool)
        support[[1, 4]] = True
        ctx = ResidualContext(net, support)
        subset = np.zeros(8, dtype=bool)
        subset[4] = True
        assert ctx.covers(subset)
        assert ctx.covers(np.zeros(8, dtype=bool))
        other = np.zeros(8, dtype=bool)
        other[6] = True
        assert not ctx.covers(other)

    def test_support_shape_refused(self):
        net = RadioNetwork(nx.path_graph(5))
        with pytest.raises(ProtocolError, match="residual support"):
            ResidualContext(net, np.zeros(4, dtype=bool))

    def test_restricted_delivery_matches_full_on_members(self):
        # Executing a support-confined mask block on the residual
        # kernels, then translating senders back to global ids, equals
        # the full-graph delivery (non-members hear silence anyway).
        g = nx.gnp_random_graph(30, 0.15, seed=6)
        net = RadioNetwork(g)
        rng = np.random.default_rng(3)
        support = rng.random(30) < 0.3
        ctx = ResidualContext(net, support)
        masks = np.zeros((8, 30), dtype=bool)
        masks[:, support] = rng.random((8, int(support.sum()))) < 0.5
        adj = net._context.csr.toarray().astype(np.int64)
        want, _ = _reference_delivery(adj, masks)
        compact = masks[:, ctx.members]
        hear = np.full((8, ctx.k), NO_SENDER, dtype=np.int64)
        ctx.kernels.execute(compact, hear, "auto")
        heard = hear != NO_SENDER
        hear[heard] = ctx.members[hear[heard]]  # local -> global ids
        np.testing.assert_array_equal(hear, want[:, ctx.members])
        # And silence everywhere else.
        outside = np.ones(30, dtype=bool)
        outside[ctx.members] = False
        assert (want[:, outside] == NO_SENDER).all()


# ---------------------------------------------------------------------------
# Restricted execution: bit-identity end to end
# ---------------------------------------------------------------------------


def _twin_nets(g: nx.Graph, count: int = 2):
    return [RadioNetwork(g) for _ in range(count)]


class TestRestrictedEquivalence:
    def test_decay_restricted_bit_identical(self):
        g = nx.gnp_random_graph(90, 0.07, seed=13)
        active = np.random.default_rng(1).random(90) < 0.25
        active[0] = True
        net_f, net_o, net_r = _twin_nets(g, 3)
        rngs = [np.random.default_rng(21) for _ in range(3)]
        a = run_decay(
            net_f, active, rngs[0], iterations=4,
            policy=ExecutionPolicy(restrict="force"),
        )
        b = run_decay(
            net_o, active, rngs[1], iterations=4,
            policy=ExecutionPolicy(restrict="off"),
        )
        c = run_decay_reference(net_r, active, rngs[2], iterations=4)
        for other in (b, c):
            np.testing.assert_array_equal(a.heard, other.heard)
            np.testing.assert_array_equal(
                a.heard_from, other.heard_from
            )
            assert a.messages == other.messages
        _assert_trace_equal(net_f, net_o)
        _assert_trace_equal(net_f, net_r)
        states = [_rng_state(r) for r in rngs]
        assert states[0] == states[1] == states[2]
        assert net_f.residual_stats["restricted_steps"] > 0
        assert net_f.residual_stats["full_steps"] == 0
        assert net_o.residual_stats["restricted_steps"] == 0

    def test_eed_restricted_bit_identical(self):
        g = nx.gnp_random_graph(70, 0.1, seed=17)
        setup = np.random.default_rng(5)
        p = setup.random(70) * 0.4
        active = setup.random(70) < 0.3
        net_f, net_r = _twin_nets(g)
        rng_f = np.random.default_rng(6)
        rng_r = np.random.default_rng(6)
        a = estimate_effective_degree(
            net_f, p, active, rng_f, C=4,
            policy=ExecutionPolicy(restrict="force"),
        )
        b = estimate_effective_degree_reference(
            net_r, p, active, rng_r, C=4
        )
        np.testing.assert_array_equal(a.high, b.high)
        np.testing.assert_array_equal(a.counts, b.counts)
        _assert_trace_equal(net_f, net_r)
        assert _rng_state(rng_f) == _rng_state(rng_r)
        assert net_f.residual_stats["restricted_steps"] > 0

    @pytest.mark.parametrize("restrict", ["auto", "force"])
    def test_mis_restricted_bit_identical(self, restrict):
        g = nx.gnp_random_graph(110, 0.08, seed=23)
        config = MISConfig(eed_C=3)
        net_x, net_r = _twin_nets(g)
        rng_x = np.random.default_rng(42)
        rng_r = np.random.default_rng(42)
        a = compute_mis(
            net_x, rng_x, config,
            policy=ExecutionPolicy(restrict=restrict),
        )
        b = compute_mis_reference(net_r, rng_r, config)
        assert a.mis == b.mis
        assert a.steps_used == b.steps_used
        assert a.history == b.history
        _assert_trace_equal(net_x, net_r)
        assert _rng_state(rng_x) == _rng_state(rng_r)
        # Late MIS rounds always collapse the live set far enough for
        # auto to engage; force engages from round one.
        assert net_x.residual_stats["restricted_steps"] > 0
        if restrict == "auto":
            assert net_x.residual_stats["full_steps"] > 0

    def test_restricted_under_validating_runner(self):
        # ValidatingRunner re-derives each restricted slab full-width
        # and compares — restrict="force" under validate=True is the
        # strongest self-check the engine has; it must also stay
        # bit-identical to the plain run.
        g = nx.gnp_random_graph(60, 0.1, seed=29)
        config = MISConfig(eed_C=3)
        net_v, net_p = _twin_nets(g)
        rng_v = np.random.default_rng(8)
        rng_p = np.random.default_rng(8)
        a = compute_mis(
            net_v, rng_v, config,
            policy=ExecutionPolicy(restrict="force", validate=True),
        )
        b = compute_mis(net_p, rng_p, config)
        assert a.mis == b.mis
        assert a.steps_used == b.steps_used
        _assert_trace_equal(net_v, net_p)
        assert _rng_state(rng_v) == _rng_state(rng_p)
        assert net_v.residual_stats["restricted_steps"] > 0

    def test_rebuild_amortization_counters(self):
        # A full MIS run rebuilds contexts only as the live set
        # collapses: far fewer rebuilds than rounds.
        g = nx.gnp_random_graph(120, 0.06, seed=31)
        net = RadioNetwork(g)
        res = compute_mis(
            net, np.random.default_rng(11), MISConfig(eed_C=3),
            policy=ExecutionPolicy(restrict="force"),
        )
        stats = net.residual_stats
        assert 0 < stats["rebuilds"] <= len(res.history)
        assert stats["restricted_steps"] > 0


# ---------------------------------------------------------------------------
# Plan-surface contracts
# ---------------------------------------------------------------------------


class TestPlanContracts:
    def test_section_widths_must_cover_the_plan(self):
        net = RadioNetwork(nx.path_graph(6))

        def schedule():
            plan = TransmitPlan(
                4, lambda s, e: np.zeros((e - s, 6), dtype=bool)
            )
            yield StreamedWindow(
                plan,
                sections=(
                    PlanSection(3, None, lambda slab: None, None),
                ),
            )

        with pytest.raises(ProtocolError, match="sections cover 3"):
            run_schedule(net, schedule())

    def test_masks_at_shape_refused(self):
        n = 6
        net = RadioNetwork(nx.path_graph(n))
        support = np.zeros(n, dtype=bool)
        support[2] = True

        def schedule():
            plan = TransmitPlan(
                4,
                lambda s, e: np.zeros((e - s, n), dtype=bool),
                support=support,
                masks_at=lambda s, e, cols: np.zeros(
                    (e - s, cols.size + 1), dtype=bool
                ),
            )
            yield StreamedWindow(
                plan,
                consume=lambda slab: None,
                consume_at=lambda slab, cols: None,
            )

        with pytest.raises(ProtocolError, match="masks_at produced"):
            run_schedule(net, schedule(), restrict="force")

    def test_window_without_consume_surface_refused(self):
        net = RadioNetwork(nx.path_graph(4))

        def schedule():
            yield StreamedWindow(
                TransmitPlan(
                    2, lambda s, e: np.zeros((e - s, 4), dtype=bool)
                )
            )

        with pytest.raises(ProtocolError, match="without a\\s+consume"):
            run_schedule(net, schedule())
