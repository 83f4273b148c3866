"""The fused coin+fault+delivery pipeline (ISSUE 9).

Three surfaces, every one pinned against an unfused twin:

* the in-place fused fault transform
  (:meth:`~repro.faults.state.FaultState.transform_window_inplace`)
  and the point-wise deafness test
  (:meth:`~repro.faults.state.FaultState.deaf_at`) against the
  mask-materializing window forms, including realized counters;
* the COO delivery kernels
  (:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`) against
  the slab kernels on every routing regime;
* end-to-end: pipeline runs (the ``delivery="auto"`` fused pass and
  restricted COO folds) bit-identical to the unfused PR 7 paths for
  Decay, EED, and full Radio MIS — across arbitrary ``chunk_steps``
  splits, restriction modes, and fault schedules whose jam windows
  straddle chunk and section boundaries — plus the refusal of unknown
  delivery modes (the retired ``"pipeline"`` mode among them) and the
  per-run reset of the provenance counters.
"""

from __future__ import annotations

import numpy as np
import networkx as nx
import pytest

import repro.api as api
from repro.api import DecayConfig, EEDConfig
from repro.core import MISConfig, compute_mis, run_decay
from repro.core.effective_degree import estimate_effective_degree
from repro.engine import kernels
from repro.engine.kernels import (
    DeliveryKernels,
    pipeline_disabled,
    pipeline_enabled,
    require_delivery_mode,
)
from repro.faults.schedule import FaultSchedule, Jam
from repro.faults.state import FaultState
from repro.radio.errors import ProtocolError
from repro.radio.network import NO_SENDER, RadioNetwork
from repro.radio.trace import CheapTrace


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
# COO delivery kernels against the slab kernels
# ---------------------------------------------------------------------------


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
        n = 120
        if family == "udg":
            g = _udg(n, 13)
        else:
            g = nx.gnp_random_graph(n, 0.4, seed=13)
        net = RadioNetwork(g)
        kern = DeliveryKernels(net._adj.indptr, net._adj.indices, n)
        rng = np.random.default_rng(width)
        masks = rng.random((width, n)) < density

        slab = np.full((width, n), NO_SENDER, dtype=np.int64)
        slab_counters: dict[str, int] = {}
        kern.execute(masks, slab, mode, slab_counters)

        coo_counters: dict[str, int] = {}
        step, node, sender = kern.execute_coo(masks, mode, coo_counters)

        rebuilt = np.full((width, n), NO_SENDER, dtype=np.int64)
        rebuilt[step, node] = sender
        assert (rebuilt == slab).all()
        assert sum(coo_counters.values()) == masks.shape[0]

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
    @pytest.mark.parametrize("mode", ["pipeline", "fused", "quantum"])
    def test_unknown_mode_refused(self, mode):
        """Only the registry's modes are accepted; the fused pass is an
        ``"auto"`` behavior, so the retired ``"pipeline"`` mode is
        refused by name like any other unknown mode, at the kernel
        registry and at the policy front door."""
        assert mode not in kernels.ALL_DELIVERY_MODES
        with pytest.raises(ProtocolError) as err:
            require_delivery_mode(mode)
        assert repr(mode) in str(err.value)
        assert "unknown delivery mode" in str(err.value)
        with pytest.raises(ProtocolError, match=repr(mode)):
            api.ExecutionPolicy(delivery=mode)

    def test_pipeline_disabled_toggle_nests(self):
        assert pipeline_enabled()
        with pipeline_disabled():
            assert not pipeline_enabled()
            with pipeline_disabled():
                assert not pipeline_enabled()
            assert not pipeline_enabled()
        assert pipeline_enabled()

    def test_auto_runs_the_fused_numpy_pass(self):
        """Under ``"auto"`` the fused pass serves separable plans and
        names itself in provenance; disabling it changes nothing but
        the kernel rows."""
        g = _udg(150, 21)
        fused = api.run("decay", g, seed=3)
        with pipeline_disabled():
            unfused = api.run("decay", g, seed=3)
        assert fused.result == unfused.result
        assert fused.provenance["delivery"]["kernel_use"].get(
            "pipeline-numpy", 0
        ) > 0
        assert "pipeline-numpy" not in (
            unfused.provenance["delivery"]["kernel_use"]
        )


# ---------------------------------------------------------------------------
# End-to-end equivalence: fused pipeline vs unfused paths
# ---------------------------------------------------------------------------


def _mis_run(g, seed, fused, **policy_kw):
    net = RadioNetwork(g, trace=CheapTrace())
    rng = np.random.default_rng(seed)
    policy = api.ExecutionPolicy(**policy_kw)
    if fused:
        result = compute_mis(net, rng, MISConfig(), policy=policy)
    else:
        with pipeline_disabled():
            result = compute_mis(net, rng, MISConfig(), policy=policy)
    probe = rng.integers(0, 2**63, 4).tolist()
    return result, net, probe


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("chunk_steps", [1, 3, 7, 64, 65])
    def test_decay_chunk_boundary_invariance(self, chunk_steps):
        """The fused pass folds identically whatever the chunk split —
        including heights of 1 and heights that straddle sweeps."""
        g = _udg(130, 31)
        net_a = RadioNetwork(g)
        net_b = RadioNetwork(g)
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        active = np.arange(130) % 3 == 0
        with pipeline_disabled():
            ref = run_decay(
                net_a, active, rng_a, iterations=4,
                policy=api.ExecutionPolicy(chunk_steps=chunk_steps),
            )
        out = run_decay(
            net_b, active, rng_b, iterations=4,
            policy=api.ExecutionPolicy(chunk_steps=chunk_steps),
        )
        assert out == ref
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("restrict", ["auto", "force", "off"])
    def test_eed_equivalence_across_restriction(self, restrict):
        g = _udg(140, 17)
        p = np.where(np.arange(140) % 2 == 0, 0.5, 0.125)
        active = np.arange(140) % 5 != 0
        runs = []
        for fused in (False, True):
            net = RadioNetwork(g)
            rng = np.random.default_rng(23)
            policy = api.ExecutionPolicy(restrict=restrict, chunk_steps=6)
            if fused:
                res = estimate_effective_degree(
                    net, p, active, rng, C=2, policy=policy
                )
            else:
                with pipeline_disabled():
                    res = estimate_effective_degree(
                        net, p, active, rng, C=2, policy=policy
                    )
            runs.append((res, net, rng.bit_generator.state))
        (ref, net_a, state_a), (out, net_b, state_b) = runs
        assert out == ref
        assert state_a == state_b
        assert net_a.trace.total_steps == net_b.trace.total_steps

    @pytest.mark.parametrize(
        "policy_kw",
        [
            {},
            {"chunk_steps": 7},
            {"restrict": "force"},
            {"restrict": "off", "chunk_steps": 5},
        ],
    )
    def test_mis_equivalence(self, policy_kw):
        g = _udg(150, 41)
        ref, net_a, probe_a = _mis_run(g, 11, fused=False, **policy_kw)
        out, net_b, probe_b = _mis_run(g, 11, fused=True, **policy_kw)
        assert out.mis == ref.mis
        assert out.steps_used == ref.steps_used
        assert out.history == ref.history
        assert probe_a == probe_b
        for attr in (
            "total_steps", "total_transmissions", "total_receptions"
        ):
            assert getattr(net_a.trace, attr) == getattr(
                net_b.trace, attr
            )

    @pytest.mark.parametrize("chunk_steps", [3, 11, None])
    def test_mis_with_faults_straddling_boundaries(self, chunk_steps):
        """Jam windows and sleeps that straddle chunk AND section
        boundaries realize identically through the fused transform."""
        g = _udg(130, 51)
        # One Decay section spans ceil(log2 130)*iters steps; windows
        # below are sized to cross both chunk splits and the
        # mis/decay-marked -> mis/decay-mis section boundary.
        faults = FaultSchedule(
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
        kw: dict = {"faults": faults}
        if chunk_steps is not None:
            kw["chunk_steps"] = chunk_steps
        ref, net_a, probe_a = _mis_run(g, 19, fused=False, **kw)
        out, net_b, probe_b = _mis_run(g, 19, fused=True, **kw)
        assert out.mis == ref.mis
        assert probe_a == probe_b
        assert dict(net_a._fault_state.realized) == dict(
            net_b._fault_state.realized
        )
        for attr in (
            "total_steps", "total_transmissions", "total_receptions"
        ):
            assert getattr(net_a.trace, attr) == getattr(
                net_b.trace, attr
            )

    def test_validated_run_still_green(self):
        """The validating runner pins the slab paths (it opts out of
        the COO fold), so a validated run of a pipeline-carrying plan
        still cross-checks every window."""
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
