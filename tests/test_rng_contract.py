"""rng contract v2 (DESIGN.md §4.3): specification-level checks.

The engine/reference twin suites pin that every execution path of a
protocol consumes one rng stream identically; they cannot tell whether
that stream is the *specified* one, nor whether a change of contract
kept the protocols' behavior. Three checks here can:

* **Coin consumption** — a Decay or EED step draws exactly one uniform
  per eligible node (nonzero transmit probability) and nothing for
  anyone else; with every node eligible that is the full-width row of
  contract v1.
* **Semantics fingerprint** — a digest over seeded trajectories, pinned
  per :data:`~repro.api.report.SEMANTICS` value: a trajectory change
  without a ``SEMANTICS`` bump (which is what keeps stale store entries
  from being served) fails here.
* **Distributional gate** — v2 outcomes over a fixed seed set against
  the v1 outcomes recorded in ``tests/data/rng_contract_v1.json``,
  two-sample KS per quantity at α = 0.001.
"""

from __future__ import annotations

import json
import pathlib

import networkx as nx
import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.api import SEMANTICS
from repro.core import (
    estimate_effective_degree,
    estimate_effective_degree_reference,
    run_decay,
    run_decay_reference,
)
from repro.core.decay import Decay, decay_span
from repro.radio import RadioNetwork

import rng_contract_outcomes as outcomes

#: Fingerprint of :func:`rng_contract_outcomes.fingerprint` per
#: semantics version. A change of seeded trajectories must bump
#: ``SEMANTICS`` and pin the new digest here.
GOLDEN_FINGERPRINTS = {
    # v1: every step drew rng.random(n) over all nodes.
    1: "7d245365d27377be61c75fe8472d6ce9fd35494f3690717f65c8a4ac48888eec",
    # v2: one uniform per eligible node per step.
    2: "8137be74f7581d268ee0f2bb91d4db08fd819e4776803da2359f08b1e69e8cb5",
}

#: KS significance level of the v1-vs-v2 distributional gate.
ALPHA = 0.001

V1_FIXTURE = pathlib.Path(__file__).parent / "data" / "rng_contract_v1.json"


def _after_draws(seed: int, count: int) -> dict:
    """The generator state after ``count`` uniforms from ``seed``."""
    rng = np.random.default_rng(seed)
    rng.random(count)
    return rng.bit_generator.state


class TestCoinConsumption:
    @pytest.mark.parametrize("engine", ["windowed", "reference"])
    def test_decay_draws_one_coin_per_active_node_per_step(self, engine):
        g = nx.gnp_random_graph(50, 0.1, seed=3)
        active = np.random.default_rng(4).random(50) < 0.3
        rng = np.random.default_rng(8)
        runner = run_decay if engine == "windowed" else run_decay_reference
        runner(RadioNetwork(g), active, rng, iterations=3)
        steps = 3 * decay_span(50)
        assert rng.bit_generator.state == _after_draws(
            8, steps * int(active.sum())
        )

    @pytest.mark.parametrize("engine", ["windowed", "reference"])
    def test_eed_draws_only_for_active_nodes_with_positive_p(self, engine):
        g = nx.gnp_random_graph(40, 0.15, seed=5)
        setup = np.random.default_rng(6)
        active = setup.random(40) < 0.7
        p = setup.choice([0.0, 0.5, 0.25], size=40)
        rng = np.random.default_rng(9)
        runner = (
            estimate_effective_degree
            if engine == "windowed"
            else estimate_effective_degree_reference
        )
        res = runner(RadioNetwork(g), p, active, rng, C=2)
        steps = res.counts.shape[0] * res.steps_per_level
        eligible = int((active & (p > 0)).sum())
        assert 0 < eligible < int(active.sum())
        assert rng.bit_generator.state == _after_draws(9, steps * eligible)

    def test_all_active_decay_draws_the_full_width_row(self):
        """With every node eligible a step draws exactly v1's
        ``rng.random(n)`` row — all-active Decay is bit-identical
        across the contract change."""
        net = RadioNetwork(nx.path_graph(12))
        protocol = Decay(net, np.ones(12, dtype=bool))
        rng = np.random.default_rng(1)
        twin = np.random.default_rng(1)
        mask = protocol.transmit_mask(rng)
        np.testing.assert_array_equal(mask, twin.random(12) < 0.5)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestSemanticsFingerprint:
    def test_fingerprint_pinned_for_current_semantics(self):
        assert SEMANTICS in GOLDEN_FINGERPRINTS, (
            f"no golden fingerprint pinned for SEMANTICS={SEMANTICS}"
        )
        assert outcomes.fingerprint() == GOLDEN_FINGERPRINTS[SEMANTICS], (
            "seeded trajectories changed: bump repro.api.report.SEMANTICS "
            "and pin the new fingerprint"
        )

    def test_each_version_pins_a_distinct_trajectory(self):
        # A bump without a trajectory change would pin a repeat digest.
        digests = list(GOLDEN_FINGERPRINTS.values())
        assert len(set(digests)) == len(digests)


class TestDistributionalGate:
    def test_v2_outcomes_match_v1_distribution(self):
        fixture = json.loads(V1_FIXTURE.read_text())
        assert fixture["n"] == outcomes.N
        assert fixture["graph_seed"] == outcomes.GRAPH_SEED
        assert fixture["seeds"] == list(outcomes.SEEDS)
        v1 = fixture["outcomes"]
        v2 = outcomes.all_outcomes()
        pvalues = {}
        for quantity in outcomes.QUANTITIES:
            # Partial active sets and mixed p make the streams differ;
            # identical samples would make the gate vacuous.
            assert v1[quantity] != v2[quantity], quantity
            pvalues[quantity] = ks_2samp(v1[quantity], v2[quantity]).pvalue
        rejected = {q: p for q, p in pvalues.items() if p < ALPHA}
        assert not rejected, (
            f"v2 outcome distributions differ from v1 (KS p < {ALPHA}): "
            f"{rejected}"
        )
