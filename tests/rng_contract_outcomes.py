"""Seeded outcome draws for the v1-vs-v2 rng-contract distributional gate.

The v2 coin contract (DESIGN.md §4.3) changes which uniform doubles a
protocol step consumes, so seeded trajectories differ from v1 — but the
per-node coins are still i.i.d. uniforms, so every outcome
*distribution* must be unchanged. :func:`outcomes` measures four
quantities for one seed on a fixed n = 128 unit disk graph:

* ``mis_size`` / ``mis_steps`` — Radio MIS with ``eed_C=2``;
* ``decay_heard_frac`` — one Decay sweep from a fixed partial active
  set (a quarter of the nodes), fraction of all nodes that heard;
* ``eed_high`` — EstimateEffectiveDegree with ``C=2`` on a fixed
  partial active set and a mixed desire-level vector (zeros included),
  count of High verdicts.

Partial active sets and mixed ``p`` are the point: with every node
active and ``p > 0`` everywhere, v1 and v2 draw identical streams and
the gate would compare a sample with itself.

:func:`fingerprint` is the semantics fingerprint: a sha256 over the
step counts and result masks of small seeded runs, pinned per
``SEMANTICS`` value by ``tests/test_rng_contract.py``.

``tests/data/rng_contract_v1.json`` holds the :func:`outcomes` for
:data:`SEEDS` as produced by the v1 code; regenerate a fixture with::

    PYTHONPATH=src python tests/rng_contract_outcomes.py OUT.json

and print the fingerprint with ``... rng_contract_outcomes.py
--fingerprint``.

Only public entry points that exist under both contracts are used, so
the same script runs against either version of ``src``.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np

N = 128
SEEDS = tuple(range(200))
GRAPH_SEED = 7001
QUANTITIES = ("mis_size", "mis_steps", "decay_heard_frac", "eed_high")


def _fixed_inputs():
    from repro.graphs.udg import random_udg

    graph = random_udg(
        N, math.sqrt(N * math.pi / 9.0), np.random.default_rng(GRAPH_SEED),
        connected=False,
    )
    aux = np.random.default_rng(GRAPH_SEED + 1)
    decay_active = aux.random(N) < 0.25
    eed_active = aux.random(N) < 0.75
    eed_p = aux.choice(
        np.array([0.0, 0.125, 0.0625, 0.03125, 0.015625]), size=N
    )
    return graph, decay_active, eed_active, eed_p


def outcomes(seed: int, inputs=None) -> dict[str, float]:
    """The four gate quantities for one seed (fresh network per run)."""
    from repro.core import (
        MISConfig,
        compute_mis,
        estimate_effective_degree,
        run_decay,
    )
    from repro.radio import RadioNetwork

    graph, decay_active, eed_active, eed_p = inputs or _fixed_inputs()

    def rng(q: int) -> np.random.Generator:
        return np.random.default_rng([seed, q])

    mis = compute_mis(RadioNetwork(graph), rng(0), MISConfig(eed_C=2))
    decay = run_decay(RadioNetwork(graph), decay_active, rng(1))
    eed = estimate_effective_degree(
        RadioNetwork(graph), eed_p, eed_active, rng(2), C=2
    )
    return {
        "mis_size": int(mis.size),
        "mis_steps": int(mis.steps_used),
        "decay_heard_frac": float(decay.heard.mean()),
        "eed_high": int(eed.high.sum()),
    }


def all_outcomes() -> dict[str, list[float]]:
    """Per-quantity outcome lists over :data:`SEEDS`, in seed order."""
    inputs = _fixed_inputs()
    rows = [outcomes(seed, inputs) for seed in SEEDS]
    return {q: [row[q] for row in rows] for q in QUANTITIES}


def fingerprint() -> str:
    """sha256 over steps and result masks of n = 64 runs, seeds 0-2:
    Decay on a partial active set, EED with mixed ``p``, Radio MIS."""
    from repro.core import (
        MISConfig,
        compute_mis,
        estimate_effective_degree,
        run_decay,
    )
    from repro.graphs.udg import random_udg
    from repro.radio import RadioNetwork

    n = 64
    graph = random_udg(
        n, math.sqrt(n * math.pi / 9.0), np.random.default_rng(64),
        connected=False,
    )
    aux = np.random.default_rng(65)
    active = aux.random(n) < 0.3
    eed_active = aux.random(n) < 0.8
    p = aux.choice(np.array([0.0, 0.5, 0.125, 0.03125]), size=n)
    digest = hashlib.sha256()

    def feed(net: RadioNetwork, *arrays: np.ndarray) -> None:
        digest.update(np.int64(net.steps_elapsed).tobytes())
        for array in arrays:
            digest.update(np.ascontiguousarray(array).tobytes())

    for seed in range(3):
        net = RadioNetwork(graph)
        decay = run_decay(
            net, active, np.random.default_rng(seed), iterations=2
        )
        feed(net, decay.heard, decay.heard_from)
        net = RadioNetwork(graph)
        eed = estimate_effective_degree(
            net, p, eed_active, np.random.default_rng(seed), C=2
        )
        feed(net, eed.high, eed.counts)
        net = RadioNetwork(graph)
        mis = compute_mis(
            net, np.random.default_rng(seed), MISConfig(eed_C=2)
        )
        feed(net, mis.mis_mask, np.int64(mis.steps_used))
    return digest.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] == ["--fingerprint"]:
        print(fingerprint())
        sys.exit(0)
    if len(sys.argv) != 2:
        sys.exit("usage: rng_contract_outcomes.py OUT.json | --fingerprint")
    header = {"n": N, "graph_seed": GRAPH_SEED, "seeds": list(SEEDS)}
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in header.items()]
    series = [
        f"  {json.dumps(q)}: {json.dumps(v)}"
        for q, v in all_outcomes().items()
    ]
    lines.append(' "outcomes": {\n' + ",\n".join(series) + "\n }")
    with open(sys.argv[1], "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
