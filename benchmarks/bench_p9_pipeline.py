"""P9 — the fused coin+fault+delivery pipeline and the first
end-to-end n = 10^6 Radio MIS from the corpus store.

PR 9 collapsed the streamed chunk loop's three passes (draw coins,
apply fault transforms, deliver) into one fused per-chunk pipeline
pass, which ``delivery="auto"`` runs as blocked pure NumPy. Two claims
to pin, both on end-to-end Radio MIS under a declared streaming
budget:

* **Bit-identity first.** At a small n, the fused pass — faulted and
  fault-free — reproduces the unfused
  (PR 7) run exactly: MIS result, steps, per-phase trace totals,
  realized fault counters, and the final rng state. A timing row is
  meaningless unless this passes, so it gates.
* **Fusion alone pays.** The pure-NumPy fused pipeline (numba probe
  forced off on both sides, so CI machines with numba measure the
  same thing this container does) beats the PR 7 restricted
  pure-NumPy path by at least **1.5x** wall-clock at n = 10^5.

The cap: one end-to-end n = 10^6 MIS, generated into the corpus
store, mmap-loaded back, and streamed under ``E2E_MEM_BUDGET`` with
the tracemalloc peak recorded and gated.

Rows persist to ``BENCH_PR9.json``. Run directly::

    PYTHONPATH=src python benchmarks/bench_p9_pipeline.py --n 100000

or through ``benchmarks/run_perf_smoke.py`` (``--skip-p9`` /
``--p9-n`` to opt down; CI uses ``--p9-n 30000 --skip-e2e``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import platform
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_PR9.json"

#: Streaming memory budget the timed n = 10^5 legs run under (matches
#: the PR 7 envelope so the speedup is measured against its baseline).
MEM_BUDGET = "256M"

#: Streaming budget the n = 10^6 end-to-end leg declares.
E2E_MEM_BUDGET = "512M"

#: Ceiling on the tracemalloc peak of the n = 10^6 leg: the streaming
#: budget plus the resident graph structures (the network's CSR
#: adjacency and delivery matrix at n = 10^6, ~9 * 10^6 edges).
E2E_PEAK_CEILING_BYTES = 3 * 2**30

#: Pure-NumPy fused pipeline over the PR 7 restricted-numpy path.
PIPELINE_FLOOR = 1.5


@contextlib.contextmanager
def _numpy_only():
    """Force the numba probe off so a leg measures pure NumPy.

    Without this, a CI machine with numba would route both the
    baseline and the fused-numpy leg through compiled kernels and the
    two legs would no longer measure what this container measures.
    """
    from repro.engine import kernels

    prior = kernels._probe_cache.get("numba")
    kernels._probe_cache["numba"] = False
    try:
        yield
    finally:
        if prior is None:
            kernels._probe_cache.pop("numba", None)
        else:
            kernels._probe_cache["numba"] = prior


def _udg(n: int, seed: int):
    """The benchmark UDG family (matches bench_p3..p8 fixtures)."""
    from repro import graphs

    side = float(np.sqrt(n * np.pi / 9.0))
    return graphs.random_udg(
        n, side, np.random.default_rng(seed), connected=False
    )


def _policy(budget: str = MEM_BUDGET, **kwargs):
    import repro.api as api

    return api.ExecutionPolicy(
        mem_budget=api.parse_mem_budget(budget),
        trace="cheap",
        **kwargs,
    )


def _faults(n: int, seed: int):
    """A schedule exercising every fused fault transform column-wise:
    crashes, late joins, sleep windows, jams, and lossy sends."""
    from repro.faults.schedule import FaultSchedule, Jam

    rng = np.random.default_rng(seed)
    nodes = rng.choice(n, size=max(8, n // 50), replace=False)
    third = len(nodes) // 3
    return FaultSchedule(
        crashes=tuple(
            (int(v), int(rng.integers(5, 60))) for v in nodes[:third]
        ),
        joins=tuple(
            (int(v), int(rng.integers(1, 30)))
            for v in nodes[third : 2 * third]
        ),
        sleeps=tuple(
            (int(v), 10, 25) for v in nodes[2 * third :]
        ),
        jams=(Jam(start=15, stop=40, nodes=None),),
        tx_prob=tuple((int(v), 0.9) for v in nodes[: third // 2]),
        seed=seed,
        horizon=4096,
    )


def _mis_once(g, seed: int, policy, faults=None, fused=True):
    from repro.core import MISConfig, compute_mis
    from repro.engine.kernels import pipeline_disabled
    from repro.radio import RadioNetwork

    net = RadioNetwork(g, faults=faults)
    rng = np.random.default_rng(seed)
    ctx = contextlib.nullcontext() if fused else pipeline_disabled()
    t0 = time.perf_counter()
    with ctx:
        result = compute_mis(net, rng, MISConfig(eed_C=2), policy=policy)
    wall = time.perf_counter() - t0
    return result, net, rng, wall


def check_bit_identity(n: int = 1500, seed: int = 91) -> dict:
    """The fused pass equals the unfused run, exactly — faulted too."""
    g = _udg(n, seed)
    faults = _faults(n, seed + 7)
    legs = {
        "unfused": dict(fused=False),
        "fused-auto": dict(fused=True),
        "unfused-faulted": dict(fused=False, faults=faults),
        "fused-faulted": dict(fused=True, faults=faults),
    }
    runs = {
        name: _mis_once(g, seed + 1, _policy(), **spec)
        for name, spec in legs.items()
    }

    checked = []
    for ref_name, name in [
        ("unfused", "fused-auto"),
        ("unfused-faulted", "fused-faulted"),
    ]:
        ref_res, ref_net, ref_rng, _ = runs[ref_name]
        res, net, rng, _ = runs[name]
        assert res.mis == ref_res.mis, name
        assert res.steps_used == ref_res.steps_used, name
        assert res.history == ref_res.history, name
        assert net.steps_elapsed == ref_net.steps_elapsed, name
        assert net.trace.total_steps == ref_net.trace.total_steps, name
        assert (
            net.trace.total_transmissions
            == ref_net.trace.total_transmissions
        ), name
        assert (
            net.trace.total_receptions == ref_net.trace.total_receptions
        ), name
        if net._fault_state is not None:
            assert (
                dict(net._fault_state.realized)
                == dict(ref_net._fault_state.realized)
            ), name
        assert (
            rng.bit_generator.state == ref_rng.bit_generator.state
        ), name
        checked.append(name)
    base = runs["unfused"][0]
    return {
        "n": n,
        "edges": g.number_of_edges(),
        "mis_size": len(base.mis),
        "steps": base.steps_used,
        "legs": checked,
        "identical": True,
    }


def bench_pipeline_legs(n: int, seed: int = 92) -> dict:
    """The timed legs: unfused PR 7 path and fused numpy."""
    g = _udg(n, seed)
    edges = g.number_of_edges()

    with _numpy_only():
        base_res, base_net, base_rng, base_s = _mis_once(
            g, seed + 1, _policy(), fused=False
        )
        fused_res, fused_net, fused_rng, fused_s = _mis_once(
            g, seed + 1, _policy(), fused=True
        )
    # The identity trio again, at the timed scale: a speedup row only
    # counts if this exact pair of runs agreed bit for bit.
    assert fused_res.mis == base_res.mis
    assert fused_res.steps_used == base_res.steps_used
    assert (
        fused_rng.bit_generator.state == base_rng.bit_generator.state
    )

    return {
        "workload": "end-to-end Radio MIS, streamed under "
        f"{MEM_BUDGET} (eed_C=2)",
        "n": n,
        "edges": edges,
        "mis_size": len(base_res.mis),
        "steps": base_res.steps_used,
        "mem_budget": MEM_BUDGET,
        "unfused_s": base_s,
        "fused_numpy_s": fused_s,
        "pipeline_speedup": base_s / fused_s,
        "pipeline_floor": PIPELINE_FLOOR,
        "unfused_timing": dict(base_net.phase_timing),
        "fused_timing": dict(fused_net.phase_timing),
        "unfused_kernel_use": dict(base_net.kernel_use),
        "fused_kernel_use": dict(fused_net.kernel_use),
        "residual_stats": dict(fused_net.residual_stats),
    }


def bench_e2e_million(n: int, seed: int = 93) -> dict:
    """The cap: n = 10^6 MIS from the corpus store, budget declared.

    The graph is generated with the PR 8 cell-grid CSR generator,
    persisted to a store entry, mmap-loaded back, and streamed through
    the fused pipeline under ``E2E_MEM_BUDGET`` with the tracemalloc
    peak recorded — the first end-to-end million-node run the repo
    has produced.
    """
    import repro.api as api
    from repro import corpus

    side = float(np.sqrt(n * np.pi / 9.0))
    t0 = time.perf_counter()
    g = corpus.random_udg_csr(
        n, side, np.random.default_rng(seed), connected=False
    )
    generate_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        entry = pathlib.Path(tmp) / "entry"
        digest = corpus.save_graph(g, entry)
        del g
        t0 = time.perf_counter()
        loaded = corpus.load_graph(entry)
        load_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        report = api.run(
            "mis",
            corpus=loaded,
            rng=np.random.default_rng(seed + 1),
            policy=_policy(budget=E2E_MEM_BUDGET),
            measure_memory=True,
        )
        mis_s = time.perf_counter() - t0

    return {
        "workload": "corpus-store n=10^6 Radio MIS, streamed under "
        f"{E2E_MEM_BUDGET} (eed_C=2)",
        "n": n,
        "edges": loaded.number_of_edges(),
        "digest": digest,
        "generate_s": generate_s,
        "mmap_load_s": load_s,
        "mis_s": mis_s,
        "mis_size": report.result.size,
        "steps": report.steps,
        "mem_budget": E2E_MEM_BUDGET,
        "peak_mem_bytes": report.peak_mem_bytes,
        "peak_ceiling_bytes": E2E_PEAK_CEILING_BYTES,
        "timing": dict(report.provenance["timing"]),
        "kernel_use": dict(report.provenance["delivery"]["kernel_use"]),
        "residual": dict(report.provenance["residual"]),
    }


def run_bench(
    n: int = 100000,
    identity_n: int = 1500,
    e2e_n: int = 1000000,
    skip_e2e: bool = False,
) -> dict:
    """Run the PR 9 benchmarks and assemble the persistable record."""
    identity = check_bit_identity(n=identity_n)
    legs = bench_pipeline_legs(n=n)
    passes = legs["pipeline_speedup"] >= legs["pipeline_floor"]
    e2e = None
    if not skip_e2e:
        e2e = bench_e2e_million(n=e2e_n)
        passes = passes and (
            e2e["peak_mem_bytes"] <= e2e["peak_ceiling_bytes"]
        )
    return {
        "bench": "p9_pipeline",
        "generated": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "bit_identity": identity,
        "pipeline_legs": legs,
        "e2e_million": e2e,
        "passes_floors": bool(passes and identity["identical"]),
    }


def write_results(results: dict, path: pathlib.Path = RESULT_PATH) -> None:
    """Persist the benchmark record as pretty-printed JSON."""
    path.write_text(json.dumps(results, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Run, print, persist; exit nonzero if a floor breaks."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n", type=int, default=100000,
        help="timed pipeline scale (acceptance assumes 100000; CI "
        "uses 30000)",
    )
    parser.add_argument(
        "--identity-n", type=int, default=1500,
        help="bit-identity check scale (default 1500)",
    )
    parser.add_argument(
        "--e2e-n", type=int, default=1000000,
        help="end-to-end corpus-store scale (default 1000000)",
    )
    parser.add_argument(
        "--skip-e2e", action="store_true",
        help="skip the n=10^6 end-to-end leg (CI does; acceptance "
        "runs it)",
    )
    args = parser.parse_args(argv)
    results = run_bench(
        n=args.n,
        identity_n=args.identity_n,
        e2e_n=args.e2e_n,
        skip_e2e=args.skip_e2e,
    )
    ident = results["bit_identity"]
    legs = results["pipeline_legs"]
    print(
        f"bit-identity n={ident['n']}: legs {ident['legs']} identical"
    )
    print(
        f"MIS n={legs['n']}: unfused {legs['unfused_s']:.2f}s, "
        f"fused numpy {legs['fused_numpy_s']:.2f}s "
        f"= {legs['pipeline_speedup']:.2f}x "
        f"(floor {legs['pipeline_floor']}x)"
    )
    e2e = results["e2e_million"]
    if e2e is not None:
        print(
            f"e2e n={e2e['n']}: generate {e2e['generate_s']:.1f}s, "
            f"load {e2e['mmap_load_s'] * 1000:.0f}ms, "
            f"MIS {e2e['mis_s']:.1f}s "
            f"({e2e['steps']} steps, |MIS|={e2e['mis_size']}), "
            f"peak {e2e['peak_mem_bytes'] / 2**30:.2f} GiB "
            f"(ceiling {e2e['peak_ceiling_bytes'] / 2**30:.1f} GiB)"
        )
    write_results(results)
    print(f"persisted to {RESULT_PATH}")
    return 0 if results["passes_floors"] else 1


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
