"""P7 — residual-graph delivery at n = 10^5.

PR 7 made the streamed engine *scale-proportional to the live set*
instead of to ``n``: active-set-restricted delivery through residual
contexts (:mod:`repro.engine.residual`) and fused per-round MIS plans.
Two claims to pin, both on end-to-end Radio MIS under a **256 MiB**
streaming budget:

* **Bit-identity first.** At a small n, every restricted leg —
  ``restrict="force"`` and ``restrict="auto"`` — reproduces the
  unrestricted run exactly: MIS result, steps, per-phase trace totals,
  and the final rng state. A timing row is meaningless unless this
  passes, so it gates.
* **Restriction pays.** Restricted MIS beats the unrestricted
  (``restrict="off"``) run by at least **1.5x** wall-clock.

Rows persist to ``BENCH_PR7.json``. Run directly::

    PYTHONPATH=src python benchmarks/bench_p7_kernels.py --n 100000

or through ``benchmarks/run_perf_smoke.py`` (``--skip-p7`` /
``--p7-n`` to opt down; CI uses ``--p7-n 30000``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time
import tracemalloc
from datetime import datetime, timezone

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_PR7.json"

#: Streaming memory budget every timed leg runs under (the ISSUE 7
#: acceptance envelope for n = 10^5).
MEM_BUDGET = "256M"

#: Restricted MIS over the unrestricted (PR 6 windowed) baseline.
RESTRICT_FLOOR = 1.5


def _udg(n: int, seed: int):
    """The benchmark UDG family (matches bench_p3..p6 fixtures)."""
    from repro import graphs

    side = float(np.sqrt(n * np.pi / 9.0))
    return graphs.random_udg(
        n, side, np.random.default_rng(seed), connected=False
    )


def _policy(**kwargs):
    import repro.api as api

    return api.ExecutionPolicy(
        mem_budget=api.parse_mem_budget(MEM_BUDGET),
        trace="cheap",
        **kwargs,
    )


def _mis_once(g, seed: int, policy):
    from repro.core import MISConfig, compute_mis
    from repro.radio import RadioNetwork

    net = RadioNetwork(g)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    result = compute_mis(net, rng, MISConfig(eed_C=2), policy=policy)
    wall = time.perf_counter() - t0
    return result, net, rng, wall


def check_bit_identity(n: int = 1500, seed: int = 71) -> dict:
    """Every restricted leg equals the unrestricted run, exactly."""
    g = _udg(n, seed)
    legs = {
        "off": _policy(restrict="off"),
        "force": _policy(restrict="force"),
        "auto": _policy(restrict="auto"),
    }
    runs = {
        name: _mis_once(g, seed + 1, pol) for name, pol in legs.items()
    }
    ref_res, ref_net, ref_rng, _ = runs["off"]
    checked = []
    for name, (res, net, rng, _) in runs.items():
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
        assert (
            rng.bit_generator.state == ref_rng.bit_generator.state
        ), name
        checked.append(name)
    return {
        "n": n,
        "edges": g.number_of_edges(),
        "mis_size": len(ref_res.mis),
        "steps": ref_res.steps_used,
        "legs": checked,
        "identical": True,
    }


def bench_mis_legs(n: int, seed: int = 72) -> dict:
    """The timed legs: baseline and restricted."""
    g = _udg(n, seed)
    edges = g.number_of_edges()

    base_res, base_net, _, base_s = _mis_once(
        g, seed + 1, _policy(restrict="off")
    )
    rest_res, rest_net, _, rest_s = _mis_once(
        g, seed + 1, _policy(restrict="auto")
    )
    assert rest_res.mis == base_res.mis
    assert rest_res.steps_used == base_res.steps_used

    # Peak footprint of the restricted leg, measured separately so the
    # tracemalloc hooks never touch a timed run.
    tracemalloc.start()
    _mis_once(g, seed + 1, _policy(restrict="auto"))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    restrict_speedup = base_s / rest_s
    return {
        "workload": "end-to-end Radio MIS, streamed under "
        f"{MEM_BUDGET} (eed_C=2)",
        "n": n,
        "edges": edges,
        "mis_size": len(base_res.mis),
        "steps": base_res.steps_used,
        "mem_budget": MEM_BUDGET,
        "baseline_s": base_s,
        "restricted_numpy_s": rest_s,
        "restrict_speedup": restrict_speedup,
        "restrict_floor": RESTRICT_FLOOR,
        "peak_mem_bytes": peak,
        "residual_stats": dict(rest_net.residual_stats),
        "baseline_kernel_use": dict(base_net.kernel_use),
        "restricted_kernel_use": dict(rest_net.kernel_use),
    }


def run_bench(n: int = 100000, identity_n: int = 1500) -> dict:
    """Run the PR 7 benchmarks and assemble the persistable record."""
    identity = check_bit_identity(n=identity_n)
    legs = bench_mis_legs(n=n)
    passes = legs["restrict_speedup"] >= legs["restrict_floor"]
    return {
        "bench": "p7_kernels",
        "generated": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "bit_identity": identity,
        "mis_legs": legs,
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
        help="timed MIS scale (acceptance assumes 100000; CI uses "
        "30000)",
    )
    parser.add_argument(
        "--identity-n", type=int, default=1500,
        help="bit-identity check scale (default 1500)",
    )
    args = parser.parse_args(argv)
    results = run_bench(n=args.n, identity_n=args.identity_n)
    legs = results["mis_legs"]
    ident = results["bit_identity"]
    print(
        f"bit-identity n={ident['n']}: legs {ident['legs']} identical"
    )
    print(
        f"MIS n={legs['n']}: baseline {legs['baseline_s']:.2f}s, "
        f"restricted numpy {legs['restricted_numpy_s']:.2f}s "
        f"= {legs['restrict_speedup']:.2f}x "
        f"(floor {legs['restrict_floor']}x), "
        f"peak {legs['peak_mem_bytes'] / 2**20:.0f} MiB"
    )
    write_results(results)
    print(f"persisted to {RESULT_PATH}")
    return 0 if results["passes_floors"] else 1


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
