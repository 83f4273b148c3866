"""Standing benchmark of the radio-network simulator: one workload run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mis-20k --seed 1 --seconds 35 --trace 0

Workloads are ``mis-20k``, ``campaign-cold`` and ``campaign-warm``
(see ``workloads.py``). The run sets its workload up several times,
then times whole cycles of the workload's draws on the last set-up
while another cycle fits in ``--seconds`` (at least one), checking
every output. With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs each draw untraced and
then traced and reports the per-layer metrics, whose spans are
recorded around the program's public calls (``tracing.py``).

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit). The
line before it names what ran: graph digest, delivery kernel and its
row counts, Python, NumPy, whether numba is importable, and the core
count. A traced run also writes that record with its spans to
``.perfbench_runs/<run id>.json``. The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import uuid

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def end_to_end(setup_times, iterations) -> dict[str, float]:
    """Set-up as a median over repeats; the rest as totals over the
    timed iterations, which average the host's speed swings of a few
    seconds better than a median of a handful of iterations does."""
    timed = sum(it.wall for it in iterations)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": timed / len(iterations),
        "sim_steps_per_s": sum(it.steps for it in iterations) / timed,
        "jobs_per_s": sum(it.jobs for it in iterations) / timed,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
    }


#: Per-layer metrics that are program counts. They come from the first
#: traced iteration, whose inputs depend only on the seed, so they
#: repeat exactly across runs of one seed.
COUNT_PREFIXES = ("radio.", "kernels.", "residual.", "faults.")
COUNT_NAMES = ("store.writes", "store.hits", "api.calls")


def is_count(name: str) -> bool:
    return name.startswith(COUNT_PREFIXES) or name in COUNT_NAMES


def per_layer(tracer, workload, setup_count, traced, untraced):
    """Layer numbers of the traced iterations, plus set-up: counts of
    the first traced iteration, medians of everything else."""
    from tracing import layer_metrics

    rows = [
        layer_metrics(
            tracer.phase_spans(f"iter-{index}"),
            it.wall,
            tracer.client_thread,
            it.store,
        )
        for index, it in traced
    ]
    out = {
        name: value if is_count(name)
        else statistics.median(row[name] for row in rows)
        for name, value in rows[0].items()
    }
    for layer in ("generate", "add", "load"):
        out[f"corpus.{layer}_s"] = statistics.median(
            sum(
                s.duration
                for s in tracer.phase_spans(f"setup-{k}")
                if s.name == f"corpus.{layer}"
            )
            for k in range(setup_count)
        )
    out["corpus.bytes"] = workload.corpus_bytes
    # Each traced iteration repeats the draw of the untraced one before
    # it, so the pairs differ only in tracing.
    out["trace.overhead_s"] = statistics.median(
        t.wall - u.wall for (_, u), (_, t) in zip(untraced, traced)
    )
    return out


def provenance(args, run_id, workload, setup_times, iterations) -> dict:
    first = iterations[0] if iterations else None
    return {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "graph": {"n": workload.n, "digest": workload.digest},
        # No kernel ran in this workload's timed phase: null, not a name.
        "delivery_kernel": first.kernel if first else None,
        "kernel_use": first.kernel_use if first else None,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "setup_s": setup_times,
        "iterations": len(iterations),
        "walls_s": [it.wall for it in iterations],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})"
        )
    e2e_units, layer_units = declared_metrics()
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{uuid.uuid4().hex[:8]}"
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{run_id}"
    workload = WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer(run_id) if args.trace else None
    setup_times: list[float] = []
    iterations = []
    traced, untraced = [], []
    violations: list[str] = []
    aborted = 0
    try:
        if tracer is not None:
            tracer.install()
        for repeat in range(workload.setup_repeats):
            if tracer is not None:
                tracer.phase = f"setup-{repeat}"
            started = time.perf_counter()
            workload.setup(repeat)
            setup_times.append(time.perf_counter() - started)
        # A cycle runs every draw once. A traced run runs each draw
        # untraced and then traced, so the tracing overhead compares
        # the same work in the same run.
        cycle = [
            (draw, trace_this)
            for draw in range(workload.draws)
            for trace_this in ((False, True) if tracer else (False,))
        ]
        started = time.perf_counter()
        cycles = 0
        while True:
            for draw, trace_this in cycle:
                index = len(iterations)
                if tracer is not None:
                    tracer.phase = f"iter-{index}"
                    if trace_this:
                        tracer.install()
                    else:
                        tracer.uninstall()
                it = workload.iterate(draw)
                iterations.append(it)
                (traced if trace_this else untraced).append((index, it))
                violations.extend(it.violations)
            cycles += 1
            # Stop once another cycle of the mean length would overrun
            # the run length.
            elapsed = time.perf_counter() - started
            if elapsed * (1 + 1 / cycles) > args.seconds:
                break
    except Exception as exc:
        # A set-up or an iteration that fails outright is one failed
        # attempt, and the run is not correct.
        traceback.print_exc()
        violations.append(f"{type(exc).__name__}: {exc}")
        aborted = 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    metrics: dict[str, float] = {}
    units = layer_units if args.trace else e2e_units
    if not violations and iterations:
        if tracer is None:
            metrics = end_to_end(setup_times, iterations)
        else:
            metrics = per_layer(
                tracer, workload, len(setup_times), traced, untraced
            )
    attempted = sum(it.jobs for it in iterations) + aborted
    failed = sum(it.failed for it in iterations) + aborted
    if tracer is not None and metrics:
        metrics["failed_ratio"] = failed / attempted
    missing = sorted(set(units) - set(metrics))
    if metrics and missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")

    record = provenance(args, run_id, workload, setup_times, iterations)
    record["violations"] = violations
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }
    if tracer is not None:
        tracer.dump(
            RUNS / f"{run_id}.json", {"provenance": record, "result": result}
        )
    for message in violations:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
