"""Self-test of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It runs every workload of ``BENCHMARK.json`` on seed 1 with
``--seconds 1``. Checks, exiting non-zero if any fails:

- every metric name in ``BENCHMARK.json`` matches ``[A-Za-z0-9_.-]+``
  and is used once;
- per workload, an untraced run emits exactly the declared end-to-end
  metrics and a traced run exactly the declared per-layer metrics,
  each with its declared unit, and both pass their output checks;
- two traced runs of one seed report the same graph digest and the
  same program counts (``radio.*``, ``kernels.*``, ``residual.*``,
  ``faults.*``, ``api.calls``, ``store.writes``, ``store.hits``);
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
  the benchmark exits non-zero without printing a result.

A full pass runs each workload three times at its minimum length,
about six minutes on a 2-core host.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import uuid

from run import is_count

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 1
SECONDS = 1


def run(workload: str, trace: int,
        cwd: pathlib.Path = ROOT) -> tuple[int, list[str], str]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS),
            "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    failures: list[str] = []

    def check(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            failures.append(message)

    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [
        m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]
    ]
    bad = [n for n in names if not NAME.fullmatch(n)]
    check(not bad, f"metric names match {NAME.pattern} {bad or ''}")
    check(len(names) == len(set(names)), "metric names are used once")

    def result(workload: str, trace: int, kind: str) -> dict | None:
        code, lines, stderr = run(workload, trace)
        check(code == 0, f"{workload} --trace {trace} exits 0")
        if code != 0:
            print(stderr[-3000:], file=sys.stderr)
            return None
        provenance = json.loads(lines[-2])["provenance"]
        out = json.loads(lines[-1])
        check(out["correct"], f"{workload} --trace {trace} outputs correct")
        units = {k: v["unit"] for k, v in out["metrics"].items()}
        check(
            units == declared[kind],
            f"{workload} --trace {trace} emits every declared {kind} "
            f"metric with its unit",
        )
        return {"provenance": provenance, "metrics": out["metrics"]}

    for workload in workloads:
        result(workload, 0, "end_to_end")
        first = result(workload, 1, "per_layer")
        second = result(workload, 1, "per_layer")
        if first is None or second is None:
            continue
        check(
            first["provenance"]["graph"] == second["provenance"]["graph"],
            f"{workload}: one seed gives one graph digest",
        )
        differ = [
            name for name in declared["per_layer"]
            if is_count(name) and first["metrics"][name]["value"]
            != second["metrics"][name]["value"]
        ]
        check(
            not differ,
            f"{workload}: program counts repeat across two runs of one "
            f"seed {differ or ''}",
        )

    bare = ROOT / ".perfbench_runs" / f"bare-{uuid.uuid4().hex[:8]}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            HERE, bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        code, lines, _ = run(workloads[0], 0, cwd=bare)
        check(
            code != 0 and not any('"correct"' in line for line in lines),
            "without the program the benchmark fails and prints no result",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
