"""Benchmark trajectory: one table over every ``BENCH_PR*.json``.

Each PR's benchmark persists its own record with its own shape —
useful in isolation, unreadable as a series. This tool walks every
``BENCH_PR*.json`` at the repo root and flattens the scattered records
into one aligned trajectory table: per PR, every *ratio* fact
(``speedup`` / ``*_speedup`` / ``mem_ratio`` / ``*_ratio`` leaves,
with the floor that gated it where the record carries one) and every
peak-memory fact (``peak_mem_bytes`` leaves) — so a reader can see in
one screen how each protocol's speedups and footprints moved across
the PR sequence, and CI can refuse a PR whose benchmark record went
missing or stopped passing its own floors.

A ratio whose record says its leg never ran — a sibling
``<prefix>_available: false`` beside ``<prefix>_speedup`` (PR 7's
``numba_speedup`` was timed with numba absent, on the NumPy kernels)
— is not a measurement: its row carries ``value: null`` and prints as
``not run``.

Two modes::

    PYTHONPATH=src python tools/bench_history.py            # the table
    PYTHONPATH=src python tools/bench_history.py --check    # CI gate

``--check`` exits nonzero unless every ``BENCH_PR*.json`` parses, the
series as a whole carries at least one ratio fact (some records are
overhead/degradation gates with no ratio of their own), and no record
says ``passes_floors: false`` (a missing ``passes_floors`` key is
tolerated — an explicit ``false`` is a shipped regression and fails).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from typing import Any, Iterator

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Leaf-key patterns classified as ratio facts (dimensionless "how
#: many times better" numbers — the trajectory's primary column).
RATIO_KEY = re.compile(r"(^|_)(speedup|ratio)$")

#: Leaf-key patterns classified as peak-footprint facts (bytes).
PEAK_KEY = re.compile(r"(^|_)peak(_mem)?_bytes$")


def bench_files(root: pathlib.Path = REPO_ROOT) -> list[pathlib.Path]:
    """Every ``BENCH_PR*.json`` at the repo root, in PR order."""

    def pr_number(path: pathlib.Path) -> int:
        match = re.search(r"BENCH_PR(\d+)", path.name)
        return int(match.group(1)) if match else 0

    return sorted(root.glob("BENCH_PR*.json"), key=pr_number)


def _walk(
    record: Any, path: tuple[str, ...] = ()
) -> Iterator[tuple[tuple[str, ...], Any]]:
    """Depth-first (path, leaf) pairs of a nested JSON record."""
    if isinstance(record, dict):
        for key, value in record.items():
            yield from _walk(value, path + (str(key),))
    else:
        yield path, record


def extract_rows(path: pathlib.Path) -> list[dict[str, Any]]:
    """The trajectory rows of one benchmark record.

    One row per ratio or peak leaf: ``pr`` (file stem), ``protocol``
    (the dotted path *above* the leaf key — which sub-benchmark the
    fact belongs to), ``kind`` (``ratio``/``peak``), ``metric`` (the
    leaf key), ``value`` (``None`` for a ratio whose sibling
    ``<prefix>_available`` leaf is ``false``: that leg never ran), and
    ``floor`` (the sibling ``*floor`` leaf of a ratio, when the record
    carries one).
    """
    record = json.loads(path.read_text())
    leaves = dict(_walk(record))
    rows: list[dict[str, Any]] = []
    for leaf_path, value in leaves.items():
        key = leaf_path[-1]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if RATIO_KEY.search(key):
            kind = "ratio"
        elif PEAK_KEY.search(key):
            kind = "peak"
        else:
            continue
        floor = None
        measured: float | None = float(value)
        if kind == "ratio":
            # The gating floor sits beside the ratio under a sibling
            # key: `floor` / `<prefix>_floor` for `speedup` /
            # `<prefix>_speedup` (same convention for ratios).
            prefix = re.sub(r"(speedup|ratio)$", "", key)
            if prefix and (
                leaves.get(leaf_path[:-1] + (f"{prefix}available",))
                is False
            ):
                measured = None
            for sibling in (f"{prefix}floor", "floor"):
                cand = leaves.get(leaf_path[:-1] + (sibling,))
                if isinstance(cand, (int, float)):
                    floor = float(cand)
                    break
        rows.append(
            {
                "pr": path.stem.replace("BENCH_", ""),
                "protocol": ".".join(leaf_path[:-1]) or "(top)",
                "kind": kind,
                "metric": key,
                "value": measured,
                "floor": floor,
            }
        )
    return rows


def history(root: pathlib.Path = REPO_ROOT) -> list[dict[str, Any]]:
    """All trajectory rows across every benchmark record, in PR order."""
    rows: list[dict[str, Any]] = []
    for path in bench_files(root):
        rows.extend(extract_rows(path))
    return rows


def format_table(rows: list[dict[str, Any]]) -> str:
    """The aligned trajectory table (protocol x PR x ratio x peak)."""
    if not rows:
        return "(no BENCH_PR*.json records found)"
    headers = ("PR", "protocol", "metric", "value", "floor")
    cells = []
    for row in rows:
        if row["value"] is None:
            value = "not run"
        elif row["kind"] == "peak":
            value = f"{row['value'] / 2**20:,.1f} MiB"
        else:
            value = f"{row['value']:.2f}x"
        floor = (
            f">= {row['floor']:g}x" if row["floor"] is not None else ""
        )
        cells.append(
            (row["pr"], row["protocol"], row["metric"], value, floor)
        )
    widths = [
        max(len(headers[i]), max(len(c[i]) for c in cells))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for cell in cells:
        lines.append(
            "  ".join(cell[i].ljust(widths[i]) for i in range(len(cell)))
        )
    return "\n".join(lines)


def check(root: pathlib.Path = REPO_ROOT) -> list[str]:
    """The CI gate: every record parses and does not declare
    ``passes_floors: false``; the series carries ratio facts."""
    problems: list[str] = []
    files = bench_files(root)
    if not files:
        problems.append("no BENCH_PR*.json records found at repo root")
    ratio_rows = 0
    for path in files:
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            problems.append(f"{path.name}: unreadable ({err})")
            continue
        rows = extract_rows(path)
        ratio_rows += sum(
            1
            for row in rows
            if row["kind"] == "ratio" and row["value"] is not None
        )
        if record.get("passes_floors") is False:
            problems.append(
                f"{path.name}: passes_floors is false — a benchmark "
                "record that fails its own floors must not ship"
            )
    if files and not ratio_rows:
        problems.append(
            "no ratio facts (speedup/ratio leaves) anywhere in the "
            "series — did the benchmark records change shape?"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="CI mode: validate every record instead of printing the "
        "table; nonzero exit on any problem",
    )
    args = parser.parse_args(argv)
    if args.check:
        problems = check()
        for problem in problems:
            print(f"bench-history: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"bench-history: {len(bench_files())} records OK "
            "(parse + ratio facts + floors)"
        )
        return 0
    print(format_table(history()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
