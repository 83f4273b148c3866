"""The benchmark trajectory tool (``tools/bench_history.py``).

A ratio whose record says its leg never ran (``<prefix>_available:
false`` beside ``<prefix>_speedup``) must read as "not run", never as a
measurement — PR 7's ``numba_speedup`` was timed with numba absent.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_history", REPO_ROOT / "tools" / "bench_history.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(tmp_path: pathlib.Path, available: bool) -> pathlib.Path:
    path = tmp_path / "BENCH_PR7.json"
    path.write_text(
        json.dumps(
            {
                "mis_legs": {
                    "restrict_speedup": 2.0,
                    "restrict_floor": 1.5,
                    "numba_available": available,
                    "numba_speedup": 1.88,
                    "numba_floor": None,
                },
                "passes_floors": True,
            }
        )
    )
    return path


def _rows_by_metric(rows):
    return {row["metric"]: row for row in rows}


def test_leg_that_never_ran_is_not_a_measurement(tmp_path):
    tool = _tool()
    rows = _rows_by_metric(tool.extract_rows(_record(tmp_path, False)))
    assert rows["numba_speedup"]["value"] is None
    assert rows["restrict_speedup"]["value"] == 2.0
    assert rows["restrict_speedup"]["floor"] == 1.5
    table = tool.format_table(list(rows.values()))
    numba_line = next(
        line for line in table.splitlines() if "numba_speedup" in line
    )
    assert "not run" in numba_line and "1.88" not in numba_line
    assert tool.check(tmp_path) == []


def test_leg_that_ran_keeps_its_value(tmp_path):
    tool = _tool()
    rows = _rows_by_metric(tool.extract_rows(_record(tmp_path, True)))
    assert rows["numba_speedup"]["value"] == 1.88


def test_committed_pr7_numba_leg_reads_not_run():
    tool = _tool()
    rows = _rows_by_metric(
        tool.extract_rows(REPO_ROOT / "BENCH_PR7.json")
    )
    assert rows["numba_speedup"]["value"] is None
    assert rows["restrict_speedup"]["value"] is not None
    assert tool.check() == []
