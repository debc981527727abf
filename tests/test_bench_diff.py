"""``tools/bench_diff.py``: the last trajectory entry against the bounds.

A synthetic trajectory and gate configuration pin what is flagged: a
move past a metric's bound in its worse direction, and failed
operations; a move of any size in the better direction, a move within
the bound and earlier entries are not.  (CI's ``bench-trajectory`` job
runs the tool over the committed trajectories.)
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_vs_scipy", "unit": "x", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


@pytest.fixture(scope="module")
def bench_diff():
    path = os.path.join(REPO_ROOT, "tools", "bench_diff.py")
    spec = importlib.util.spec_from_file_location("bench_diff", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def _entry(parent, change, failed=0):
    return {
        "change": "synthetic",
        "pairs": 5,
        "parent_median": parent,
        "change_median": change,
        "parent_iqr": {"setup_s": 0.3},
        "failed": failed,
    }


def _write(tmp_path, entries):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": END_TO_END}))
    trajectory = tmp_path / "BENCH_synthetic.json"
    trajectory.write_text(json.dumps({"workload": "synthetic", "entries": entries}))
    return ["--benchmark", str(bench), str(trajectory)]


GOOD = _entry(
    {"setup_s": 4.0, "throughput_vs_scipy": 0.5, "peak_rss_mb": 450.0},
    # setup_s -40% (better), throughput +0.1 (better), rss +5% (in bound)
    {"setup_s": 2.4, "throughput_vs_scipy": 0.6, "peak_rss_mb": 472.5},
)


def test_compare_rows(bench_diff):
    rows = {row[0]: row for row in bench_diff.compare(GOOD, END_TO_END)}
    name, parent, change, move, iqr, flag = rows["setup_s"]
    assert (parent, change, iqr, flag) == (4.0, 2.4, 0.3, "")
    assert move == pytest.approx(-0.4)
    assert rows["throughput_vs_scipy"][3] == pytest.approx(0.2)
    assert rows["peak_rss_mb"][3] == pytest.approx(0.05)
    assert rows["peak_rss_mb"][4] is None  # no IQR recorded for it
    assert not any(row[5] for row in rows.values())


@pytest.mark.parametrize(
    "change, flagged",
    [
        ({"setup_s": 5.2}, "setup_s"),  # +30% on a lower-is-better metric
        ({"throughput_vs_scipy": 0.36}, "throughput_vs_scipy"),  # -28%
        ({"peak_rss_mb": 500.0}, "peak_rss_mb"),  # +11.1% against 10%
    ],
)
def test_move_past_bound_in_worse_direction_is_flagged(
    bench_diff, tmp_path, capsys, change, flagged
):
    worse = _entry(GOOD["parent_median"], dict(GOOD["change_median"], **change))
    rows = bench_diff.compare(worse, END_TO_END)
    assert [row[0] for row in rows if row[5]] == [flagged]
    # only the last entry counts: a flagged earlier entry is history
    assert bench_diff.main(_write(tmp_path, [worse, GOOD])) == 0
    assert bench_diff.main(_write(tmp_path, [GOOD, worse])) == 1
    assert "FLAG" in capsys.readouterr().out


def test_failed_operations_are_flagged(bench_diff, tmp_path, capsys):
    failing = dict(GOOD, failed=3)
    assert bench_diff.main(_write(tmp_path, [failing])) == 1
    assert "FLAG 3 failed operations" in capsys.readouterr().out


def test_missing_metric_is_shown_not_flagged(bench_diff, tmp_path, capsys):
    partial = _entry({"setup_s": 4.0}, {"setup_s": 4.1})
    assert bench_diff.main(_write(tmp_path, [partial])) == 0
    out = capsys.readouterr().out
    assert "peak_rss_mb" in out and "OK" in out

