"""Tests for the evaluation (table/figure analysis) module."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.datasets import MatrixCollection
from repro.evaluation import (
    SpeedupSummary,
    TunerCostStats,
    format_distribution_table,
    render_table,
    speedup_summary,
    tuned_speedup_series,
    tuner_cost_statistics,
)
from repro.evaluation.analysis import confusion_by_format
from repro.experiments.stages import run_profile_stage
from repro.machine import CostModel


@pytest.fixture(scope="module")
def world():
    coll = MatrixCollection(n_matrices=40, seed=9)
    space = make_space("cirrus", "cuda", cost_model=CostModel())
    profiling = run_profile_stage(coll, [space])
    return coll, space, profiling


class TestDistribution:
    def test_table_covers_all_formats(self, world):
        _, space, profiling = world
        table = format_distribution_table(profiling, [space.name])
        dist = table[space.name]
        assert set(dist) == {"COO", "CSR", "DIA", "ELL", "HYB", "HDC"}
        assert sum(dist.values()) == pytest.approx(1.0)


class TestSpeedupSummary:
    def test_summary_statistics(self, world):
        _, space, profiling = world
        summary = speedup_summary(profiling, space.name)
        assert summary.n >= 0
        if summary.n:
            assert 1.0 <= summary.median <= summary.q3 <= summary.maximum
            assert summary.mean >= 1.0

    def test_empty_array(self):
        s = SpeedupSummary.from_array(np.asarray([]))
        assert s.n == 0
        assert s.mean == 0.0

    def test_known_values(self):
        s = SpeedupSummary.from_array(np.asarray([1.0, 2.0, 3.0, 10.0]))
        assert s.n == 4
        assert s.mean == 4.0
        assert s.median == 2.5
        assert s.maximum == 10.0


class TestTunerCost:
    def test_run_first_cost_stats(self, world):
        coll, space, _ = world
        stats = tuner_cost_statistics(
            RunFirstTuner(repetitions=2), coll, coll.subset(10), space
        )
        assert stats.minimum > 0
        assert stats.q1 <= stats.q2 <= stats.q3
        assert stats.maximum >= stats.mean

    def test_known_quartiles(self):
        s = TunerCostStats.from_array(np.arange(1.0, 101.0))
        assert s.q2 == pytest.approx(50.5)
        assert s.minimum == 1.0
        assert s.maximum == 100.0


class TestTunedSeries:
    def test_series_lengths_and_bounds(self, world):
        coll, space, _ = world
        series = tuned_speedup_series(
            RunFirstTuner(repetitions=1), coll, coll.subset(8), space,
            repetitions=1000,
        )
        assert series["tuned"].shape == (8,)
        assert series["optimal"].shape == (8,)
        assert (series["optimal"] >= 1.0).all()
        # tuned never beats the hindsight optimum
        assert (series["tuned"] <= series["optimal"] + 1e-9).all()


class TestConfusion:
    def test_counts_by_name(self):
        out = confusion_by_format(
            np.array([1, 1, 0]), np.array([1, 2, 0])
        )
        assert out["CSR"]["CSR"] == 1
        assert out["CSR"]["DIA"] == 1
        assert out["COO"]["COO"] == 1


class TestRender:
    def test_alignment_and_title(self):
        text = render_table(
            ["name", "value"],
            [["a", 1.5], ["long-name", 22.125]],
            title="My Table",
        )
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert "1.50" in text
        assert "22.12" in text or "22.13" in text

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert "a" in text and "b" in text

    def test_first_column_left_aligned(self):
        text = render_table(["k", "v"], [["x", 1.0], ["yy", 2.0]])
        data_lines = text.splitlines()[2:]
        assert data_lines[0].startswith("x ")
        assert data_lines[1].startswith("yy")


class TestBackendFlips:
    """Section VII-B: optima flip between backends of the same node."""

    @pytest.fixture(scope="class")
    def cpu_world(self):
        from repro.evaluation import backend_flip_analysis

        coll = MatrixCollection(n_matrices=80, seed=17)
        cm = CostModel()
        serial = make_space("archer2", "serial", cost_model=cm)
        openmp = make_space("archer2", "openmp", cost_model=cm)
        profiling = run_profile_stage(coll, [serial, openmp])
        return backend_flip_analysis(
            profiling, serial.name, openmp.name
        )

    def test_some_matrices_flip(self, cpu_world):
        assert cpu_world["n"] == 80
        assert 0.0 < cpu_world["flip_fraction"] < 1.0

    def test_transitions_account_for_all_flips(self, cpu_world):
        total = sum(cpu_world["transitions"].values())
        assert total == round(cpu_world["flip_fraction"] * cpu_world["n"])

    def test_transition_keys_are_format_pairs(self, cpu_world):
        for key in cpu_world["transitions"]:
            a, b = key.split("->")
            assert a != b
            for fmt in (a, b):
                assert fmt in ("COO", "CSR", "DIA", "ELL", "HYB", "HDC")

    def test_empty_overlap(self):
        from repro.core.pipeline import ProfilingResult
        from repro.evaluation import backend_flip_analysis

        pr = ProfilingResult(
            times={"a": {}, "b": {}}, optimal={"a": {}, "b": {}}
        )
        out = backend_flip_analysis(pr, "a", "b")
        assert out["n"] == 0
        assert out["flip_fraction"] == 0.0
