"""Table IV — auto-tuner runtime cost in units of CSR SpMV operations.

Paper: for each (system, backend) pair and every test-set matrix,
``T_tuning = (T_FE + T_PRED) / T_CSR`` with T_FE the online feature
extraction and T_PRED the forest traversal.  Reported statistics: means
2-64 CSR-SpMV equivalents; OpenMP backends cost the most on every system;
at least 75% of matrices need fewer than 100 equivalents; maxima in the
hundreds (small matrices where fixed costs dominate).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RandomForestTuner, build_dataset
from repro.experiments.stages import train_model
from repro.formats import DynamicMatrix

from benchmarks.conftest import write_result


@pytest.fixture(scope="module")
def tuner_costs(collection, spaces, profiling, split):
    """Per-pair arrays of tuning cost in CSR-SpMV equivalents."""
    train, test = split
    costs = {}
    for sp in spaces:
        Xtr, ytr = build_dataset(collection, train, profiling, sp.name)
        tm = train_model(
            Xtr, ytr, Xtr[:2], ytr[:2],
            grid={"n_estimators": [20, 40], "max_depth": [12, 18]},
            system=sp.system.name, backend=sp.backend,
        )
        tuner = RandomForestTuner(tm.oracle_model)
        per_matrix = []
        for spec in test:
            stats = collection.stats(spec)
            report = tuner.tune(
                DynamicMatrix(collection.generate(spec)), sp,
                stats=stats, matrix_key=spec.name,
            )
            t_csr = sp.time_spmv(stats, "CSR", matrix_key=spec.name)
            per_matrix.append(report.overhead_seconds / t_csr)
        costs[sp.name] = np.asarray(per_matrix)
    return costs


def render(costs) -> str:
    lines = [
        "Table IV: tuner cost, in equivalent CSR SpMV operations",
        "T_tuning = (T_FE + T_PRED) / T_CSR",
        "",
        f"{'system/backend':<18}{'mean':>7}{'std':>7}{'min':>6}"
        f"{'q1':>6}{'q2':>6}{'q3':>6}{'max':>8}",
    ]
    lines.append("-" * 64)
    for name, arr in costs.items():
        lines.append(
            f"{name:<18}{arr.mean():>7.1f}{arr.std():>7.1f}{arr.min():>6.1f}"
            f"{np.quantile(arr, 0.25):>6.1f}{np.quantile(arr, 0.5):>6.1f}"
            f"{np.quantile(arr, 0.75):>6.1f}{arr.max():>8.1f}"
        )
    return "\n".join(lines) + "\n"


def test_table4_tuner_cost(benchmark, tuner_costs):
    text = benchmark.pedantic(render, args=(tuner_costs,), rounds=1, iterations=1)
    write_result("table4_tuner_cost.txt", text)

    for name, arr in tuner_costs.items():
        # paper means range 2-64; accept 1-150 for the synthetic corpus
        assert 0.5 < arr.mean() < 150.0, (name, arr.mean())
        # "at least 75% of the matrices require fewer than 100 repetitions"
        assert np.quantile(arr, 0.75) < 100.0, name


def test_table4_openmp_most_expensive(benchmark, tuner_costs):
    """Paper: the OpenMP backend pays the most, irrespective of system."""

    def per_system():
        out = {}
        for name, arr in tuner_costs.items():
            system, backend = name.split("/")
            out.setdefault(system, {})[backend] = float(arr.mean())
        return out

    table = benchmark.pedantic(per_system, rounds=1, iterations=1)
    for system, backends in table.items():
        if "openmp" in backends and "serial" in backends:
            assert backends["openmp"] > backends["serial"], system


def test_table4_amortised_within_solver_scale(benchmark, tuner_costs):
    """Section VII-E: a time-dependent PDE needs many thousands of SpMV
    calls, so a tuner costing tens of equivalents is negligible."""

    def worst_mean():
        return max(arr.mean() for arr in tuner_costs.values())

    worst = benchmark.pedantic(worst_mean, rounds=1, iterations=1)
    solver_spmvs = 10_000
    assert worst / solver_spmvs < 0.05
