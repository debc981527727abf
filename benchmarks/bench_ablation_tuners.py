"""Ablation — the three tuners' accuracy/overhead trade-off (Section VI-A).

Paper claim: Run-first is the accuracy ceiling but pays conversions per
candidate format; the DecisionTreeTuner is the cheapest prediction with a
few points lower accuracy; the RandomForestTuner sits between, its
prediction cost proportional to the ensemble size.  This bench quantifies
all three on one CPU and one GPU pair, plus an estimator-count sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DecisionTreeTuner,
    RandomForestTuner,
    RunFirstTuner,
    build_dataset,
)
from repro.experiments.stages import train_model
from repro.formats import DynamicMatrix
from repro.ml import accuracy_score

from benchmarks.conftest import write_result


@pytest.fixture(scope="module")
def tuner_trio(collection, spaces, profiling, split):
    """(space, {tuner_name: (accuracy, mean overhead in CSR equivalents)})"""
    train, test = split
    out = {}
    for sp in spaces:
        if sp.name not in ("cirrus/openmp", "p3/cuda"):
            continue
        Xtr, ytr = build_dataset(collection, train, profiling, sp.name)
        Xte_specs = test
        dt_model = train_model(
            Xtr, ytr, Xtr[:2], ytr[:2],
            algorithm="decision_tree", grid={"max_depth": [12, 18]},
            system=sp.system.name, backend=sp.backend,
        ).oracle_model
        rf_model = train_model(
            Xtr, ytr, Xtr[:2], ytr[:2],
            grid={"n_estimators": [30], "max_depth": [14]},
            system=sp.system.name, backend=sp.backend,
        ).oracle_model
        tuners = {
            "run-first": RunFirstTuner(repetitions=10),
            "decision-tree": DecisionTreeTuner(dt_model),
            "random-forest": RandomForestTuner(rf_model),
        }
        rows = {}
        for name, tuner in tuners.items():
            preds, costs = [], []
            for spec in Xte_specs:
                stats = collection.stats(spec)
                report = tuner.tune(
                    DynamicMatrix(collection.generate(spec)), sp,
                    stats=stats, matrix_key=spec.name,
                )
                preds.append(report.format_id)
                t_csr = sp.time_spmv(stats, "CSR", matrix_key=spec.name)
                costs.append(report.overhead_seconds / t_csr)
            truth = np.asarray(
                [profiling.optimal[sp.name][s.name] for s in Xte_specs]
            )
            rows[name] = (
                accuracy_score(truth, np.asarray(preds)),
                float(np.mean(costs)),
            )
        out[sp.name] = rows
    return out


def render(tuner_trio) -> str:
    lines = [
        "Ablation: tuner accuracy vs overhead (overhead in CSR-SpMV equiv.)",
        "",
        f"{'space':<16}{'tuner':<16}{'accuracy':>10}{'overhead':>12}",
        "-" * 54,
    ]
    for space_name, rows in tuner_trio.items():
        for tuner_name, (acc, cost) in rows.items():
            lines.append(
                f"{space_name:<16}{tuner_name:<16}{100 * acc:>10.2f}"
                f"{cost:>12.1f}"
            )
    return "\n".join(lines) + "\n"


def test_tuner_tradeoff(benchmark, tuner_trio):
    text = benchmark.pedantic(render, args=(tuner_trio,), rounds=1, iterations=1)
    write_result("ablation_tuners.txt", text)

    for space_name, rows in tuner_trio.items():
        # run-first is the accuracy ceiling (it measures, it cannot lose)
        assert rows["run-first"][0] >= rows["random-forest"][0] - 1e-9
        # ...and by far the most expensive
        assert rows["run-first"][1] > 10 * rows["random-forest"][1]
        # single tree predicts no slower than the forest
        assert rows["decision-tree"][1] <= rows["random-forest"][1] + 1e-9


def test_estimator_count_sweep(
    benchmark, collection, spaces, profiling, split
):
    """Prediction cost grows linearly with trees; accuracy saturates."""
    from repro.core import OracleModel
    from repro.ml import RandomForestClassifier

    sp = next(s for s in spaces if s.name == "p3/cuda")
    train, test = split
    Xtr, ytr = build_dataset(collection, train, profiling, sp.name)
    Xte, yte = build_dataset(collection, test, profiling, sp.name)

    def sweep():
        rows = []
        for n_est in (1, 5, 20, 60):
            rf = RandomForestClassifier(
                n_estimators=n_est, max_depth=14, seed=0
            ).fit(Xtr, ytr)
            model = OracleModel.from_estimator(rf)
            acc = accuracy_score(yte, model.predict(Xte))
            t_pred = sp.time_prediction(
                n_estimators=n_est, avg_depth=model.mean_depth
            )
            rows.append((n_est, acc, t_pred))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Ablation: estimator-count sweep (p3/cuda)",
        "",
        f"{'trees':>6}{'accuracy':>10}{'t_pred (us)':>13}",
        "-" * 29,
    ]
    for n_est, acc, t_pred in rows:
        lines.append(f"{n_est:>6}{100 * acc:>10.2f}{1e6 * t_pred:>13.2f}")
    write_result("ablation_estimators.txt", "\n".join(lines) + "\n")

    times = [t for _, _, t in rows]
    assert times == sorted(times)  # cost monotone in ensemble size
    accs = [a for _, a, _ in rows]
    assert max(accs[2:]) >= accs[0]  # ensembles at least match one tree
