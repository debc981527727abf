"""Table III — random-forest grid search: baseline vs tuned, per pair.

Paper: for each of the eleven (system, backend) pairs, a baseline random
forest (library defaults) and a grid-search-tuned forest are trained on
the 80% split and scored on the 20% test split.  Headline numbers:
mean accuracy 92.36% -> 92.63% and mean balanced accuracy 80.22% -> 84.42%
after tuning, with the tuned forests using far fewer/shallower trees.
Section VII-D adds the tuned decision tree: 90.85% / 78.12%.

This regenerator trains both models per pair and prints the table.  The
asserted shape: high accuracy everywhere, tuning does not hurt accuracy on
average, and the tuned models are smaller than the 100-tree baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_dataset
from repro.core.pipeline import SMALL_RF_GRID
from repro.experiments.stages import train_model

from benchmarks.conftest import write_result


@pytest.fixture(scope="module")
def table3(collection, spaces, profiling, split):
    train, test = split
    rows = []
    for sp in spaces:
        Xtr, ytr = build_dataset(collection, train, profiling, sp.name)
        Xte, yte = build_dataset(collection, test, profiling, sp.name)
        tm = train_model(
            Xtr, ytr, Xte, yte,
            algorithm="random_forest",
            grid=SMALL_RF_GRID,
            system=sp.system.name,
            backend=sp.backend,
        )
        rows.append(tm)
    return rows


def render(rows) -> str:
    lines = [
        "Table III: random forest baseline vs grid-search-tuned",
        "(accuracy / balanced accuracy on the held-out test set, %)",
        "",
        f"{'system':<10}{'backend':<9}{'est.':>6}{'depth':>7}"
        f"{'acc0':>8}{'acc1':>8}{'bal0':>8}{'bal1':>8}",
    ]
    lines.append("-" * 64)
    acc0, acc1, bal0, bal1 = [], [], [], []
    for tm in rows:
        s = tm.test_scores
        acc0.append(s["baseline_accuracy"])
        acc1.append(s["tuned_accuracy"])
        bal0.append(s["baseline_balanced_accuracy"])
        bal1.append(s["tuned_balanced_accuracy"])
        lines.append(
            f"{tm.system:<10}{tm.backend:<9}"
            f"{tm.tuned_params.get('n_estimators', 1):>6}"
            f"{str(tm.tuned_params.get('max_depth')):>7}"
            f"{100 * s['baseline_accuracy']:>8.2f}"
            f"{100 * s['tuned_accuracy']:>8.2f}"
            f"{100 * s['baseline_balanced_accuracy']:>8.2f}"
            f"{100 * s['tuned_balanced_accuracy']:>8.2f}"
        )
    lines.append("-" * 64)
    lines.append(
        f"{'mean':<25}{'':>7}"
        f"{100 * np.mean(acc0):>8.2f}{100 * np.mean(acc1):>8.2f}"
        f"{100 * np.mean(bal0):>8.2f}{100 * np.mean(bal1):>8.2f}"
    )
    lines.append(
        f"{'std':<25}{'':>7}"
        f"{100 * np.std(acc0):>8.2f}{100 * np.std(acc1):>8.2f}"
        f"{100 * np.std(bal0):>8.2f}{100 * np.std(bal1):>8.2f}"
    )
    return "\n".join(lines) + "\n"


def test_table3_random_forest(benchmark, table3):
    text = benchmark.pedantic(render, args=(table3,), rounds=1, iterations=1)
    write_result("table3_hyperparameter_tuning.txt", text)

    accs = [tm.test_scores["tuned_accuracy"] for tm in table3]
    bals = [tm.test_scores["tuned_balanced_accuracy"] for tm in table3]
    # paper means: accuracy 92.63%, balanced accuracy 84.42%; accept a
    # generous band for the reduced corpus
    assert np.mean(accs) > 0.75
    assert np.mean(bals) > 0.45
    # tuning must not cost accuracy on average
    base = [tm.test_scores["baseline_accuracy"] for tm in table3]
    assert np.mean(accs) >= np.mean(base) - 0.03


def test_table3_tuned_models_smaller_than_baseline(benchmark, table3):
    """The paper's observation: tuned forests use significantly fewer and
    shallower trees than the 100-estimator baseline."""

    def tuned_sizes():
        return [
            (tm.tuned.n_estimators, tm.baseline.n_estimators)
            for tm in table3
        ]

    sizes = benchmark.pedantic(tuned_sizes, rounds=1, iterations=1)
    assert all(tuned <= base for tuned, base in sizes)
    assert np.mean([t for t, _ in sizes]) < 100


def test_table3_decision_tree_close_behind(
    benchmark, collection, spaces, profiling, split
):
    """Section VII-D: the tuned decision tree trails the forest by only a
    few points (90.85% vs 92.63% accuracy in the paper)."""
    train, test = split
    sp = spaces[0]
    Xtr, ytr = build_dataset(collection, train, profiling, sp.name)
    Xte, yte = build_dataset(collection, test, profiling, sp.name)

    def train_dt():
        return train_model(
            Xtr, ytr, Xte, yte,
            algorithm="decision_tree",
            grid={"max_depth": [8, 14, 20], "criterion": ["gini", "entropy"]},
            system=sp.system.name,
            backend=sp.backend,
        )

    tm = benchmark.pedantic(train_dt, rounds=1, iterations=1)
    write_result(
        "table3_decision_tree.txt",
        "Tuned decision tree ({}):\naccuracy {:.2f}%  balanced accuracy "
        "{:.2f}%\n".format(
            sp.name,
            100 * tm.test_scores["tuned_accuracy"],
            100 * tm.test_scores["tuned_balanced_accuracy"],
        ),
    )
    assert tm.test_scores["tuned_accuracy"] > 0.7
