"""Extension tuners and Section-IX models, side by side.

Compares four selection policies on a held-out test set:

* the paper's RandomForestTuner;
* ConfidenceFallbackTuner (SMAT-style: run-first below a vote threshold);
* OverheadConsciousTuner (conversion-aware, Zhao-et-al.-style);
* a GradientBoostingClassifier model (the paper's future-work direction).

Run:  python examples/advanced_tuners.py
"""

from __future__ import annotations

import numpy as np

from repro import MatrixCollection, make_space
from repro.core import (
    ConfidenceFallbackTuner,
    OracleModel,
    OverheadConsciousTuner,
    RandomForestTuner,
    build_dataset,
)
from repro.experiments.stages import run_profile_stage
from repro.formats import DynamicMatrix
from repro.ml import (
    GradientBoostingClassifier,
    RandomForestClassifier,
    accuracy_score,
    balanced_accuracy_score,
)


def main() -> None:
    space = make_space("p3", "hip")
    collection = MatrixCollection(n_matrices=300, seed=42)
    print(f"profiling {len(collection)} matrices on {space.name} ...")
    profiling = run_profile_stage(collection, [space])
    train, test = collection.train_test_split()
    Xtr, ytr = build_dataset(collection, train, profiling, space.name)
    Xte, yte = build_dataset(collection, test, profiling, space.name)

    rf = RandomForestClassifier(n_estimators=40, max_depth=14, seed=0).fit(Xtr, ytr)
    rf_model = OracleModel.from_estimator(rf, system="p3", backend="hip")

    gbt = GradientBoostingClassifier(
        n_estimators=40, max_depth=3, learning_rate=0.15, seed=0
    ).fit(Xtr, ytr)

    tuners = {
        "random-forest": RandomForestTuner(rf_model),
        "confidence-fallback": ConfidenceFallbackTuner(rf_model, threshold=0.7),
        "overhead-conscious": OverheadConsciousTuner(
            RandomForestTuner(rf_model), planned_iterations=1000
        ),
    }

    truth = yte
    print(f"\n{'policy':<22}{'accuracy':>10}{'balanced':>10}{'mean cost*':>12}")
    print("-" * 54)
    for label, tuner in tuners.items():
        preds, costs = [], []
        for spec in test:
            stats = collection.stats(spec)
            report = tuner.tune(
                DynamicMatrix(collection.generate(spec)), space,
                stats=stats, matrix_key=spec.name,
            )
            preds.append(report.format_id)
            t_csr = space.time_spmv(stats, "CSR", matrix_key=spec.name)
            costs.append(report.overhead_seconds / t_csr)
        acc = accuracy_score(truth, np.asarray(preds))
        bal = balanced_accuracy_score(truth, np.asarray(preds))
        print(f"{label:<22}{100 * acc:>10.2f}{100 * bal:>10.2f}"
              f"{np.mean(costs):>12.1f}")

    gbt_pred = gbt.predict(Xte)
    print(f"{'gradient-boosting':<22}"
          f"{100 * accuracy_score(truth, gbt_pred):>10.2f}"
          f"{100 * balanced_accuracy_score(truth, gbt_pred):>10.2f}"
          f"{'(offline)':>12}")
    print("\n* mean tuning cost in CSR-SpMV equivalents (Table IV metric)")


if __name__ == "__main__":
    main()
