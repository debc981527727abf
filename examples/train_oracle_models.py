"""The offline Sparse.Tree pipeline: profile, train, tune, export.

Reproduces the paper's Figure-1 offline stage end to end:

1. build a (reduced) SuiteSparse-like corpus;
2. profiling runs over every (system, backend) pair label each matrix
   with its optimal format;
3. a random forest is trained and grid-search-tuned per pair (Table III);
4. models are exported into a model database that the online tuners load.

Run:  python examples/train_oracle_models.py [n_matrices]
"""

from __future__ import annotations

import sys
import tempfile

from repro import MatrixCollection, available_spaces
from repro.core import ModelDatabase, build_dataset
from repro.core.pipeline import SMALL_RF_GRID
from repro.experiments.stages import run_profile_stage, train_model


def main(n_matrices: int = 250) -> None:
    print(f"corpus: {n_matrices} matrices (paper: ~2200; pass a bigger "
          "count to approach it)")
    collection = MatrixCollection(n_matrices=n_matrices, seed=42)
    spaces = available_spaces()

    print("profiling runs over the 11 (system, backend) pairs ...")
    profiling = run_profile_stage(collection, spaces)
    train, test = collection.train_test_split()
    print(f"split: {len(train)} train / {len(test)} test\n")

    db_dir = tempfile.mkdtemp(prefix="oracle-models-")
    db = ModelDatabase(db_dir)

    header = (f"{'system':<10}{'backend':<9}{'accuracy':>10}"
              f"{'balanced':>10}{'estimators':>12}")
    print(header)
    print("-" * len(header))
    for sp in spaces:
        Xtr, ytr = build_dataset(collection, train, profiling, sp.name)
        Xte, yte = build_dataset(collection, test, profiling, sp.name)
        tm = train_model(
            Xtr, ytr, Xte, yte,
            grid=SMALL_RF_GRID,
            system=sp.system.name,
            backend=sp.backend,
        )
        db.save(tm.oracle_model)
        print(f"{sp.system.name:<10}{sp.backend:<9}"
              f"{100 * tm.test_scores['tuned_accuracy']:>10.2f}"
              f"{100 * tm.test_scores['tuned_balanced_accuracy']:>10.2f}"
              f"{tm.tuned_params['n_estimators']:>12}")

    print(f"\nmodel database written to {db_dir}:")
    for key in db.available():
        print("  ", "/".join(key))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 250)
