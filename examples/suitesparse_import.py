"""Drop-in real matrices: Matrix Market import + ML tuning.

SuiteSparse distributes matrices as ``.mtx`` files.  This example writes
one (standing in for a downloaded file), reads it back, trains a small
Oracle model on the synthetic corpus, and tunes the imported matrix with
the RandomForestTuner loaded from a model file — the full online stage of
the paper's Figure 1.

Run:  python examples/suitesparse_import.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro import DynamicMatrix, MatrixCollection, RandomForestTuner, make_space
from repro.core import (
    build_dataset,
    extract_features,
    save_model,
    tune_multiply,
)
from repro.core.features import FEATURE_NAMES
from repro.datasets import banded, read_matrix_market, write_matrix_market
from repro.experiments.stages import run_profile_stage, train_model


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="oracle-import-")

    # --- stand-in for a SuiteSparse download -------------------------
    mtx_path = os.path.join(workdir, "bcsstk_like.mtx")
    write_matrix_market(
        mtx_path,
        banded(8_000, half_bandwidth=4, fill=0.9, seed=5),
        comment="synthetic stand-in for a SuiteSparse matrix",
    )
    matrix = read_matrix_market(mtx_path)
    print(f"imported {mtx_path}")
    print(f"  {matrix.nrows}x{matrix.ncols}, nnz={matrix.nnz}")

    features = extract_features(matrix)
    print("\nTable-I features:")
    for name, value in zip(FEATURE_NAMES, features):
        print(f"  {name:<8} = {value:g}")

    # --- offline stage: train a model for cirrus/cuda ----------------
    space = make_space("cirrus", "cuda")
    collection = MatrixCollection(n_matrices=200, seed=42)
    profiling = run_profile_stage(collection, [space])
    train, test = collection.train_test_split()
    Xtr, ytr = build_dataset(collection, train, profiling, space.name)
    Xte, yte = build_dataset(collection, test, profiling, space.name)
    tm = train_model(
        Xtr, ytr, Xte, yte,
        grid={"n_estimators": [20], "max_depth": [14]},
        system="cirrus", backend="cuda",
    )
    model_path = os.path.join(workdir, "cirrus_cuda.model")
    save_model(model_path, tm.oracle_model)
    print(f"\ntrained model -> {model_path} "
          f"(test accuracy {100 * tm.test_scores['tuned_accuracy']:.1f}%)")

    # --- online stage: tune the imported matrix ----------------------
    tuner = RandomForestTuner(model_path)
    dyn = DynamicMatrix(matrix)
    x = np.ones(dyn.ncols)
    result = tune_multiply(dyn, tuner, space, x)
    print(f"\ntuned format on {space.name}: {result.report.format_name}")
    print(f"tuning cost: {result.tuning_cost_csr_equivalents:.1f} "
          "CSR-SpMV equivalents")
    print(f"speedup vs CSR over {result.repetitions} SpMVs: "
          f"{result.speedup_vs_csr:.2f}x")


if __name__ == "__main__":
    main()
