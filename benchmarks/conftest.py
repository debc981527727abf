"""Shared fixtures for the experiment benchmarks.

Every paper table/figure has one ``bench_*.py`` regenerator.  The heavy
shared work — corpus generation, profiling runs, the 80/20 split — happens
once per session here.  Scale knobs:

``REPRO_BENCH_MATRICES``
    Corpus size (default 300; the paper uses ~2200 — set 2200 for the
    full run, it is a matter of minutes not hours).
``REPRO_BENCH_SEED``
    Master seed (default 42).

Results are also written as text tables under ``benchmarks/results/``.
"""

from __future__ import annotations

import os

import pytest

from repro.backends import available_spaces
from repro.datasets import MatrixCollection
from repro.experiments.stages import run_profile_stage
from repro.machine import CostModel

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def bench_scale() -> int:
    return int(os.environ.get("REPRO_BENCH_MATRICES", "300"))


def bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "42"))


@pytest.fixture(scope="session")
def collection() -> MatrixCollection:
    return MatrixCollection(n_matrices=bench_scale(), seed=bench_seed())


@pytest.fixture(scope="session")
def spaces():
    return available_spaces(cost_model=CostModel())


@pytest.fixture(scope="session")
def profiling(collection, spaces):
    """The paper's profiling runs: optimal format per (matrix, space)."""
    return run_profile_stage(collection, spaces)


@pytest.fixture(scope="session")
def split(collection):
    return collection.train_test_split()


def write_result(name: str, text: str) -> str:
    """Persist a rendered table under benchmarks/results/ and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("\n" + text)
    return path
