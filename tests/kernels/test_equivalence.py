"""Bitwise equivalence: the served kernels against the NumPy reference.

For every ``(operation, format)`` pair, the path the batch dispatch
serves (:func:`repro.runtime.batch.dispatch`: scipy's own DIA and COO
kernels, the compiled CSR image otherwise) must produce output *bitwise
identical* (``np.array_equal``, not allclose) to the registry's NumPy
reference kernel.  All fixtures carry integer-valued float64 data, so
sums are exact (well below ``2**53``) and accumulation order cannot leak
into the result — any mismatch is a real kernel bug, not rounding.

The adversarial fixtures cover the shapes that break naive traversals:
empty rows and columns, a single row, a single column, duplicate COO
triplets, and magnitude/sign dtype edges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import COOMatrix, convert
from repro.runtime.batch import dispatch
from repro.runtime.registry import REGISTRY

from tests.conftest import ALL_FORMATS


def _int_valued(rng: np.random.Generator, n: int, *, lo=-4, hi=9) -> np.ndarray:
    vals = rng.integers(lo, hi, n).astype(np.float64)
    vals[vals == 0.0] = 1.0  # keep every stored entry an explicit nonzero
    return vals


def _matrix(name: str) -> COOMatrix:
    """Adversarial integer-valued matrices, by scenario name."""
    rng = np.random.default_rng(42)
    if name == "generic_banded":
        n = 48
        row = np.repeat(np.arange(n), 3)
        col = np.clip(row.reshape(n, 3) + np.array([-1, 0, 1]), 0, n - 1).ravel()
        return COOMatrix(n, n, row, col.astype(np.intp), _int_valued(rng, 3 * n))
    if name == "empty_rows_and_cols":
        # rows 0, 7, 24 and columns 3, 29 carry no entries at all
        dense = (rng.random((25, 30)) < 0.25) * _int_valued(rng, 25 * 30).reshape(25, 30)
        dense[[0, 7, 24], :] = 0.0
        dense[:, [3, 29]] = 0.0
        dense[1, 1] = 5.0  # keep the matrix non-empty
        return COOMatrix.from_dense(dense)
    if name == "single_row":
        return COOMatrix(1, 40, np.zeros(12, dtype=np.intp),
                         np.arange(0, 36, 3, dtype=np.intp), _int_valued(rng, 12))
    if name == "single_col":
        return COOMatrix(40, 1, np.arange(0, 36, 3, dtype=np.intp),
                         np.zeros(12, dtype=np.intp), _int_valued(rng, 12))
    if name == "magnitude_edges":
        # large exact magnitudes + sign flips: sums stay far below 2**53
        n = 30
        dense = (rng.random((n, n)) < 0.3) * 1.0
        dense *= rng.choice([-1.0, 1.0], (n, n)) * (2.0 ** 30)
        dense[0, 0] = 2.0 ** 40
        return COOMatrix.from_dense(dense)
    raise AssertionError(name)


SCENARIOS = [
    "generic_banded",
    "empty_rows_and_cols",
    "single_row",
    "single_col",
    "magnitude_edges",
]

def _operand(op: str, ncols: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    if op == "spmm":
        return rng.integers(-3, 6, (ncols, 3)).astype(np.float64)
    return rng.integers(-3, 6, ncols).astype(np.float64)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("op", sorted(REGISTRY.operations()))
def test_backends_bitwise_match_numpy(op, fmt, scenario):
    m = convert(_matrix(scenario), fmt)
    operand = _operand(op, m.ncols)
    reference = REGISTRY.get(op, fmt)(m, operand)
    # the reference itself must agree with the dense ground truth
    dense = m.to_coo().to_dense() if hasattr(m, "to_coo") else m.to_dense()
    np.testing.assert_array_equal(reference, dense @ operand)
    result = dispatch(m, operand)
    assert result.dtype == reference.dtype
    assert np.array_equal(result, reference), (
        f"served {op} on {fmt} ({scenario}) diverges from the numpy "
        f"reference on integer-valued data"
    )


@pytest.mark.parametrize("op", sorted(REGISTRY.operations()))
def test_duplicate_coo_triplets_accumulate_identically(op):
    """Raw (non-canonical) COO triplet streams: duplicates must sum.

    ``convert`` assumes canonical input, so this is a COO-format-only
    test: the triplet container is built with ``canonical=True`` to
    bypass normalisation and feed each kernel genuinely duplicated
    coordinates, including a triple-duplicated entry.
    """
    row = np.array([0, 2, 2, 2, 1, 0, 3], dtype=np.intp)
    col = np.array([1, 3, 3, 3, 0, 1, 2], dtype=np.intp)
    data = np.array([2.0, 5.0, -1.0, 4.0, 3.0, 7.0, 1.0])
    m = COOMatrix(4, 4, row, col, data, canonical=True)
    operand = _operand(op, 4)
    dense = np.zeros((4, 4))
    np.add.at(dense, (row, col), data)

    reference = REGISTRY.get(op, "COO")(m, operand)
    np.testing.assert_array_equal(reference, dense @ operand)
    assert np.array_equal(dispatch(m, operand), reference), (
        f"served {op} on duplicated COO triplets diverges from numpy"
    )


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_spmm_single_column_block_matches_spmv(fmt):
    """A ``(n, 1)`` spmm block must agree elementwise with spmv, on the
    reference kernels and on the served path."""
    m = convert(_matrix("generic_banded"), fmt)
    x = _operand("spmv", m.ncols)
    for spmv, spmm in (
        (REGISTRY.get("spmv", fmt), REGISTRY.get("spmm", fmt)),
        (dispatch, dispatch),
    ):
        y = spmv(m, x)
        Y = spmm(m, x.reshape(-1, 1))
        assert Y.shape == (m.nrows, 1)
        assert np.array_equal(Y[:, 0], y)
