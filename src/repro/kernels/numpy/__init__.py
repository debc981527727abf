"""The ``numpy`` kernel tier: the vectorised NumPy reference kernels.

Pure-NumPy vectorised kernels (:mod:`repro.kernels.numpy.kernels`) plus
the container adapters :func:`register` puts on a kernel registry.  These
kernels define the reference semantics: scipy's compiled kernels, which
serve when scipy is importable, must give output equal to them (bitwise
on integer-valued data, where summation order cannot change the result).

The HYB/HDC adapters compose through the *registry*, so a caller that
overrides e.g. the ``("spmv", "ELL")`` entry improves HYB automatically.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.numpy.kernels import (  # noqa: F401  (re-exported API)
    coo_spmm,
    coo_spmv,
    csr_spmm,
    csr_spmv,
    dia_spmm,
    dia_spmv,
    ell_spmm,
    ell_spmv,
    hdc_spmv,
    hyb_spmv,
)

__all__ = [
    "register",
    "coo_spmv",
    "csr_spmv",
    "dia_spmv",
    "ell_spmv",
    "hyb_spmv",
    "hdc_spmv",
    "coo_spmm",
    "csr_spmm",
    "dia_spmm",
    "ell_spmm",
]


def register(registry) -> None:
    """Register the NumPy container adapters on *registry*."""

    @registry.register("spmv", "COO")
    def _coo_spmv(m, x: np.ndarray) -> np.ndarray:
        return coo_spmv(m.nrows, m.row, m.col, m.data, x)

    @registry.register("spmv", "CSR")
    def _csr_spmv(m, x: np.ndarray) -> np.ndarray:
        return csr_spmv(m.row_ptr, m.col_idx, m.data, x)

    @registry.register("spmv", "DIA")
    def _dia_spmv(m, x: np.ndarray) -> np.ndarray:
        return dia_spmv(m.nrows, m.ncols, m.offsets, m.data, x)

    @registry.register("spmv", "ELL")
    def _ell_spmv(m, x: np.ndarray) -> np.ndarray:
        return ell_spmv(m.col_idx, m.data, x, valid=m._valid)

    @registry.register("spmv", "HYB")
    def _hyb_spmv(m, x: np.ndarray) -> np.ndarray:
        y = registry.get("spmv", "ELL")(m.ell, x)
        if m.coo.nnz:
            y = y + registry.get("spmv", "COO")(m.coo, x)
        return y

    @registry.register("spmv", "HDC")
    def _hdc_spmv(m, x: np.ndarray) -> np.ndarray:
        return registry.get("spmv", "DIA")(m.dia, x) + registry.get(
            "spmv", "CSR")(m.csr, x)

    @registry.register("spmm", "COO")
    def _coo_spmm(m, X: np.ndarray) -> np.ndarray:
        return coo_spmm(m.nrows, m.row, m.col, m.data, X)

    @registry.register("spmm", "CSR")
    def _csr_spmm(m, X: np.ndarray) -> np.ndarray:
        return csr_spmm(m.row_ptr, m.col_idx, m.data, X)

    @registry.register("spmm", "DIA")
    def _dia_spmm(m, X: np.ndarray) -> np.ndarray:
        return dia_spmm(m.nrows, m.ncols, m.offsets, m.data, X)

    @registry.register("spmm", "ELL")
    def _ell_spmm(m, X: np.ndarray) -> np.ndarray:
        return ell_spmm(m.col_idx, m.data, X, valid=m._valid)

    @registry.register("spmm", "HYB")
    def _hyb_spmm(m, X: np.ndarray) -> np.ndarray:
        Y = registry.get("spmm", "ELL")(m.ell, X)
        if m.coo.nnz:
            Y = Y + registry.get("spmm", "COO")(m.coo, X)
        return Y

    @registry.register("spmm", "HDC")
    def _hdc_spmm(m, X: np.ndarray) -> np.ndarray:
        return registry.get("spmm", "DIA")(m.dia, X) + registry.get(
            "spmm", "CSR")(m.csr, X)
