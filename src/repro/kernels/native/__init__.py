"""The ``native`` kernel backend — generation 2, ahead-of-time C.

A small C99 kernel library compiled on first probe with the system
compiler and bound through :mod:`ctypes`
(:mod:`repro.kernels.native.builder`).  Probed at runtime: the shared
object is built once per source digest and cached on disk, so first-touch
cost is the build (seconds) and every later process pays only a
``dlopen``.

Gate every use behind :func:`repro.kernels.probe_backends` /
:func:`repro.kernels.available_backends` — :func:`register` triggers a
compile when the cache is cold.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "GENERATION", "register"]

#: Backend identifier used in the dispatch table.
BACKEND = "native"

#: Kernel generation (2 = compiled tiers).
GENERATION = 2


def register(registry) -> None:
    """Register the native container adapters on *registry*.

    Importing the wrapper module triggers the (cached) build; callers
    must have probed the backend first.
    """
    from repro.kernels.native import kernels as k

    @registry.register("spmv", "COO", BACKEND)
    def _coo_spmv(m, x: np.ndarray) -> np.ndarray:
        return k.coo_spmv(m.nrows, m.row, m.col, m.data, x)

    @registry.register("spmv", "CSR", BACKEND)
    def _csr_spmv(m, x: np.ndarray) -> np.ndarray:
        return k.csr_spmv(m.row_ptr, m.col_idx, m.data, x)

    @registry.register("spmv", "DIA", BACKEND)
    def _dia_spmv(m, x: np.ndarray) -> np.ndarray:
        return k.dia_spmv(m.nrows, m.ncols, m.offsets, m.data, x)

    @registry.register("spmv", "ELL", BACKEND)
    def _ell_spmv(m, x: np.ndarray) -> np.ndarray:
        return k.ell_spmv(m.col_idx, m.data, x)

    @registry.register("spmv", "HYB", BACKEND)
    def _hyb_spmv(m, x: np.ndarray) -> np.ndarray:
        y = k.ell_spmv(m.ell.col_idx, m.ell.data, x)
        if m.coo.nnz:
            y = y + k.coo_spmv(m.nrows, m.coo.row, m.coo.col, m.coo.data, x)
        return y

    @registry.register("spmv", "HDC", BACKEND)
    def _hdc_spmv(m, x: np.ndarray) -> np.ndarray:
        return k.dia_spmv(
            m.nrows, m.ncols, m.dia.offsets, m.dia.data, x
        ) + k.csr_spmv(m.csr.row_ptr, m.csr.col_idx, m.csr.data, x)

    @registry.register("spmm", "COO", BACKEND)
    def _coo_spmm(m, X: np.ndarray) -> np.ndarray:
        return k.coo_spmm(m.nrows, m.row, m.col, m.data, X)

    @registry.register("spmm", "CSR", BACKEND)
    def _csr_spmm(m, X: np.ndarray) -> np.ndarray:
        return k.csr_spmm(m.row_ptr, m.col_idx, m.data, X)

    @registry.register("spmm", "DIA", BACKEND)
    def _dia_spmm(m, X: np.ndarray) -> np.ndarray:
        return k.dia_spmm(m.nrows, m.ncols, m.offsets, m.data, X)

    @registry.register("spmm", "ELL", BACKEND)
    def _ell_spmm(m, X: np.ndarray) -> np.ndarray:
        return k.ell_spmm(m.col_idx, m.data, X)

    @registry.register("spmm", "HYB", BACKEND)
    def _hyb_spmm(m, X: np.ndarray) -> np.ndarray:
        Y = k.ell_spmm(m.ell.col_idx, m.ell.data, X)
        if m.coo.nnz:
            Y = Y + k.coo_spmm(m.nrows, m.coo.row, m.coo.col, m.coo.data, X)
        return Y

    @registry.register("spmm", "HDC", BACKEND)
    def _hdc_spmm(m, X: np.ndarray) -> np.ndarray:
        return k.dia_spmm(
            m.nrows, m.ncols, m.dia.offsets, m.dia.data, X
        ) + k.csr_spmm(m.csr.row_ptr, m.csr.col_idx, m.csr.data, X)
