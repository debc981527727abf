"""Build and load the native C kernel library via the system compiler.

The C source below is embedded so the backend has no packaging footprint:
on first probe it is written to a content-addressed cache directory
(``$REPRO_NATIVE_CACHE`` or ``~/.cache/repro/native``), compiled with the
first working system compiler (``cc``/``gcc``/``clang``) as
``-O3 -shared -fPIC``, and loaded through :mod:`ctypes`.  Subsequent
processes reuse the cached shared object, so there is no per-kernel
compile — the whole library is ahead-of-time.

Every kernel takes int64 index arrays and float64 value arrays (the only
dtypes the format containers store) and is single-threaded, matching the
paper's per-core backend comparisons.  A missing compiler or a failed
build marks the backend unavailable — it never raises at import.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
from numpy.ctypeslib import ndpointer

from repro.errors import BackendError

__all__ = ["SOURCE", "load", "build_detail"]

SOURCE = r"""
#include <stdint.h>

#define EXPORT __attribute__((visibility("default")))

EXPORT void csr_spmv(int64_t nrows, const int64_t *row_ptr,
                     const int64_t *col_idx, const double *data,
                     const double *x, double *y) {
    for (int64_t i = 0; i < nrows; ++i) {
        double acc = 0.0;
        for (int64_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p)
            acc += data[p] * x[col_idx[p]];
        y[i] = acc;
    }
}

EXPORT void csr_spmm(int64_t nrows, int64_t k, const int64_t *row_ptr,
                     const int64_t *col_idx, const double *data,
                     const double *X, double *Y) {
    for (int64_t i = 0; i < nrows; ++i) {
        double *yr = Y + i * k;
        for (int64_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
            const double *xr = X + col_idx[p] * k;
            double v = data[p];
            for (int64_t j = 0; j < k; ++j)
                yr[j] += v * xr[j];
        }
    }
}

EXPORT void coo_spmv(int64_t nnz, const int64_t *row, const int64_t *col,
                     const double *data, const double *x, double *y) {
    for (int64_t p = 0; p < nnz; ++p)
        y[row[p]] += data[p] * x[col[p]];
}

EXPORT void coo_spmm(int64_t nnz, int64_t k, const int64_t *row,
                     const int64_t *col, const double *data, const double *X,
                     double *Y) {
    for (int64_t p = 0; p < nnz; ++p) {
        double *yr = Y + row[p] * k;
        const double *xr = X + col[p] * k;
        double v = data[p];
        for (int64_t j = 0; j < k; ++j)
            yr[j] += v * xr[j];
    }
}

EXPORT void ell_spmv(int64_t nrows, int64_t width, const int64_t *col_idx,
                     const double *data, const double *x, double *y) {
    for (int64_t i = 0; i < nrows; ++i) {
        const int64_t *ci = col_idx + i * width;
        const double *dr = data + i * width;
        double acc = 0.0;
        for (int64_t s = 0; s < width; ++s) {
            int64_t c = ci[s];
            if (c >= 0)
                acc += dr[s] * x[c];
        }
        y[i] = acc;
    }
}

EXPORT void ell_spmm(int64_t nrows, int64_t width, int64_t k,
                     const int64_t *col_idx, const double *data,
                     const double *X, double *Y) {
    for (int64_t i = 0; i < nrows; ++i) {
        const int64_t *ci = col_idx + i * width;
        const double *dr = data + i * width;
        double *yr = Y + i * k;
        for (int64_t s = 0; s < width; ++s) {
            int64_t c = ci[s];
            if (c >= 0) {
                const double *xr = X + c * k;
                double v = dr[s];
                for (int64_t j = 0; j < k; ++j)
                    yr[j] += v * xr[j];
            }
        }
    }
}

EXPORT void dia_spmv(int64_t nrows, int64_t ncols, int64_t ndiags,
                     const int64_t *offsets, const double *data,
                     const double *x, double *y) {
    for (int64_t d = 0; d < ndiags; ++d) {
        int64_t off = offsets[d];
        int64_t j_lo = off > 0 ? off : 0;
        int64_t j_hi = nrows + off < ncols ? nrows + off : ncols;
        const double *dr = data + d * ncols;
        for (int64_t j = j_lo; j < j_hi; ++j)
            y[j - off] += dr[j] * x[j];
    }
}

EXPORT void dia_spmm(int64_t nrows, int64_t ncols, int64_t ndiags, int64_t k,
                     const int64_t *offsets, const double *data,
                     const double *X, double *Y) {
    for (int64_t d = 0; d < ndiags; ++d) {
        int64_t off = offsets[d];
        int64_t j_lo = off > 0 ? off : 0;
        int64_t j_hi = nrows + off < ncols ? nrows + off : ncols;
        const double *dr = data + d * ncols;
        for (int64_t j = j_lo; j < j_hi; ++j) {
            double *yr = Y + (j - off) * k;
            const double *xr = X + j * k;
            double v = dr[j];
            for (int64_t c = 0; c < k; ++c)
                yr[c] += v * xr[c];
        }
    }
}
"""

_I64 = ctypes.c_int64
_PI64 = ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_PF64 = ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")

_SIGNATURES = {
    "csr_spmv": (_I64, _PI64, _PI64, _PF64, _PF64, _PF64),
    "csr_spmm": (_I64, _I64, _PI64, _PI64, _PF64, _PF64, _PF64),
    "coo_spmv": (_I64, _PI64, _PI64, _PF64, _PF64, _PF64),
    "coo_spmm": (_I64, _I64, _PI64, _PI64, _PF64, _PF64, _PF64),
    "ell_spmv": (_I64, _I64, _PI64, _PF64, _PF64, _PF64),
    "ell_spmm": (_I64, _I64, _I64, _PI64, _PF64, _PF64, _PF64),
    "dia_spmv": (_I64, _I64, _I64, _PI64, _PF64, _PF64, _PF64),
    "dia_spmm": (_I64, _I64, _I64, _I64, _PI64, _PF64, _PF64, _PF64),
}

_lib: Optional[ctypes.CDLL] = None
_detail: str = "not probed"


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE", "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "native"


def _compile(compiler: str, cache: Path, digest: str) -> Path:
    so_path = cache / f"libreprokernels-{digest}.so"
    if so_path.exists():
        return so_path
    cache.mkdir(parents=True, exist_ok=True)
    c_path = cache / f"reprokernels-{digest}.c"
    c_path.write_text(SOURCE)
    # compile to a temp name, then atomically rename: concurrent probes
    # in sibling processes must never load a half-written library
    fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, "-O3", "-shared", "-fPIC", "-o", tmp_name,
             str(c_path), "-lm"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BackendError(
                f"native kernel build failed ({compiler}): "
                f"{proc.stderr.strip()[:500]}"
            )
        os.replace(tmp_name, so_path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return so_path


def load(*, refresh: bool = False) -> ctypes.CDLL:
    """Compile (once, cached on disk) and load the native kernel library.

    Raises :class:`~repro.errors.BackendError` when no compiler is found
    or the build/load fails; the capability probe turns that into an
    "unavailable" entry rather than propagating.
    """
    global _lib, _detail
    if _lib is not None and not refresh:
        return _lib
    compiler = _find_compiler()
    if compiler is None:
        _detail = "no C compiler on PATH (tried cc, gcc, clang)"
        raise BackendError(_detail)
    digest = hashlib.sha256(
        (SOURCE + compiler).encode()
    ).hexdigest()[:16]
    try:
        so_path = _compile(compiler, _cache_dir(), digest)
        lib = ctypes.CDLL(str(so_path))
    except BackendError:
        raise
    except Exception as exc:  # OSError from CDLL, mkdir failures, ...
        _detail = f"native kernel library unusable: {exc}"
        raise BackendError(_detail) from exc
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    _lib = lib
    _detail = f"{os.path.basename(compiler)} -O3 via ctypes ({so_path.name})"
    return lib


def build_detail() -> str:
    """Human-readable outcome of the last :func:`load` attempt."""
    return _detail
