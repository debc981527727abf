"""The kernels behind the dispatch layer: one tier, ``numpy``.

:mod:`repro.kernels.numpy` holds the vectorised NumPy reference kernels,
one per (operation, format), which the dispatch table
(:mod:`repro.runtime.registry`) registers.  They define the reference
semantics and serve when scipy is absent.  With scipy importable, the
batch dispatch (:mod:`repro.runtime.batch`) runs scipy's own compiled
CSR, DIA and COO kernels on those containers' own arrays, with the same
bits.  Each served result names the kernel that ran it: ``scipy.csr``,
``scipy.dia`` or ``scipy.coo``, or ``numpy`` for the reference
(:data:`repro.runtime.batch.SERVING`; an ELL, HYB or HDC decision is
served by a CSR container).

The tier is distinct from the **modelled** backend axis of
:class:`repro.backends.base.ExecutionSpace` (``serial``/``openmp``/
``cuda``/``hip``), which simulates the paper's hardware zoo through the
roofline cost model: a space models *where* the paper ran, the kernels
here produce the numbers on this host.

See ``docs/backends.md``.
"""

from __future__ import annotations

import importlib.util
from typing import Dict, Tuple

__all__ = [
    "BACKEND",
    "available_backends",
    "default_backend",
    "gpu_backend_available",
    "probe_backends",
]

#: The reference tier's name, and the kernel name of every served
#: result when scipy is absent.
BACKEND = "numpy"


def probe_backends() -> Dict[str, str]:
    """The kernel tiers on this host, each with what serves behind it."""
    return {
        BACKEND: "vectorised NumPy reference; scipy's CSR, DIA and COO "
        "kernels on their own arrays serve when scipy is importable"
    }


def available_backends() -> Tuple[str, ...]:
    """Names of the usable kernel tiers: ``("numpy",)``."""
    return (BACKEND,)


def default_backend() -> str:
    """The kernel tier that serves: ``"numpy"``."""
    return BACKEND


def gpu_backend_available() -> bool:
    """True when a device-resident GPU kernel tier could be registered.

    The registry carries CPU kernels only; the GPU execution spaces
    (cuda/hip) are *modelled* through the cost model, not executed on a
    device.  A real GPU tier needs CuPy, so this probes for an
    importable ``cupy`` — benchmarks asserting on-device behaviour call
    it to skip cleanly on CPU-only hosts.
    """
    return importlib.util.find_spec("cupy") is not None
