"""Kernel backends: side-by-side generations behind a capability probe.

This package holds every kernel implementation the dispatch layer
(:mod:`repro.runtime.registry`) can route to, one sub-package per
*kernel backend*:

========  ==========  =====================================================
backend   generation  implementation
========  ==========  =====================================================
numpy     1           vectorised NumPy — the always-available reference
native    2           ahead-of-time C via the system compiler + ctypes
========  ==========  =====================================================

A *kernel backend* is a real implementation tier executing on this host.
It is deliberately distinct from the **modelled** backend axis of
:class:`repro.backends.base.ExecutionSpace` (``serial``/``openmp``/
``cuda``/``hip``), which simulates the paper's hardware zoo through the
roofline cost model.  The two axes compose: a space models *where* the
paper ran, the kernel backend decides *which code path* produces the
numbers here.

Capability probing
------------------
:func:`probe_backends` discovers, once per process, whether the compiled
tier actually works — a C compiler present and the library building — and
:func:`available_backends` lists the usable backends in preference order
(``native``, ``numpy``).  Unavailable or masked backends are never
default choices; dispatch falls back down the preference order and always
lands on ``numpy``.

Masking
-------
Two knobs restrict the compiled tier without uninstalling anything, for
tests and CI fallback drills:

* ``REPRO_KERNEL_BACKENDS=numpy,native`` — environment allowlist, read at
  every query (unknown names raise :class:`~repro.errors.BackendError`);
* :func:`set_enabled_backends` / :func:`only_backends` — in-process
  override with the same semantics.

The ``numpy`` reference tier can never be masked.

Adding a generation
-------------------
Drop a sub-package ``repro/kernels/<name>/`` exposing ``BACKEND``,
``GENERATION`` and ``register(registry)``, add its probe to
:func:`probe_backends`, its name to :data:`PREFERENCE` and its
registration to :func:`register_default_backends`; see
``docs/backends.md`` for the walk-through (``native`` is the example).
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import BackendError

__all__ = [
    "PREFERENCE",
    "ENV_ALLOWLIST",
    "KernelBackendInfo",
    "probe_backends",
    "backend_info",
    "available_backends",
    "default_backend",
    "is_available",
    "check_kernel_backend",
    "require_backend",
    "set_enabled_backends",
    "enabled_backends",
    "only_backends",
    "gpu_backend_available",
    "modelled_speedup",
    "register_default_backends",
]

#: Resolution preference, best first.  ``numpy`` is the terminal fallback.
PREFERENCE: Tuple[str, ...] = ("native", "numpy")

#: Environment allowlist variable (comma-separated backend names).
ENV_ALLOWLIST = "REPRO_KERNEL_BACKENDS"


@dataclass(frozen=True)
class KernelBackendInfo:
    """Probe outcome for one kernel backend."""

    name: str
    generation: int
    available: bool
    compiled: bool
    detail: str


_probed: Optional[Dict[str, KernelBackendInfo]] = None
_enabled_override: Optional[Tuple[str, ...]] = None


def _probe_native() -> KernelBackendInfo:
    from repro.kernels.native import builder

    try:
        builder.load()
    except BackendError as exc:
        return KernelBackendInfo("native", 2, False, True, str(exc))
    return KernelBackendInfo("native", 2, True, True, builder.build_detail())


def probe_backends(*, refresh: bool = False) -> Dict[str, KernelBackendInfo]:
    """Probe every known backend once per process (``refresh`` re-probes)."""
    global _probed
    if _probed is None or refresh:
        _probed = {
            "numpy": KernelBackendInfo(
                "numpy", 1, True, False,
                "vectorised NumPy reference (always available)",
            ),
            "native": _probe_native(),
        }
    return dict(_probed)


def gpu_backend_available() -> bool:
    """True when a device-resident GPU kernel backend can be registered.

    The registry currently carries CPU generations only; the GPU
    execution spaces (cuda/hip) are *modelled* through the cost model,
    not executed on a device.  A real GPU tier needs CuPy, so this
    probes for an importable ``cupy`` — benchmarks asserting on-device
    behaviour call it to skip cleanly on CPU-only hosts.
    """
    return importlib.util.find_spec("cupy") is not None


def backend_info(name: str) -> KernelBackendInfo:
    """Probe outcome for one backend; raises on unknown names."""
    return probe_backends()[check_kernel_backend(name)]


def check_kernel_backend(name: str) -> str:
    """Normalise a kernel-backend name, raising on unknown ones."""
    normalised = str(name).strip().lower()
    if normalised not in PREFERENCE:
        raise BackendError(
            f"unknown kernel backend {name!r}; known: {sorted(PREFERENCE)}"
        )
    return normalised


def _env_allowlist() -> Optional[Tuple[str, ...]]:
    raw = os.environ.get(ENV_ALLOWLIST)
    if raw is None or not raw.strip():
        return None
    return tuple(
        check_kernel_backend(part) for part in raw.split(",") if part.strip()
    )


def available_backends() -> Tuple[str, ...]:
    """Usable kernel backends in preference order; ``numpy`` always last.

    A backend is usable when its probe succeeded *and* neither the
    :data:`ENV_ALLOWLIST` variable nor :func:`set_enabled_backends`
    masks it.  ``numpy`` cannot be masked.
    """
    probed = probe_backends()
    allow_env = _env_allowlist()
    allow_run = _enabled_override
    out = []
    for name in PREFERENCE:
        if not probed[name].available:
            continue
        if name != "numpy":
            if allow_env is not None and name not in allow_env:
                continue
            if allow_run is not None and name not in allow_run:
                continue
        out.append(name)
    return tuple(out)


def default_backend() -> str:
    """The best available backend (what ``kernel_backend="auto"`` picks)."""
    return available_backends()[0]


def is_available(name: str) -> bool:
    """Whether *name* is a usable (probed + unmasked) backend."""
    return check_kernel_backend(name) in available_backends()


def require_backend(name: str) -> str:
    """Normalise *name* and raise unless it is currently usable."""
    normalised = check_kernel_backend(name)
    if normalised not in available_backends():
        raise BackendError(
            f"kernel backend {normalised!r} is not available: "
            f"{probe_backends()[normalised].detail}"
        )
    return normalised


def set_enabled_backends(names: Optional[Iterable[str]]) -> None:
    """Mask compiled backends in-process (``None`` clears the mask).

    Same semantics as the :data:`ENV_ALLOWLIST` variable: only listed
    compiled backends stay usable; ``numpy`` is always usable.
    """
    global _enabled_override
    if names is None:
        _enabled_override = None
        return
    _enabled_override = tuple(check_kernel_backend(n) for n in names)


def enabled_backends() -> Optional[Tuple[str, ...]]:
    """The current in-process mask, or ``None`` when unmasked."""
    return _enabled_override


@contextlib.contextmanager
def only_backends(*names: str):
    """Context manager scoping :func:`set_enabled_backends`."""
    previous = _enabled_override
    set_enabled_backends(names)
    try:
        yield
    finally:
        set_enabled_backends(previous)


# ----------------------------------------------------------------------
# modelled costs: how the simulated-clock cost model sees the backends
# ----------------------------------------------------------------------

#: Modelled per-format speedup over the numpy reference tier on CPU
#: archetypes.  Calibrated from the bench_kernels backend table: row-loop
#: compiled kernels help most where the reference pays for masked gathers
#: and temporaries (ELL/HYB), least where NumPy already calls into C
#: (COO's bincount).
_MODELLED_SPEEDUP: Dict[str, Dict[str, float]] = {
    "native": {
        "COO": 2.5, "CSR": 5.0, "DIA": 3.0,
        "ELL": 6.0, "HYB": 5.0, "HDC": 4.0,
    },
}


def modelled_speedup(backend: str, fmt: str) -> float:
    """Modelled speedup of *backend* over numpy for *fmt* (CPU archetypes)."""
    normalised = check_kernel_backend(backend)
    return _MODELLED_SPEEDUP.get(normalised, {}).get(str(fmt).upper(), 1.0)


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------


def register_default_backends(registry) -> None:
    """Register every *probe-available* backend's kernels on *registry*.

    Masked-but-available backends are still registered — masking is a
    resolution-time filter (:func:`available_backends`), so lifting a
    mask mid-process does not require re-registration.
    """
    from repro.kernels import numpy as numpy_backend

    numpy_backend.register(registry)
    if not probe_backends()["native"].available:
        return
    from repro.kernels import native as native_backend

    try:
        native_backend.register(registry)
    except Exception as exc:  # pragma: no cover - late build breakage
        global _probed
        assert _probed is not None
        _probed["native"] = KernelBackendInfo(
            "native", 2, False, True, f"registration failed: {exc}"
        )
