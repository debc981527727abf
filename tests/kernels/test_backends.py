"""Backend capability registry: probe, preference, masking, warm-up.

These tests pin the *semantics* of the dispatch layer — what is
registered, in which order it resolves, and how masking/fallback behave
— independently of which compiled backends the host actually carries.
Every assertion holds both on a bare host (numpy only) and on a host
where the native C tier builds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import BackendError, FormatError
from repro.kernels import (
    PREFERENCE,
    available_backends,
    backend_info,
    check_kernel_backend,
    default_backend,
    is_available,
    modelled_speedup,
    only_backends,
    probe_backends,
    require_backend,
)
from repro.runtime.registry import REGISTRY, KernelRegistry

from tests.conftest import ALL_FORMATS


# ----------------------------------------------------------------------
# probe + naming
# ----------------------------------------------------------------------


def test_preference_covers_all_probed_backends():
    probed = probe_backends()
    assert set(probed) == set(PREFERENCE)
    # compiled generations (2) sit above the reference tier (1)
    gens = {name: info.generation for name, info in probed.items()}
    assert gens["native"] > gens["numpy"]


def test_numpy_reference_tier_always_available():
    info = backend_info("numpy")
    assert info.available
    assert not info.compiled
    assert is_available("numpy")
    # numpy is unmaskable: even an empty allowlist keeps it served
    with only_backends():
        assert available_backends() == ("numpy",)


def test_check_kernel_backend_normalises_and_rejects():
    assert check_kernel_backend(" Native ") == "native"
    assert check_kernel_backend("NUMPY") == "numpy"
    with pytest.raises(BackendError):
        check_kernel_backend("cuda")


def test_default_backend_is_available_and_preferred():
    kb = default_backend()
    assert kb in available_backends()
    # default is the first available backend in preference order
    for candidate in PREFERENCE:
        if candidate in available_backends():
            assert kb == candidate
            break


def test_require_backend_raises_with_probe_detail(monkeypatch):
    import repro.kernels as kernels

    # force the compiler-less probe outcome, whatever this host carries
    probed = probe_backends()
    failed = dataclasses.replace(
        probed["native"], available=False, detail="no C compiler found"
    )
    monkeypatch.setattr(kernels, "_probed", {**probed, "native": failed})
    with pytest.raises(BackendError) as exc:
        require_backend("native")
    assert backend_info("native").detail in str(exc.value)


def test_modelled_costs_are_sane():
    for fmt in ALL_FORMATS:
        assert modelled_speedup("numpy", fmt) == 1.0
        assert modelled_speedup("native", fmt) > 1.0


# ----------------------------------------------------------------------
# registry resolution semantics
# ----------------------------------------------------------------------


def test_registry_carries_full_numpy_surface():
    for op in ("spmv", "spmm"):
        for fmt in ALL_FORMATS:
            assert REGISTRY.has(op, fmt, "numpy")
            assert "numpy" in REGISTRY.backends(op, fmt)
    assert set(REGISTRY.formats("spmv")) >= set(ALL_FORMATS)


def test_registry_get_without_backend_prefers_reference_tier():
    """Lookups without a backend serve the numpy kernel.

    Compiled tiers are opt-in (explicit name or ``auto``); callers that
    name no backend keep bitwise-identical numpy behaviour even on hosts
    where a faster backend is available.
    """
    kernel = REGISTRY.get("spmv", "CSR")
    assert kernel is REGISTRY.get("spmv", "CSR", "numpy")
    _, actual = REGISTRY.resolve("spmv", "CSR")
    assert actual == "numpy"


def test_registry_get_explicit_backend_never_falls_back():
    registry = KernelRegistry()

    @registry.register("spmv", "CSR", backend="numpy")
    def _ref(matrix, x):  # pragma: no cover - never called
        return x

    with pytest.raises(FormatError):
        registry.get("spmv", "CSR", "native")
    # while resolve() on the same registry degrades cleanly
    kernel, actual = registry.resolve("spmv", "CSR", "native")
    assert kernel is _ref and actual == "numpy"


def test_registry_resolve_promotes_requested_backend():
    for kb in available_backends():
        if not REGISTRY.has("spmv", "CSR", kb):
            continue
        _, actual = REGISTRY.resolve("spmv", "CSR", kb)
        assert actual == kb


def test_registry_resolve_masked_backend_falls_back_to_numpy():
    with only_backends():
        kernel, actual = REGISTRY.resolve("spmv", "CSR", "native")
        assert actual == "numpy"
        assert kernel is REGISTRY.get("spmv", "CSR", "numpy")


def test_registry_rejects_unknown_backend_names():
    with pytest.raises(BackendError):
        REGISTRY.get("spmv", "CSR", "opencl")
    with pytest.raises(FormatError):
        REGISTRY.get("spmv", "BSR")  # no such format registered


# ----------------------------------------------------------------------
# warm-up accounting
# ----------------------------------------------------------------------


def test_warmup_is_idempotent_per_process():
    registry = KernelRegistry()
    calls = []

    @registry.register("spmv", "COO", backend="numpy")
    def _counting(matrix, x):
        calls.append(1)
        return np.zeros(matrix.nrows)

    assert not registry.is_warm("spmv", "COO", "numpy")
    first = registry.warmup("spmv", "COO", "numpy")
    assert first >= 0.0
    assert registry.is_warm("spmv", "COO", "numpy")
    assert len(calls) == 1
    # second warm-up is free and does not re-run the kernel
    assert registry.warmup("spmv", "COO", "numpy") == 0.0
    assert len(calls) == 1


def test_warmup_of_unregistered_triple_is_free():
    registry = KernelRegistry()
    assert registry.warmup("spmv", "CSR", "native") == 0.0
    assert registry.is_warm("spmv", "CSR", "native")
