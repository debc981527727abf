"""The kernel tier and the dispatch table it registers.

``repro.kernels`` reports one tier, ``numpy``: the benchmark records
its probe, and every served result carries its name.  The registry
carries that tier's kernel for every (operation, paper format) pair.
"""

from __future__ import annotations

from repro.kernels import available_backends, default_backend, probe_backends
from repro.runtime.registry import REGISTRY

from tests.conftest import ALL_FORMATS


def test_numpy_reference_tier_always_available():
    assert available_backends() == ("numpy",)
    assert set(probe_backends()) == {"numpy"}
    assert probe_backends()["numpy"]


def test_default_backend_is_available_and_preferred():
    assert default_backend() == "numpy"
    assert default_backend() in available_backends()


def test_registry_carries_full_numpy_surface():
    for op in ("spmv", "spmm"):
        for fmt in ALL_FORMATS:
            assert REGISTRY.has(op, fmt)
    assert set(REGISTRY.formats("spmv")) >= set(ALL_FORMATS)
