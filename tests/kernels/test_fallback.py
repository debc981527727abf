"""Forced-fallback paths: the host without a compiled kernel tier.

The container running CI may or may not carry a C compiler, so these
tests *force* the degraded configuration instead of hoping for it:
masking via :func:`repro.kernels.only_backends` and via the
``REPRO_KERNEL_BACKENDS`` environment allowlist (read at every query, so
a plain monkeypatch is enough).  Under either mask the whole stack —
registry resolution, the workload engine, the tuning service — must
degrade to the numpy reference tier *observably* (the ``backend`` stamp
says so) and *silently correctly* (outputs bitwise match the unmasked
numpy path).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_space
from repro.core.tuners import RunFirstTuner
from repro.errors import BackendError
from repro.formats import COOMatrix, convert
from repro.kernels import (
    ENV_ALLOWLIST,
    available_backends,
    default_backend,
    enabled_backends,
    only_backends,
    set_enabled_backends,
)
from repro.machine.cost_model import CostModel
from repro.runtime.engine import WorkloadEngine
from repro.runtime.registry import REGISTRY


@pytest.fixture
def int_matrix(rng) -> COOMatrix:
    dense = (rng.random((40, 40)) < 0.2) * 1.0
    dense *= rng.integers(1, 8, (40, 40)).astype(np.float64)
    dense[np.arange(40), np.arange(40)] = 3.0
    return COOMatrix.from_dense(dense)


def test_only_backends_masks_every_compiled_tier():
    with only_backends():
        assert available_backends() == ("numpy",)
        assert default_backend() == "numpy"
        _, actual = REGISTRY.resolve("spmv", "CSR", "native")
        assert actual == "numpy"
    # the mask is scoped: leaving the context restores the host's tiers
    assert "numpy" in available_backends()


def test_env_allowlist_masks_compiled_tiers(monkeypatch):
    monkeypatch.setenv(ENV_ALLOWLIST, "numpy")
    assert available_backends() == ("numpy",)
    assert default_backend() == "numpy"
    _, actual = REGISTRY.resolve("spmv", "ELL", "native")
    assert actual == "numpy"


def test_env_allowlist_cannot_mask_numpy(monkeypatch):
    # the reference tier is terminal: an allowlist without it still serves
    monkeypatch.setenv(ENV_ALLOWLIST, "native")
    assert "numpy" in available_backends()
    _, actual = REGISTRY.resolve("spmv", "CSR")
    assert actual == "numpy"


def test_env_allowlist_rejects_unknown_names(monkeypatch):
    """A stale name must fail loudly, not silently mask every compiled tier."""
    monkeypatch.setenv(ENV_ALLOWLIST, "native,numba")
    with pytest.raises(BackendError, match="numba"):
        available_backends()
    # the same contract as the in-process override
    with pytest.raises(BackendError):
        set_enabled_backends(["numba"])


def test_set_enabled_backends_roundtrip():
    before = enabled_backends()
    try:
        set_enabled_backends(["numpy"])
        assert enabled_backends() == ("numpy",)
        assert available_backends() == ("numpy",)
    finally:
        set_enabled_backends(None)
    assert enabled_backends() == before


def test_native_request_degrades_cleanly(int_matrix):
    """An explicit native request serves correctly on any host.

    Without a C compiler resolution falls back to numpy; with one it
    promotes native — so the assertion is on correctness and on the
    stamp being an actually-available backend, not on which one won.
    """
    m = convert(int_matrix, "CSR")
    x = np.arange(1.0, 41.0)
    kernel, actual = REGISTRY.resolve("spmv", "CSR", "native")
    assert actual in available_backends()
    assert np.array_equal(kernel(m, x), REGISTRY.get("spmv", "CSR", "numpy")(m, x))


def test_engine_pin_degrades_to_numpy_under_mask(int_matrix):
    """An engine pinned to a compiled tier serves numpy when masked.

    The degradation is observable: ``EngineResult.backend`` and the
    per-backend attribution in ``stats()`` both report the tier that
    actually executed, and no warm-up is charged for the reference tier.
    """
    x = np.arange(1.0, 41.0)
    space = make_space("cirrus", "serial", cost_model=CostModel(noise_sigma=0.0))
    with only_backends():
        eng = WorkloadEngine(
            space, tuner=RunFirstTuner(), kernel_backend="native"
        )
        result = eng.execute(int_matrix, x, key="masked")
        assert result.backend == "numpy"
        assert np.array_equal(result.y, int_matrix.spmv(x))
        stats = eng.stats()
        assert set(stats["backends"]) == {"numpy"}
        assert stats["warmups"] == 0
        assert eng.seconds["warmup"] == 0.0


def test_engine_auto_matches_numpy_bitwise(int_matrix):
    """``auto`` serves whatever tier the host has — output identical."""
    x = np.arange(1.0, 41.0)
    space = make_space("cirrus", "serial", cost_model=CostModel(noise_sigma=0.0))
    eng = WorkloadEngine(space, tuner=RunFirstTuner(), kernel_backend="auto")
    result = eng.execute(int_matrix, x, key="auto")
    assert result.backend == default_backend()
    assert np.array_equal(result.y, int_matrix.spmv(x))
    if result.backend != "numpy":
        # the serving path guarantees the triple is warm afterwards;
        # the warm-up itself may have been paid by an earlier test in
        # this process (the registry's warmed set is process-global)
        assert REGISTRY.is_warm("spmv", result.format, result.backend)


def test_service_stats_attribute_numpy_under_mask(int_matrix):
    from repro.service import TuningService

    space = make_space("cirrus", "serial", cost_model=CostModel(noise_sigma=0.0))
    with only_backends():
        with TuningService(
            space, RunFirstTuner(), workers=1, kernel_backend="auto"
        ) as svc:
            res = svc.spmv(int_matrix, np.ones(40), key="masked-svc")
            assert res.backend == "numpy"
            stats = svc.stats()
            assert set(stats["backends"]) == {"numpy"}
