"""One front end, two dispatch paths: the contract both tiers share.

Every case runs against the in-process :class:`TuningService` and a
one-worker :class:`DistributedService`; both must behave the same,
failure paths included — a transient fault ends in a typed
:mod:`repro.errors` exception and leaves the fingerprint serviceable.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.core.tuners.base import Tuner
from repro.distributed import DistributedService
from repro.errors import TuningError, ValidationError
from repro.formats import COOMatrix
from repro.service import TuningService


class _FailingTuner(Tuner):
    """A tuner whose every decision fails."""

    def tune(self, matrix, space, *, stats=None, matrix_key=""):
        raise TuningError("synthetic tuner failure")


def _build(tier, space, tuner=None, **kwargs):
    if tier == "inproc":
        return TuningService(space, tuner, workers=2, **kwargs)
    return DistributedService(
        space, tuner, workers=1, heartbeat_interval=0.05, **kwargs
    )


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"condition not reached within {timeout}s")
        time.sleep(0.01)


def _events(service, kind):
    return [e for e in service.obs.events.tail(50) if e["kind"] == kind]


@pytest.fixture(params=["inproc", "distributed"])
def tier(request):
    return request.param


@pytest.fixture
def space():
    return make_space("cirrus", "serial")


@pytest.fixture
def matrix(dense_small):
    return COOMatrix.from_dense(dense_small)


def test_raising_tuner_surfaces_a_typed_error_and_frees_the_key(
    tier, space, matrix
):
    with _build(tier, space, _FailingTuner()) as service:
        for _ in range(2):  # the second request proves the key recovered
            future = service.submit(matrix, np.ones(matrix.ncols), key="K")
            with pytest.raises(TuningError, match="synthetic tuner failure"):
                future.result(timeout=10)
        events = _events(service, "serve_error")
        assert len(events) == 2
        assert events[0]["error"] == "TuningError"
        assert events[0]["request_kind"] == "spmv"
        assert events[0]["fingerprint"] == "K"


def test_negative_shadow_cadence_is_rejected(tier, space):
    with pytest.raises(ValidationError, match="shadow_every"):
        _build(tier, space, RunFirstTuner(), shadow_every=-1)


def test_submit_after_close_is_rejected(tier, space, matrix):
    service = _build(tier, space, RunFirstTuner())
    service.close()
    with pytest.raises(ValidationError, match="closed"):
        service.submit(matrix, np.ones(matrix.ncols), key="K")


def test_update_needs_a_matrix_delta(tier, space, matrix):
    with _build(tier, space, RunFirstTuner()) as service:
        with pytest.raises(ValidationError, match="MatrixDelta"):
            service.submit_update(matrix, [(0, 0, 1.0)], key="K")


def test_raising_observer_is_counted_and_reported(tier, space, matrix):
    def bad_observer(observations):
        raise RuntimeError("synthetic observer failure")

    with _build(tier, space, RunFirstTuner()) as service:
        service.set_observer(bad_observer)
        result = service.spmv(matrix, np.ones(matrix.ncols), key="K")
        assert np.array_equal(result.y, matrix.spmv(np.ones(matrix.ncols)))
        _wait_until(lambda: service.obs.observer_errors.value >= 1)
        (event,) = _events(service, "observer_error")
        assert event["error"] == "RuntimeError"
        assert event["fingerprint"] == "K"
        assert service.stats()["observer_errors"] == 1
