"""A lone request skips the engine queue: same answer, same books.

The serve step hands a batch of exactly one request straight to
``engine.execute`` instead of queueing it through ``submit``/``flush``.
These tests pin that the shortcut is invisible: on every available
kernel backend, for every serving format, in process and on a
one-worker distributed tier, a lone request matches bit for bit

* ``engine.execute`` on the same operand as an ``(ncols, 1)`` block,
* the queued ``submit``/``flush`` path, and
* the same operand served inside a coalesced batch,

on ``y``, ``seconds``, ``overhead_seconds``, ``from_cache``, ``format``,
``backend`` and the engine's cache counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_space
from repro.core.tuners.base import Tuner, TuningReport
from repro.distributed import DistributedService
from repro.formats import FORMAT_IDS, COOMatrix
from repro.kernels import available_backends
from repro.machine import CostModel
from repro.runtime.engine import WorkloadEngine
from repro.service import TuningService

from tests.conftest import ALL_FORMATS

FIELDS = ("seconds", "overhead_seconds", "from_cache", "format", "backend")


class _KeyedFormatTuner(Tuner):
    """Serves key ``"<anything>-<FMT>"`` in ``FMT``, at a fixed charge."""

    def tune(self, matrix, space, *, stats=None, matrix_key=""):
        return TuningReport(
            format_id=FORMAT_IDS[matrix_key.rsplit("-", 1)[1]],
            t_prediction=1e-6,
            backend=space.kernel_backend,
        )


def _deferred(base):
    """*base* with drains recorded, then run on demand: exact batches."""

    class Deferred(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.deferred = []

        def _schedule(self, fp):
            self.deferred.append(fp)

        def drain_all(self):
            while self.deferred:
                self._drain(self.deferred.pop(0))

    return Deferred


def _build(tier, space, backend):
    if tier == "inproc":
        return _deferred(TuningService)(
            space, _KeyedFormatTuner(), workers=1, kernel_backend=backend
        )
    return _deferred(DistributedService)(
        space,
        _KeyedFormatTuner(),
        workers=1,
        kernel_backend=backend,
        heartbeat_interval=0.05,
    )


def _serve(service, matrix, operands, key, **kwargs):
    """Submit *operands* as one batch and return their results."""
    futures = [service.submit(matrix, x, key=key, **kwargs) for x in operands]
    service.drain_all()
    return [f.result(timeout=10) for f in futures]


def _assert_same(served, reference):
    """Equal results; a 1-D result matches the first column of a block."""
    y = reference.y
    if served.y.ndim < y.ndim:
        y = y[:, 0]
    assert np.array_equal(served.y, y)
    for name in FIELDS:
        assert getattr(served, name) == getattr(reference, name), name


@pytest.fixture
def space():
    return make_space("cirrus", "serial", cost_model=CostModel(noise_sigma=0.0))


@pytest.fixture
def matrix(dense_medium):
    return COOMatrix.from_dense(dense_medium)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("tier", ["inproc", "distributed"])
def test_lone_request_matches_block_queue_and_batch(
    tier, backend, space, matrix
):
    gen = np.random.default_rng(11)
    references = []
    with _build(tier, space, backend) as service:
        for fmt in ALL_FORMATS:
            key = f"lone-{fmt}"
            block_ref = WorkloadEngine(
                space, _KeyedFormatTuner(), kernel_backend=backend
            )
            queue_ref = WorkloadEngine(
                space, _KeyedFormatTuner(), kernel_backend=backend
            )
            references.append(block_ref)
            xs = [gen.standard_normal(matrix.ncols) for _ in range(3)]
            lone_ys = []
            # first request pays tune + convert, the second hits the cache
            for x in xs[:2]:
                (lone,) = _serve(service, matrix, [x], key)
                lone_ys.append(lone.y)
                assert lone.batch_size == 1
                assert lone.format == fmt
                _assert_same(
                    lone, block_ref.execute(matrix, x[:, None], key=key)
                )
                queue_ref.submit(matrix, x, key=key)
                _assert_same(lone, queue_ref.flush()[0])
            assert queue_ref.counters.as_dict() == block_ref.counters.as_dict()
            # the first lone operand again, as one column of a batch
            batch = _serve(service, matrix, [xs[2], xs[0], xs[1]], key)
            assert [r.batch_size for r in batch] == [3, 3, 3]
            assert np.array_equal(batch[1].y, lone_ys[0])
            assert np.array_equal(batch[2].y, lone_ys[1])
            block_ref.execute(
                matrix, np.stack([xs[2], xs[0], xs[1]], axis=1), key=key
            )
        served = service.stats()["engines"]
    expected = {}
    for engine in references:
        for name, value in engine.counters.as_dict().items():
            expected[name] = expected.get(name, 0) + value
    assert served["counters"] == expected
    assert served["requests_served"] == sum(
        engine.requests_served for engine in references
    )


@pytest.mark.parametrize("tier", ["inproc", "distributed"])
def test_lone_repeated_and_block_requests_keep_their_accounting(
    tier, space, matrix
):
    """Any lone request — repeated or 2-D — takes the same shortcut."""
    gen = np.random.default_rng(5)
    x = gen.standard_normal(matrix.ncols)
    X = gen.standard_normal((matrix.ncols, 4))
    reference = WorkloadEngine(space, _KeyedFormatTuner())
    with _build(tier, space, None) as service:
        (repeated,) = _serve(service, matrix, [x], "rep-CSR", repetitions=10)
        (block,) = _serve(service, matrix, [X], "rep-CSR")
        served = service.stats()["engines"]
    _assert_same(
        repeated, reference.execute(matrix, x, key="rep-CSR", repetitions=10)
    )
    _assert_same(block, reference.execute(matrix, X, key="rep-CSR"))
    assert served["counters"] == reference.counters.as_dict()
