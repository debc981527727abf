"""One batching rule, one engine call per batch: same answer, same books.

A drained batch is either a stacked run of plain single-vector requests
or one lone request (a block operand, a repeated request or an update),
on both tiers, and the serve step hands its one operand to
``engine.execute``.  These tests pin that: for every serving format, in
process and on a one-worker distributed tier, a lone request matches
bit for bit

* ``engine.execute`` on the same operand as an ``(ncols, 1)`` block, and
* the same operand served inside a coalesced batch,

on ``y``, ``seconds``, ``overhead_seconds``, ``from_cache``, ``format``,
``backend`` and the engine's cache counters; and a queue mixing plain,
block and repeated requests drains into the same batches, with the same
bits, on both tiers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_space
from repro.core.tuners.base import Tuner, TuningReport
from repro.distributed import DistributedService
from repro.formats import FORMAT_IDS, COOMatrix
from repro.machine import CostModel
from repro.runtime.batch import SERVING, have_accelerator
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


def _build(tier, space):
    if tier == "inproc":
        return _deferred(TuningService)(space, _KeyedFormatTuner(), workers=1)
    return _deferred(DistributedService)(
        space, _KeyedFormatTuner(), workers=1, heartbeat_interval=0.05
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


@pytest.mark.parametrize("tier", ["inproc", "distributed"])
def test_lone_request_matches_block_queue_and_batch(tier, space, matrix):
    gen = np.random.default_rng(11)
    references = []
    with _build(tier, space) as service:
        for fmt in ALL_FORMATS:
            key = f"lone-{fmt}"
            block_ref = WorkloadEngine(space, _KeyedFormatTuner())
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
            # the first lone operand again, as one column of a batch
            batch = _serve(service, matrix, [xs[2], xs[0], xs[1]], key)
            assert [r.batch_size for r in batch] == [3, 3, 3]
            assert np.array_equal(batch[1].y, lone_ys[0])
            assert np.array_equal(batch[2].y, lone_ys[1])
            block_ref.execute(
                matrix,
                np.stack([xs[2], xs[0], xs[1]], axis=1),
                key=key,
                requests=3,
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
    with _build(tier, space) as service:
        (repeated,) = _serve(service, matrix, [x], "rep-CSR", repetitions=10)
        (block,) = _serve(service, matrix, [X], "rep-CSR")
        served = service.stats()["engines"]
    _assert_same(
        repeated, reference.execute(matrix, x, key="rep-CSR", repetitions=10)
    )
    _assert_same(block, reference.execute(matrix, X, key="rep-CSR"))
    assert served["counters"] == reference.counters.as_dict()


@pytest.mark.parametrize("tier", ["inproc", "distributed"])
def test_mixed_queue_drains_by_one_rule(tier, space, matrix):
    """``[vec, vec, block, vec, vec x3]`` drains as ``[2], [1], [1], [1]``.

    The plain vectors ahead of the block stack into one batch; the
    block, the vector between it and the repeated request, and the
    repeated request are each served alone.  Both tiers cut the same
    batches and return the same bits and books.
    """
    gen = np.random.default_rng(17)
    xs = [gen.standard_normal(matrix.ncols) for _ in range(4)]
    X = gen.standard_normal((matrix.ncols, 3))
    requests = [(xs[0], 1), (xs[1], 1), (X, 1), (xs[2], 1), (xs[3], 3)]
    key = "mixed-CSR"
    reference = WorkloadEngine(space, _KeyedFormatTuner())
    with _build(tier, space) as service:
        futures = [
            service.submit(matrix, x, key=key, repetitions=reps)
            for x, reps in requests
        ]
        service.drain_all()
        served = [f.result(timeout=10) for f in futures]
    assert [r.batch_size for r in served] == [2, 2, 1, 1, 1]
    stacked = reference.execute(matrix, np.stack(xs[:2], axis=1), key=key)
    assert np.array_equal(served[0].y, stacked.y[:, 0])
    assert np.array_equal(served[1].y, stacked.y[:, 1])
    for result, (x, reps) in zip(served[2:], requests[2:]):
        _assert_same(
            result, reference.execute(matrix, x, key=key, repetitions=reps)
        )


@pytest.mark.parametrize("tier", ["inproc", "distributed"])
def test_backend_attribution_counts_every_request(tier, space, matrix):
    """The per-tier ``requests`` count and the engines' ``requests_served``
    count served SpMV requests, each request of a coalesced batch
    included, not kernel calls."""
    from repro.formats import MatrixDelta

    gen = np.random.default_rng(23)
    key = "count-CSR"
    with _build(tier, space) as service:
        if tier == "inproc":
            # a blocking call on an idle service is served in place
            service.spmv(matrix, gen.standard_normal(matrix.ncols), key=key)
        vectors = [gen.standard_normal(matrix.ncols) for _ in range(64)]
        _serve(service, matrix, vectors, key)
        update = service.submit_update(
            matrix, MatrixDelta.sets([0], [1], [0.5]), key=key
        )
        service.drain_all()
        update.result(timeout=10)
        _serve(service, matrix, vectors[:5], key)
        stats = service.stats()
    assert stats["coalesced_batches"] == 3
    assert stats["updates_served"] == 1
    assert stats["backends"][SERVING["CSR"][1]]["requests"] == (
        stats["requests_served"] - stats["updates_served"]
    )
    assert stats["engines"]["requests_served"] == (
        stats["requests_served"] - stats["updates_served"]
    )


@pytest.mark.skipif(not have_accelerator(), reason="needs scipy")
@pytest.mark.parametrize("tier", ["inproc", "distributed"])
def test_every_result_names_the_kernel_that_ran(tier, space, matrix):
    """DIA, COO and CSR decisions run scipy's kernel for their format and
    an HDC decision runs scipy's CSR kernel on a CSR container, before
    and after a carried-forward update.  Every result keeps its decided
    format and names its kernel, and the per-kernel counts sum to the
    served requests."""
    from repro.formats import MatrixDelta

    gen = np.random.default_rng(29)
    kernels = {
        "DIA": "scipy.dia",
        "COO": "scipy.coo",
        "CSR": "scipy.csr",
        "HDC": "scipy.csr",
    }
    results = []
    with _build(tier, space) as service:
        for fmt in kernels:
            key = f"kernel-{fmt}"
            vectors = [gen.standard_normal(matrix.ncols) for _ in range(3)]
            results += [(fmt, r) for r in _serve(service, matrix, vectors, key)]
            block = gen.standard_normal((matrix.ncols, 2))
            results += [(fmt, r) for r in _serve(service, matrix, [block], key)]
        update = service.submit_update(
            matrix, MatrixDelta.sets([0], [1], [0.5]), key="kernel-HDC"
        )
        service.drain_all()
        assert update.result(timeout=10).format == "HDC"
        vectors = [gen.standard_normal(matrix.ncols) for _ in range(2)]
        results += [
            ("HDC", r) for r in _serve(service, matrix, vectors, "kernel-HDC")
        ]
        stats = service.stats()
    for fmt, result in results:
        assert (result.format, result.backend) == (fmt, kernels[fmt])
    assert set(stats["backends"]) == set(kernels.values())
    assert sum(v["requests"] for v in stats["backends"].values()) == (
        stats["requests_served"] - stats["updates_served"]
    )
