"""The promote step: a tier promote hands the engine a seeded warm chain.

A promote miss re-attaches the entry — every check runs: the data
file's size, the validating constructors of the container and of its
CSR image — and seeds the key's warm chain with the entry's decoded
statistics and their single-SpMV price on the host's space, both
memoised on the tier entry.  These tests pin that the shortcut is
invisible in what is served:

* for CSR, DIA, COO and HDC entries the promoted request, the next one
  and ``stats()["engines"]`` equal a fresh engine brought to the same
  state (the container adopted with its statistics, then served through
  the full chain);
* an entry is priced by the space of the host that promotes it, on a
  reopened tier and on one tier shared by two hosts;
* a demote that replaces an entry between two promotes is served with
  the new entry's statistics and price;
* a torn entry still reads as a miss and re-converts, also after a
  promote memoised its statistics;
* re-evicting an unchanged promoted container rewrites nothing, on an
  ``mmap=False`` tier too, and one whose entry was replaced is written
  back;
* a CSR or HDC promote miss makes at most 100 Python-frame calls;
* a model promotion reaches a key with a tier entry: an entry decided
  by another model version is not adopted, so the key re-decides.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.core.tuners.base import Tuner, TuningReport
from repro.formats import FORMAT_IDS, COOMatrix
from repro.formats.convert import convert
from repro.machine import CostModel
from repro.machine.stats import MatrixStats
from repro.obs import Observability
from repro.runtime.batch import SERVING
from repro.runtime.engine import WorkloadEngine
from repro.service import TuningService
from repro.service.accounting import empty_engine_totals, fold_engine_stats
from repro.service.host import EngineHost
from repro.storage.persist import DATA_NAME
from repro.storage.stream import mmap_backed
from repro.storage.tier import StorageTier

FIELDS = (
    "seconds",
    "overhead_seconds",
    "format",
    "from_cache",
    "epoch",
    "backend",
)


class _FixedTuner(Tuner):
    """Decides one format, at a fixed modelled charge."""

    def __init__(self, format_name: str) -> None:
        self.format_name = format_name

    def tune(self, matrix, space, *, stats=None, matrix_key=""):
        return TuningReport(
            format_id=FORMAT_IDS[self.format_name], t_prediction=1e-6
        )


@pytest.fixture
def space():
    # the default cost model's noise is keyed by matrix key and format,
    # so a price derived for the wrong entry or space reads differently
    return make_space("cirrus", "serial")


def _matrix(seed, n=48, density=0.15):
    rng = np.random.default_rng(seed)
    dense = np.diag(rng.standard_normal(n)) + np.diag(
        rng.standard_normal(n - 1), 1
    )
    dense += (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    return COOMatrix.from_dense(dense)


def _same(got, want):
    assert np.array_equal(got.y, want.y)
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name


def _service(space, tuner, tmp_path):
    return TuningService(
        space,
        tuner,
        workers=1,
        capacity=1,
        shards=1,
        storage_dir=str(tmp_path / "tier"),
    )


def _container(service, key):
    with service._host.engines.lease(key) as engine:
        return engine.serving_container(key)


def _extra(tier, key):
    """The decision metadata stored with *key*'s tier entry."""
    return {e.key: e for e in tier.entries()}[key].extra


def _host(space, tuner, tier):
    return EngineHost(
        space,
        tuner,
        capacity=1,
        shards=1,
        storage=tier,
        obs=Observability(tier="inproc"),
    )


@pytest.mark.parametrize("fmt", ["CSR", "DIA", "COO", "HDC"])
def test_promoted_requests_match_a_fresh_engine(space, tmp_path, fmt):
    a, b = _matrix(1), _matrix(2)
    xs = np.random.default_rng(3).standard_normal((4, a.ncols))
    tuner = _FixedTuner(fmt)
    with _service(space, tuner, tmp_path) as service:
        service.spmv(a, xs[0], key="a")
        service.spmv(b, xs[1], key="b")  # demotes "a"
        first = service.spmv(a, xs[2], key="a")  # promotes it back
        second = service.spmv(a, xs[3], key="a")
        stats = service.stats()
        promoted = _container(service, "a")
        persisted = _extra(service.storage, "a")["stats"]
    assert stats["storage"]["promotions"] == 1
    assert mmap_backed(promoted) and promoted.format == SERVING[fmt][0]
    # the same history on engines of their own: the promoted one adopts
    # the container with its statistics and resolves the full chain
    evicted_a = WorkloadEngine(space, tuner)
    evicted_a.execute(a, xs[0], key="a")
    evicted_b = WorkloadEngine(space, tuner)
    evicted_b.execute(b, xs[1], key="b")
    fresh = WorkloadEngine(space, tuner)
    fresh.adopt_prepared(
        "a", promoted, stats=MatrixStats.from_dict(persisted), format=fmt
    )
    _same(first, fresh.execute(a, xs[2], key="a"))
    _same(second, fresh.execute(a, xs[3], key="a"))
    assert first.from_cache and first.overhead_seconds == 0.0
    want = empty_engine_totals()
    for engine in (evicted_a, evicted_b, fresh):
        fold_engine_stats(want, engine.stats())
    assert stats["engines"] == want


def test_reopened_tier_is_priced_by_the_new_space(space, tmp_path):
    a, b = _matrix(4), _matrix(5)
    x = np.random.default_rng(6).standard_normal(a.ncols)
    tuner = _FixedTuner("DIA")
    with _service(space, tuner, tmp_path) as service:
        service.spmv(a, x, key="a")
        service.spmv(b, x, key="b")  # demotes "a"
        service.spmv(a, x, key="a")  # promotes it: its price is memoised
        stats = MatrixStats.from_dict(_extra(service.storage, "a")["stats"])
    other = make_space(
        "cirrus", "serial", cost_model=CostModel(noise_sigma=0.0)
    )
    old_price = space.time_spmv(stats, "DIA", matrix_key="a")
    new_price = other.time_spmv(stats, "DIA", matrix_key="a")
    assert old_price != new_price
    with _service(other, tuner, tmp_path) as service:
        got = service.spmv(a, x, key="a")
        assert service.stats()["storage"]["promotions"] == 1
        promoted = _container(service, "a")
    assert got.seconds == new_price
    fresh = WorkloadEngine(other, tuner)
    fresh.adopt_prepared("a", promoted, stats=stats)
    _same(got, fresh.execute(a, x, key="a"))


def test_one_tier_shared_by_two_spaces_prices_each(space, tmp_path):
    a, b = _matrix(7), _matrix(8)
    x = np.random.default_rng(9).standard_normal(a.ncols)
    tuner = _FixedTuner("CSR")
    other = make_space(
        "cirrus", "serial", cost_model=CostModel(noise_sigma=0.0)
    )
    tier = StorageTier(str(tmp_path / "tier"))
    first, second = _host(space, tuner, tier), _host(other, tuner, tier)
    first.serve("a", a, x)
    first.serve("b", b, x)  # demotes "a"
    first.serve("a", a, x)  # promotes it, memoised for the first space
    (entry,) = [e for e in tier.entries() if e.key == "a"]
    stats = MatrixStats.from_dict(entry.extra["stats"])
    served = second.serve("a", a, x)  # same entry, the second space
    assert served.promote_seconds > 0
    assert served.result.seconds == other.time_spmv(stats, "CSR", matrix_key="a")
    assert served.result.seconds != space.time_spmv(stats, "CSR", matrix_key="a")


def test_replaced_entry_is_served_with_its_own_stats(space, tmp_path):
    a, b, c = _matrix(10), _matrix(11), _matrix(12, density=0.4)
    x = np.random.default_rng(13).standard_normal(a.ncols)
    tuner = _FixedTuner("COO")
    with _service(space, tuner, tmp_path) as service:
        service.spmv(a, x, key="a")
        service.spmv(b, x, key="b")  # demotes "a"
        before = service.spmv(a, x, key="a")  # promote: memoised
        service.spmv(b, x, key="b")  # "a" evicted, its entry unchanged
        # a demote replaces the entry: another content, other stats
        replacement = MatrixStats.from_matrix(c)
        service.storage.demote(
            "a", c, extra={"format": "COO", "stats": replacement.to_dict()}
        )
        got = service.spmv(a, x, key="a")
        promoted = _container(service, "a")
        storage = service.stats()["storage"]
    assert storage["promotions"] == 3
    assert got.seconds == space.time_spmv(replacement, "COO", matrix_key="a")
    assert got.seconds != before.seconds
    np.testing.assert_allclose(got.y, c.to_scipy() @ x, rtol=1e-12, atol=0)
    fresh = WorkloadEngine(space, tuner)
    fresh.adopt_prepared("a", promoted, stats=replacement)
    _same(got, fresh.execute(a, x, key="a"))


def test_promote_into_an_engine_holding_other_stats_prices_like_the_chain(
    space, tmp_path
):
    """A model promotion leaves a live engine its statistics; when the
    tier entry it then promotes carries others, the engine keeps its own
    and the chain is not seeded: the request is priced as the full chain
    prices it."""
    a, b, c = _matrix(27), _matrix(28), _matrix(29, density=0.4)
    x = np.random.default_rng(30).standard_normal(a.ncols)
    with _service(space, _FixedTuner("DIA"), tmp_path) as service:
        service.spmv(a, x, key="a")
        service.spmv(b, x, key="b")  # demotes "a"
        service.spmv(a, x, key="a")  # promotes it
        held = MatrixStats.from_dict(_extra(service.storage, "a")["stats"])
        service.storage.demote(
            "a",
            convert(c, "DIA"),
            extra={
                "format": "DIA",
                "model_version": "v2",  # decided by the promoted model
                "stats": MatrixStats.from_matrix(c).to_dict(),
            },
        )
        service.promote_model(_FixedTuner("DIA"), version="v2")
        got = service.spmv(a, x, key="a")  # the live engine promotes again
        promoted = _container(service, "a")
    fresh = WorkloadEngine(space, _FixedTuner("DIA"))
    fresh.adopt_prepared("a", promoted, stats=held)
    _same(got, fresh.execute(a, x, key="a"))


def test_torn_entry_after_a_memoised_promote_is_a_miss(space, tmp_path):
    a, b = _matrix(14), _matrix(15)
    x = np.random.default_rng(16).standard_normal(a.ncols)
    tuner = _FixedTuner("DIA")
    with _service(space, tuner, tmp_path) as service:
        service.spmv(a, x, key="a")
        service.spmv(b, x, key="b")  # demotes "a"
        service.spmv(a, x, key="a")  # promote: memoised
        service.spmv(b, x, key="b")  # "a" evicted, its entry unchanged
        (entry,) = [e for e in service.storage.entries() if e.key == "a"]
        assert entry.memo  # the promote's statistics and price
        data = os.path.join(entry.path, DATA_NAME)
        os.truncate(data, os.path.getsize(data) - 8)
        misses = service.stats()["storage"]["promote_misses"]
        got = service.spmv(a, x, key="a")
        storage = service.stats()["storage"]
        resident = "a" in service.storage
    assert storage["promote_misses"] == misses + 1
    assert storage["promotions"] == 2  # "a" once, "b" once
    assert not resident
    assert not got.from_cache and got.overhead_seconds > 0  # re-converted
    _same(got, WorkloadEngine(space, tuner).execute(a, x, key="a"))


@pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "in-ram"])
def test_unchanged_promoted_container_is_not_rewritten(space, tmp_path, mmap):
    a, b = _matrix(17), _matrix(18)
    x = np.random.default_rng(19).standard_normal(a.ncols)
    tier = StorageTier(str(tmp_path / "tier"), mmap=mmap)
    host = _host(space, _FixedTuner("CSR"), tier)
    host.serve("a", a, x)
    host.serve("b", b, x)  # demotes "a"
    (entry,) = tier.entries()
    host.serve("a", a, x)  # promotes "a", demotes "b"
    with host.engines.lease("a") as engine:
        assert mmap_backed(engine.serving_container("a")) is mmap
    host.serve("b", b, x)  # re-evicts the unchanged "a"
    assert tier.stats()["demotions"] == 2
    assert {e.key: e for e in tier.entries()}["a"] is entry


def test_entry_replaced_under_a_live_promoted_engine_is_rewritten(
    space, tmp_path
):
    """Re-eviction skips the rewrite only while the tier indexes the
    entry the container was promoted from: once a demote replaced it,
    the evicted engine's container is written back."""
    a, b, c = _matrix(23), _matrix(24), _matrix(25, density=0.4)
    x = np.random.default_rng(26).standard_normal(a.ncols)
    tier = StorageTier(str(tmp_path / "tier"))
    host = _host(space, _FixedTuner("CSR"), tier)
    host.serve("a", a, x)
    host.serve("b", b, x)  # demotes "a"
    want = host.serve("a", a, x).result  # promotes "a", demotes "b"
    tier.demote("a", c)  # replaces the entry under the live engine
    host.serve("b", b, x)  # evicts "a": its container is written back
    assert tier.stats()["demotions"] == 4
    got = host.serve("a", a, x).result
    assert np.array_equal(got.y, want.y)


@pytest.mark.parametrize("fmt", ["CSR", "HDC"])
def test_promote_miss_is_at_most_one_hundred_python_calls(space, tmp_path, fmt):
    """One blocking ``spmv`` that promotes a CSR entry (``capacity=1``,
    two keys alternating) makes at most 100 Python-frame calls, counted
    with ``sys.setprofile``, no timing: the promote's checks, a seeded
    warm chain and one kernel call.  An HDC decision's entry is a CSR
    container, so it costs the same."""
    a, b = _matrix(20), _matrix(21)
    x = np.random.default_rng(22).standard_normal(a.ncols)
    with _service(space, _FixedTuner(fmt), tmp_path) as service:
        for _ in range(2):
            service.spmv(a, x, key="a")
            service.spmv(b, x, key="b")
        promotions = service.stats()["storage"]["promotions"]
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            result = service.spmv(a, x, key="a")
        finally:
            sys.setprofile(None)
        assert service.stats()["storage"]["promotions"] == promotions + 1
    assert result.format == fmt and result.from_cache
    assert result.backend == SERVING[fmt][1]
    assert len(calls) <= 100, calls


@pytest.mark.parametrize("storage", [True, False], ids=["tier", "no-tier"])
def test_model_promotion_reaches_a_key_with_a_tier_entry(
    space, tmp_path, storage
):
    """``capacity=1``, a CSR model, keys ``a`` and ``b``: serve ``a``,
    serve ``b`` (evicts ``a``), promote a DIA model, then serve ``a``,
    ``b`` and ``a`` again.  Both ``a`` requests are served as the new
    model decides, with a storage tier as without one."""
    a, b = _matrix(31, density=0.0), _matrix(32, density=0.0)
    x = np.random.default_rng(33).standard_normal(a.ncols)
    with TuningService(
        space,
        RunFirstTuner(formats=("CSR",)),
        workers=1,
        capacity=1,
        shards=1,
        storage_dir=str(tmp_path / "tier") if storage else None,
    ) as service:
        assert service.spmv(a, x, key="a").format == "CSR"
        service.spmv(b, x, key="b")
        service.promote_model(RunFirstTuner(formats=("DIA",)), version="v2")
        first = service.spmv(a, x, key="a")
        service.spmv(b, x, key="b")
        second = service.spmv(a, x, key="a")
        promotions = service.stats()["storage"]["promotions"] if storage else 0
    for result in (first, second):
        assert (result.format, result.model_version) == ("DIA", "v2")
        assert result.backend == SERVING["DIA"][1]
        np.testing.assert_allclose(
            result.y, a.to_scipy() @ x, rtol=1e-12, atol=0
        )
    assert promotions == (2 if storage else 0)
