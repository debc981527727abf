"""Held maps: a tier maps each entry once, and still checks every promote.

:class:`~repro.storage.tier.StorageTier` keeps the one read-only map of
an entry's data file (and the views sliced from it) between promotes,
for up to :data:`~repro.storage.tier.HELD_MAPS` entries.  What must
hold: a held promote opens and maps nothing; damage done to the file
behind a held map still reads as a miss; a superseding demote is
promoted from its own file; the open descriptors stay bounded; and
every way an entry leaves the index drops its map.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.formats import DeltaOverlay, convert
from repro.formats import csr as csr_mod
from repro.formats.coo import COOMatrix
from repro.service import TuningService
from repro.storage import tier as tier_mod
from repro.storage.persist import DATA_NAME
from repro.storage.stream import mmap_backed
from repro.storage.tier import HELD_MAPS, StorageTier


def _matrix(seed=1, shape=(23, 19), density=0.25):
    rng = np.random.default_rng(seed)
    dense = (rng.random(shape) < density) * rng.standard_normal(shape)
    return COOMatrix.from_dense(dense)


def _open_fds():
    gc.collect()  # a map dies with its last view, cycles included
    return len(os.listdir("/proc/self/fd"))


needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd here"
)


@pytest.fixture
def tier(tmp_path):
    return StorageTier(str(tmp_path / "tier"))


@pytest.fixture
def loads(monkeypatch):
    """The ``mmap`` flag of every data-file load a tier makes (the only
    route by which it opens or maps a file)."""
    made = []
    real = tier_mod.load_arrays

    def counting(directory, manifest, *, mmap):
        made.append(mmap)
        return real(directory, manifest, mmap=mmap)

    monkeypatch.setattr(tier_mod, "load_arrays", counting)
    return made


def _poke(entry, name, index, value):
    spec = entry.manifest["arrays"][name]
    arr = np.memmap(
        os.path.join(entry.path, DATA_NAME),
        dtype=spec["dtype"],
        mode="r+",
        offset=spec["offset"],
        shape=tuple(spec["shape"]),
    )
    arr[index] = value
    arr.flush()
    del arr


def _truncate(entry):
    path = os.path.join(entry.path, DATA_NAME)
    os.truncate(path, os.path.getsize(path) - 8)


def _index_past_ncols(entry):
    # a column index one past its bound; for DIA, the last offset one
    # past ncols - 1
    if entry.format == "DIA":
        _poke(entry, "offsets", -1, entry.ncols)
    else:
        name = "col" if entry.format == "COO" else "col_idx"
        _poke(entry, name, 0, entry.ncols)


def test_held_promote_maps_nothing_and_checks_everything(tier, loads, monkeypatch):
    csr = convert(_matrix(), "CSR")
    tier.demote("k", csr)
    first = tier.promote("k")
    assert loads == [True]
    checks = []
    for module, name in (
        (tier_mod, "check_data_file"),  # the file's size
        (csr_mod, "check_csr_structure"),  # the row structure, once
    ):
        real = getattr(module, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            checks.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    second = tier.promote("k", verify=True)
    assert loads == [True]  # the held map served
    assert checks == ["check_data_file", "check_csr_structure"]
    assert mmap_backed(second)
    assert second is not first
    assert np.array_equal(second.data, csr.data)
    assert np.array_equal(second.col_idx, csr.col_idx)
    assert tier.promoted(second) is tier.entries()[0]  # the entry alone
    assert tier.stats()["promotions"] == 2


def test_mmap_false_tier_holds_no_map(tmp_path, loads):
    tier = StorageTier(str(tmp_path / "tier"), mmap=False)
    csr = convert(_matrix(2), "CSR")
    tier.demote("k", csr)
    for _ in range(2):
        back = tier.promote("k")
        assert not mmap_backed(back)
        assert np.array_equal(back.data, csr.data)
    assert loads == [False, False]  # read into RAM on every promote


@pytest.mark.parametrize("damage", [_index_past_ncols, _truncate],
                         ids=["index-past-ncols", "truncated"])
@pytest.mark.parametrize("fmt", ["CSR", "DIA", "COO"])
def test_damage_behind_a_held_map_is_a_miss(tmp_path, fmt, damage):
    """In one service: promote (the map is now held), evict, damage the
    file behind the held map, promote again: a miss, the exact answer,
    and the entry gone."""
    rng = np.random.default_rng(5)
    matrices = {
        f"mx{i}": _matrix(20 + i, shape=(31 + 7 * i, 29 + 5 * i))
        for i in range(2)
    }
    with TuningService(
        make_space("cirrus", "serial"),
        RunFirstTuner(formats=(fmt,)),
        workers=1,
        capacity=1,
        shards=1,
        storage_dir=str(tmp_path / "tier"),
    ) as service:
        for key in ("mx0", "mx1", "mx0", "mx1"):  # mx0 promoted, re-evicted
            matrix = matrices[key]
            service.spmv(matrix, np.ones(matrix.ncols), key=key)
        before = service.stats()["storage"]
        assert before["promotions"] == 2  # mx0, then mx1
        entry = {e.key: e for e in service.storage.entries()}["mx0"]
        # none of them persists a CSR image: each runs its own kernel
        # on the arrays damaged here
        assert not any(
            name.startswith("operator__") for name in entry.manifest["arrays"]
        )
        damage(entry)
        matrix = matrices["mx0"]
        x = rng.standard_normal(matrix.ncols)
        y = service.spmv(matrix, x, key="mx0").y
        after = service.stats()["storage"]
        resident = "mx0" in service.storage
    np.testing.assert_allclose(y, matrix.to_scipy() @ x, rtol=1e-12, atol=0)
    assert after["promote_misses"] == before["promote_misses"] + 1
    assert after["promotions"] == before["promotions"]
    assert not resident


def test_superseding_demote_is_promoted_from_the_new_file(tier):
    base = convert(_matrix(3), "CSR")
    tier.demote("k", base)
    old = tier.promote("k")  # holds the map of the first file
    overlay = DeltaOverlay()
    coo = base.to_coo()
    overlay.delete(int(coo.row[0]), int(coo.col[0]))
    entry, successor = tier.compact("k", overlay, base, format="CSR")
    assert entry.epoch == successor.epoch == base.epoch + 1
    new = tier.promote("k", epoch=successor.epoch, verify=True)
    assert new.nnz == successor.nnz == base.nnz - 1
    assert np.array_equal(new.data, successor.data)
    assert not np.shares_memory(new.data, old.data)
    assert np.array_equal(old.data, base.data)  # the old map still serves
    assert tier.promote("k", epoch=base.epoch) is None  # now stale


@needs_proc_fd
def test_open_descriptors_stay_bounded(tier):
    """bound + 8 distinct promotes, with the first *capacity* promoted
    containers kept alive as an engine cache would: at most bound +
    capacity maps stay open, and none once the tier and they are gone."""
    capacity = 3
    count = HELD_MAPS + 8
    csr = convert(_matrix(4), "CSR")
    baseline = _open_fds()
    for i in range(count):
        tier.demote(f"k{i}", csr)
    kept = []
    for i in range(count):
        back = tier.promote(f"k{i}")
        assert back is not None
        if len(kept) < capacity:
            kept.append(back)
        del back
    assert _open_fds() - baseline <= HELD_MAPS + capacity
    assert tier.clear() == count
    kept.clear()
    assert _open_fds() == baseline


@needs_proc_fd
@pytest.mark.parametrize(
    "leave", ["supersede", "remove", "clear", "epoch", "capacity"]
)
def test_every_way_out_of_the_index_drops_the_map(tmp_path, leave):
    csr = convert(_matrix(6), "CSR")
    tier = StorageTier(
        str(tmp_path / "tier"), capacity_bytes=int(1.5 * csr.nbytes())
    )
    baseline = _open_fds()
    tier.demote("k", csr)
    assert tier.promote("k") is not None  # returned container dropped
    assert _open_fds() == baseline + 1  # the held map
    if leave == "supersede":
        tier.demote("k", convert(_matrix(7), "CSR"))  # a new file, unmapped
    elif leave == "remove":
        tier.remove("k")
    elif leave == "clear":
        tier.clear()
    elif leave == "epoch":
        assert tier.promote("k", epoch=csr.epoch + 1) is None
    else:
        tier.demote("other", csr)  # evicts 'k' to fit
    assert ("k" in tier) == (leave == "supersede")
    assert _open_fds() == baseline
