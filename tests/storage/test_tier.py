"""StorageTier: demote/promote accounting, restarts, races, lifetimes.

The tier is the serving cache's spill level, so its contract is shaped
by eviction traffic: a demoted container must promote back bitwise
(carrying its decision metadata), a tier left on disk must re-index
after a restart, an epoch-stale entry must read as a miss (never a
wrong answer), and — the POSIX subtlety — an entry removed while
promoted must keep serving through its live mmap views.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.formats import DeltaOverlay, convert
from repro.formats.coo import COOMatrix
from repro.storage import tier as tier_module
from repro.storage.stream import mmap_backed
from repro.storage.tier import StorageTier


def _matrix(seed=1, shape=(23, 19), density=0.25):
    rng = np.random.default_rng(seed)
    dense = (rng.random(shape) < density) * rng.standard_normal(shape)
    return COOMatrix.from_dense(dense)


@pytest.fixture
def tier(tmp_path):
    return StorageTier(str(tmp_path / "tier"))


def test_demote_promote_bitwise_with_decision(tier):
    csr = convert(_matrix(), "CSR")
    entry = tier.demote(
        "mx/1", csr, extra={"format": "CSR", "backend": "numpy"}
    )
    assert entry.key == "mx/1"  # keys with '/' are legal (branch ids)
    assert "mx/1" in tier
    back = tier.promote("mx/1", verify=True)
    assert mmap_backed(back)
    got, want = back.to_coo(), csr.to_coo()
    np.testing.assert_array_equal(got.row, want.row)
    np.testing.assert_array_equal(got.col, want.col)
    assert np.array_equal(got.data, want.data)
    assert tier.entries()[0].extra == {"format": "CSR", "backend": "numpy"}
    stats = tier.stats()
    assert stats["demotions"] == 1
    assert stats["promotions"] == 1
    assert stats["promote_misses"] == 0
    assert stats["bytes_written"] == entry.nbytes


def test_promote_missing_key_counts_miss(tier):
    assert tier.promote("absent") is None
    assert tier.stats()["promote_misses"] == 1


def test_tier_survives_restart(tmp_path):
    root = str(tmp_path / "tier")
    csr = convert(_matrix(2), "CSR")
    StorageTier(root).demote("k", csr, extra={"backend": "native"})
    reborn = StorageTier(root)
    assert "k" in reborn
    assert len(reborn) == 1
    assert reborn.entries()[0].extra == {"backend": "native"}
    back = reborn.promote("k", verify=True)
    assert np.array_equal(back.to_coo().data, csr.to_coo().data)


def test_epoch_mismatch_drops_entry(tier):
    csr = convert(_matrix(3), "CSR")
    tier.demote("k", csr)
    assert tier.promote("k", epoch=7) is None  # entry was epoch 0
    assert "k" not in tier  # a stale entry can never serve again
    assert tier.stats()["promote_misses"] == 1


def test_capacity_evicts_oldest(tmp_path):
    csr = convert(_matrix(4), "CSR")
    nbytes = csr.nbytes()
    tier = StorageTier(
        str(tmp_path / "tier"), capacity_bytes=int(2.5 * nbytes)
    )
    tier.demote("a", csr)
    tier.demote("b", csr)
    tier.demote("c", csr)  # pushes past capacity: 'a' is oldest
    assert "a" not in tier
    assert "b" in tier and "c" in tier
    assert tier.stats()["tier_evictions"] == 1
    assert tier.resident_bytes() <= int(2.5 * nbytes)
    with pytest.raises(ValidationError):
        StorageTier(str(tmp_path / "bad"), capacity_bytes=0)


def test_remove_while_promoted_keeps_serving(tier):
    csr = convert(_matrix(5), "CSR")
    tier.demote("k", csr)
    promoted = tier.promote("k")
    want = csr.spmv(np.ones(csr.ncols))
    assert tier.remove("k")
    assert "k" not in tier
    # POSIX: the unlinked files stay alive behind the live mmap views
    assert np.array_equal(promoted.spmv(np.ones(csr.ncols)), want)
    assert not tier.remove("k")  # second remove is a no-op


def test_redemote_replaces_entry(tier):
    first = convert(_matrix(6), "CSR")
    second = convert(_matrix(7), "CSR")
    tier.demote("k", first)
    tier.demote("k", second)
    assert len(tier) == 1
    back = tier.promote("k")
    assert np.array_equal(back.to_coo().data, second.to_coo().data)


def test_clear_and_entries_ordering(tier):
    for i in range(3):
        tier.demote(f"k{i}", convert(_matrix(8 + i), "CSR"))
    keys = [e.key for e in tier.entries()]
    assert keys == ["k0", "k1", "k2"]  # oldest first
    assert tier.clear() == 3
    assert len(tier) == 0


def test_compact_writes_successor_to_tier(tier):
    base = convert(_matrix(11), "CSR")
    overlay = DeltaOverlay()
    coo = base.to_coo()
    overlay.delete(int(coo.row[0]), int(coo.col[0]))
    entry, successor = tier.compact("k", overlay, base, format="CSR")
    assert entry.nnz == successor.nnz == base.nnz - 1
    assert tier.stats()["compactions"] == 1
    back = tier.promote("k", verify=True)
    assert np.array_equal(back.to_coo().data, successor.to_coo().data)


def test_concurrent_demote_promote_race(tier):
    """Hammering the same key from both sides never corrupts an entry."""
    csr = convert(_matrix(12), "CSR")
    want = csr.to_coo().data
    errors = []

    def demoter():
        try:
            for _ in range(20):
                tier.demote("hot", csr)
        except Exception as exc:  # a demote must not fail under the race
            errors.append(f"demote raised {exc!r}")

    def promoter():
        for _ in range(20):
            back = tier.promote("hot", verify=True)
            if back is not None and not np.array_equal(
                back.to_coo().data, want
            ):
                errors.append("corrupt promote")

    threads = [threading.Thread(target=demoter)] + [
        threading.Thread(target=promoter) for _ in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_torn_read_racing_a_demote_spares_the_new_entry(tier, monkeypatch):
    """A promote whose read fails while a demote of the same key lands
    removes nothing the demote wrote: the next promote serves it."""
    first = convert(_matrix(20), "CSR")
    second = convert(_matrix(21, shape=(31, 17)), "CSR")
    tier.demote("k", first)
    load_arrays = tier_module.load_arrays

    def read_torn_by_a_demote(*args, **kwargs):
        # the window: between the promote's index lookup and its read
        monkeypatch.setattr(tier_module, "load_arrays", load_arrays)
        tier.demote("k", second)
        raise OSError("entry rewritten under the reader")

    monkeypatch.setattr(tier_module, "load_arrays", read_torn_by_a_demote)
    assert tier.promote("k") is None
    back = tier.promote("k", verify=True)
    assert back is not None
    assert back.shape == second.shape
    assert np.array_equal(back.to_coo().data, second.to_coo().data)
    assert len(tier) == 1


def test_each_demote_writes_its_own_directory(tmp_path):
    root = tmp_path / "tier"
    tier = StorageTier(str(root))
    paths = [tier.demote("k", convert(_matrix(s), "CSR")).path for s in (1, 2)]
    assert paths[0] != paths[1]
    # the superseded directory went with the index swap
    assert os.listdir(root / "entries") == [os.path.basename(paths[1])]
    # a restart continues the generations instead of reusing one
    assert StorageTier(str(root)).demote("j", _matrix(3)).path not in paths


def test_stats_schema(tier):
    stats = tier.stats()
    assert set(stats) == {
        "directory",
        "entries",
        "resident_bytes",
        "capacity_bytes",
        "demotions",
        "promotions",
        "promote_misses",
        "compactions",
        "tier_evictions",
        "demote_seconds",
        "promote_seconds",
        "bytes_written",
        "formats",
    }


def test_promote_hands_over_the_entry_once(tier):
    hdc = convert(_matrix(13), "HDC")
    entry = tier.demote("hdc", hdc)
    arrays = entry.manifest["arrays"]
    assert not any(name.startswith("operator__") for name in arrays)
    back = tier.promote("hdc", verify=True)
    assert mmap_backed(back) and back.format == "HDC"
    assert tier.promoted(back) is entry
    assert tier.promoted(back) is None  # handed over once
    assert tier.promoted(hdc) is None  # not promoted by this tier


def test_v1_entry_is_not_indexed(tmp_path):
    """A leftover per-array ``.npy`` entry neither breaks nor joins a tier."""
    root = tmp_path / "tier"
    legacy = root / "entries" / "0123456789abcdef"
    legacy.mkdir(parents=True)
    csr = convert(_matrix(16), "CSR")
    for name in ("row_ptr", "col_idx", "data"):
        np.save(legacy / f"{name}.npy", getattr(csr, name))
    (legacy / "manifest.json").write_text(json.dumps({
        "version": 1,
        "format": "CSR",
        "nrows": csr.nrows,
        "ncols": csr.ncols,
        "nnz": csr.nnz,
        "nbytes": csr.nbytes(),
        "epoch": 0,
        "fingerprint": "0" * 32,
        "arrays": {
            name: {"dtype": arr.dtype.str, "shape": list(arr.shape)}
            for name, arr in (
                ("row_ptr", csr.row_ptr),
                ("col_idx", csr.col_idx),
                ("data", csr.data),
            )
        },
        "extra": {"tier_key": "old", "tier_stored_at": 1.0},
    }))
    tier = StorageTier(str(root))
    assert len(tier) == 0
    assert "old" not in tier
    assert tier.promote("old") is None
    assert tier.stats()["promote_misses"] == 1
