"""The disk tier: a demote/promote store for converted containers.

:class:`StorageTier` is what turns engine-cache eviction from a cliff
into a hierarchy level.  The serving cache demotes a cold engine's
converted containers here instead of dropping them; a later request for
the same matrix promotes the entry back as read-only mmap views — the
conversion cost (the expensive part of a cache miss) is replaced by one
``np.memmap`` of the entry's data file, whose round trip is
bitwise-stable (:mod:`repro.storage.persist`).  The :class:`TierEntry`
a promoted container came from is handed over once
(:meth:`StorageTier.promoted`), so its host reads the entry's decision
metadata without a second lookup and can memoise per-entry work on the
entry itself.

The tier holds each promoted entry's map, and the views sliced from it,
for the next promote of that entry, so a held promote opens and maps
nothing.  At most :data:`HELD_MAPS` maps are held, least recently
promoted dropped first: each keeps a file descriptor open, and the
pages kernels touch count in the process's RSS while mapped.  Every
check runs on every promote all the same — the data file's size
(before the map is touched: reading a map past the end of a file cut
short faults) and the container's validating constructors.  A held
map is used only while the index holds the entry it was made for;
every path that pops or replaces an index entry drops it.

Entries are keyed by the serving-cache key (the matrix fingerprint).
Each demote writes a directory of its own,
``<root>/entries/<blake2b(key)>.<generation>/``, and never rewrites
one: the generation counts the tier's demotes.  The manifest records
the original key, the epoch, and the decision metadata (decided
format, the model version that decided it, matrix statistics) so
promotion restores both the container and the tuner decision it was
serving under.  Writes are atomic (temp-dir +
rename), the in-memory index is rebuilt from disk on construction (the
tier survives restarts) and keeps every entry's parsed manifest, so a
promote reads no JSON; every mutation/lookup is guarded by one lock —
demote/promote latency is file IO, not lock contention, so a finer
sharding is not worth its complexity here.

A demote swaps its complete directory into the index, and removes the
one it supersedes, under the lock.  A promote whose read fails removes
the directory of the entry it read only while the index still holds
that entry.  So a promote racing a demote of the same key can delete
neither the demoter's directory nor its files.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix
from repro.storage.persist import (
    MANIFEST_NAME,
    attach_arrays,
    check_data_file,
    load_arrays,
    read_manifest,
    save_container,
)

__all__ = ["HELD_MAPS", "StorageTier", "TierEntry"]

_ENTRIES_DIR = "entries"

#: Most entries whose data-file map one tier holds between promotes,
#: least recently promoted dropped first.  Each held map keeps one file
#: descriptor open (Python's ``mmap`` object keeps a duplicate of the
#: one it mapped), so the bound stays far below the common 1,024 soft
#: descriptor limit.
HELD_MAPS = 64


def _key_dir(key: str) -> str:
    """Filesystem-safe directory name for a cache key (keys may hold
    ``/`` — branched stable ids like ``mx0001/b2``)."""
    return hashlib.blake2b(key.encode(), digest_size=16).hexdigest()


def _generation(name: str) -> int:
    """The demote generation of an entry directory's *name* (0 for the
    ``<blake2b(key)>`` directories of tiers that rewrote one per key)."""
    _, _, suffix = name.partition(".")
    return int(suffix) if suffix.isdigit() else 0


@dataclass(frozen=True)
class TierEntry:
    """One resident entry of the disk tier (the ``repro storage`` row).

    ``nbytes`` is the size of the entry's data file; ``manifest`` is the parsed manifest a
    promote re-attaches from.  ``memo`` holds what a host derives once
    per entry object (decoded statistics, modelled prices); it is never
    written to disk, and every index change replaces the entry object,
    so it never outlives the entry it was derived from.
    """

    key: str
    path: str
    format: str
    nrows: int
    ncols: int
    nnz: int
    nbytes: int
    epoch: int
    fingerprint: str
    stored_at: float
    extra: dict
    manifest: dict = field(repr=False, compare=False)
    memo: dict = field(default_factory=dict, repr=False, compare=False)


class StorageTier:
    """Disk-resident container store with demote/promote accounting.

    Parameters
    ----------
    directory:
        Tier root; created if absent.  Existing entries are indexed at
        construction, so a tier outlives the process that filled it.
    mmap:
        Whether :meth:`promote` re-attaches arrays as mmap views
        (default; the maps are held between promotes) or materialises
        them in RAM.
    capacity_bytes:
        Optional cap on resident tier bytes; demotions evict the
        oldest entries (by store time) until the new entry fits.
        ``None`` (default) means unbounded.
    """

    def __init__(
        self,
        directory: str,
        *,
        mmap: bool = True,
        capacity_bytes: Optional[int] = None,
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.mmap = bool(mmap)
        self.capacity_bytes = (
            int(capacity_bytes) if capacity_bytes is not None else None
        )
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise ValidationError(
                f"capacity_bytes must be positive, got {self.capacity_bytes}"
            )
        self._entries_root = os.path.join(self.directory, _ENTRIES_DIR)
        os.makedirs(self._entries_root, exist_ok=True)
        self._lock = threading.Lock()
        self._index: Dict[str, TierEntry] = {}
        #: promoted container -> the entry it was read from, until
        #: handed over by :meth:`promoted`
        self._promoted = weakref.WeakKeyDictionary()
        #: key -> (its index entry, the array views of that entry's map),
        #: least recently promoted first
        self._held = OrderedDict()
        # traffic counters (mirrored into the obs registry by the
        # service's gauge collector; the tier itself stays obs-free)
        self.demotions = 0
        self.promotions = 0
        self.promote_misses = 0
        self.compactions = 0
        self.tier_evictions = 0
        self.demote_seconds = 0.0
        self.promote_seconds = 0.0
        self.bytes_written = 0
        self._generations = itertools.count(self._rebuild_index() + 1)

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _rebuild_index(self) -> int:
        """Index the entries on disk; returns the highest generation.

        Of two complete directories for one key (a process that died
        between a demote's swap and its removal of the superseded
        directory), the later generation is indexed and the other
        removed.
        """
        latest = 0
        names = os.listdir(self._entries_root)
        for name in sorted(names, key=lambda n: (_generation(n), n)):
            path = os.path.join(self._entries_root, name)
            if name.startswith(".") or not os.path.isdir(path):
                continue
            latest = max(latest, _generation(name))
            if not os.path.exists(os.path.join(path, MANIFEST_NAME)):
                continue  # torn entry from a crashed writer: unreachable
            try:
                entry = self._entry(path, read_manifest(path))
            except (ValidationError, OSError, ValueError, KeyError, TypeError):
                # unreadable or older-layout entry: leave it for inspection
                continue
            if entry.key:
                superseded = self._index.get(entry.key)
                if superseded is not None:
                    shutil.rmtree(superseded.path, ignore_errors=True)
                self._index[entry.key] = entry
        return latest

    @staticmethod
    def _entry(path: str, manifest: dict) -> TierEntry:
        extra = dict(manifest.get("extra") or {})
        return TierEntry(
            key=str(extra.pop("tier_key", "")),
            path=path,
            format=manifest["format"],
            nrows=int(manifest["nrows"]),
            ncols=int(manifest["ncols"]),
            nnz=int(manifest["nnz"]),
            nbytes=int(manifest["data_bytes"]),
            epoch=int(manifest.get("epoch", 0)),
            fingerprint=manifest["fingerprint"],
            stored_at=float(extra.pop("tier_stored_at", 0.0)),
            extra=extra,
            manifest=manifest,
        )

    # ------------------------------------------------------------------
    # demote / promote
    # ------------------------------------------------------------------
    def demote(
        self,
        key: str,
        matrix: SparseMatrix,
        *,
        extra: Optional[dict] = None,
    ) -> TierEntry:
        """Spill one converted container to disk under *key*.

        Replaces any previous entry for the key (a newer epoch
        supersedes the demoted one).  Returns the resident entry.
        """
        start = time.perf_counter()
        with self._lock:
            generation = next(self._generations)
        path = os.path.join(self._entries_root, f"{_key_dir(key)}.{generation}")
        stored_extra = dict(extra or {})
        stored_extra["tier_key"] = key
        stored_extra["tier_stored_at"] = time.time()
        manifest = save_container(matrix, path, extra=stored_extra)
        entry = self._entry(path, manifest)
        with self._lock:
            superseded = self._forget_locked(key)
            self._index[key] = entry
            if superseded is not None:
                shutil.rmtree(superseded.path, ignore_errors=True)
            self.demotions += 1
            self.bytes_written += entry.nbytes
            self.demote_seconds += time.perf_counter() - start
            self._enforce_capacity_locked(keep=key)
        return entry

    def _enforce_capacity_locked(self, *, keep: str) -> None:
        if self.capacity_bytes is None:
            return
        total = sum(e.nbytes for e in self._index.values())
        victims = sorted(
            (e for k, e in self._index.items() if k != keep),
            key=lambda e: e.stored_at,
        )
        for victim in victims:
            if total <= self.capacity_bytes:
                break
            self._forget_locked(victim.key)
            shutil.rmtree(victim.path, ignore_errors=True)
            self.tier_evictions += 1
            total -= victim.nbytes

    def _forget_locked(self, key: str) -> Optional[TierEntry]:
        """Pop *key*'s index entry and the map held for it."""
        self._held.pop(key, None)
        return self._index.pop(key, None)

    def promote(
        self,
        key: str,
        *,
        epoch: Optional[int] = None,
        verify: bool = False,
    ) -> Optional[SparseMatrix]:
        """Re-attach the container demoted under *key*, or ``None``.

        With *epoch*, an entry persisted for a different matrix version
        is treated as a miss (and dropped — it can never be served
        again).  The returned container's arrays are read-only views of
        one map of the entry's data file when the tier was built with
        ``mmap=True``; that map and its views are held for the next
        promote of the same entry (up to :data:`HELD_MAPS` entries), so
        a held entry is promoted without opening or mapping anything.
        Every check runs on every promote all the same: the data file's
        size and the container's validating constructors (and the
        fingerprint with *verify*).  An entry that fails one (truncated
        file, manifest out of step with the file, malformed arrays) is
        dropped and reads as a miss.  The entry waits in
        :meth:`promoted`.
        """
        start = time.perf_counter()
        arrays = None
        with self._lock:
            entry = self._index.get(key)
            if entry is not None and epoch is not None and entry.epoch != int(epoch):
                self._forget_locked(key)
                shutil.rmtree(entry.path, ignore_errors=True)
                entry = None
            held = self._held.get(key)
            if entry is not None and held is not None and held[0] is entry:
                self._held.move_to_end(key)
                arrays = held[1]
        if entry is None:
            with self._lock:
                self.promote_misses += 1
            return None
        fresh = arrays is None
        try:
            if fresh:
                arrays = load_arrays(entry.path, entry.manifest, mmap=self.mmap)
            else:
                check_data_file(entry.path, entry.manifest)
            matrix = attach_arrays(
                entry.path, entry.manifest, arrays, verify=verify
            )
        except (OSError, ValidationError, ValueError):
            # torn or vanished entry: drop it and report a miss rather
            # than failing the request — the engine just re-converts.  A
            # demote may have replaced the entry since it was read; its
            # successor is left alone.
            with self._lock:
                if self._index.get(key) is entry:
                    self._forget_locked(key)
                    shutil.rmtree(entry.path, ignore_errors=True)
                self.promote_misses += 1
            return None
        with self._lock:
            if fresh and self.mmap and self._index.get(key) is entry:
                self._held[key] = (entry, arrays)
                if len(self._held) > HELD_MAPS:
                    self._held.popitem(last=False)
            self._promoted[matrix] = entry
            self.promotions += 1
            self.promote_seconds += time.perf_counter() - start
        return matrix

    def promoted(self, matrix: SparseMatrix) -> Optional[TierEntry]:
        """Hand over the index entry a promoted *matrix* was read from.

        Each promote is handed over once; ``None`` after that, or for a
        container this tier did not promote.
        """
        with self._lock:
            return self._promoted.pop(matrix, None)

    def indexes(self, key: str, entry: TierEntry) -> bool:
        """Whether *entry* is still the index entry for *key*."""
        with self._lock:
            return self._index.get(key) is entry

    def compact(
        self,
        key: str,
        overlay,
        base: SparseMatrix,
        *,
        format: Optional[str] = None,
        extra: Optional[dict] = None,
    ):
        """Compact a :class:`~repro.formats.delta.DeltaOverlay` to the tier.

        Materialises ``overlay.compact(base, format=format)`` — the
        epoch-stamped successor container — and writes it straight to
        disk under *key*, so the caller can drop the RAM copy and
        :meth:`promote` it back as mmap views on demand.  Returns
        ``(entry, successor)``.
        """
        successor = overlay.compact(base, format=format)
        entry = self.demote(key, successor, extra=extra)
        with self._lock:
            self.compactions += 1
        return entry, successor

    # ------------------------------------------------------------------
    # maintenance / inspection
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def remove(self, key: str) -> bool:
        """Drop *key*'s entry from the tier (no-op when absent).

        POSIX note: an already-promoted container keeps serving — its
        mmap views hold the unlinked files open until released.
        """
        with self._lock:
            entry = self._forget_locked(key)
        if entry is None:
            return False
        shutil.rmtree(entry.path, ignore_errors=True)
        return True

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        with self._lock:
            entries = list(self._index.values())
            self._index.clear()
            self._held.clear()
        for entry in entries:
            shutil.rmtree(entry.path, ignore_errors=True)
        return len(entries)

    def entries(self) -> List[TierEntry]:
        """Resident entries, oldest first (the ``repro storage`` view)."""
        with self._lock:
            return sorted(self._index.values(), key=lambda e: e.stored_at)

    def resident_bytes(self) -> int:
        with self._lock:
            return sum(e.nbytes for e in self._index.values())

    def stats(self) -> Dict[str, object]:
        """Residency + traffic counters (the ``stats()['storage']`` block)."""
        with self._lock:
            entries = list(self._index.values())
            return {
                "directory": self.directory,
                "entries": len(entries),
                "resident_bytes": sum(e.nbytes for e in entries),
                "capacity_bytes": self.capacity_bytes,
                "demotions": self.demotions,
                "promotions": self.promotions,
                "promote_misses": self.promote_misses,
                "compactions": self.compactions,
                "tier_evictions": self.tier_evictions,
                "demote_seconds": self.demote_seconds,
                "promote_seconds": self.promote_seconds,
                "bytes_written": self.bytes_written,
                "formats": sorted({e.format for e in entries}),
            }
