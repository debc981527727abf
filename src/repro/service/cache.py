"""Sharded, capacity-bounded LRU of per-matrix workload engines.

Service layer 1.  The online :class:`~repro.service.service.TuningService`
cannot hold a :class:`~repro.runtime.engine.WorkloadEngine` for every
matrix it has ever seen — under heavy traffic the set of live matrices is
unbounded — so engines live in a :class:`ShardedEngineCache`:

* the key space is split across ``shards`` independent shards, each with
  its **own** lock and its own LRU list, so requests for unrelated
  matrices never contend on a global cache lock;
* total capacity is bounded; when a shard exceeds its slice of the
  budget the least-recently-used engine is evicted (its cache counters
  and modelled seconds are first folded into the service-level totals via
  the ``on_evict`` hook, so accounting survives eviction);
* :meth:`ShardedEngineCache.lease` hands the caller the engine *while
  holding the shard lock*, which is what makes serving safe: an engine
  can only be evicted by another lease on the same shard, and that lease
  is blocked until the current one releases.

Shard assignment is a stable blake2b hash of the key, so the same matrix
always lands on the same shard across runs and processes.  The hash is
taken when a key enters the cache; while the key lives its shard is read
from :attr:`ShardedEngineCache.live`, which holds exactly the live keys.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, TypeVar

from repro.errors import ValidationError

__all__ = ["ShardedEngineCache"]

T = TypeVar("T")


def _stable_hash(key: str) -> int:
    """Deterministic (cross-process) integer hash of a cache key."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class _Shard:
    """One lock + LRU list + lookup tallies; all mutation happens under
    :attr:`lock`."""

    __slots__ = ("lock", "entries", "capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        self.lock = threading.Lock()
        self.entries: "OrderedDict[str, object]" = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def touch(self, key: str):
        """The live value for *key*, marked most recent and counted as a
        hit; ``None`` (nothing counted) when *key* is not live.  The
        caller holds :attr:`lock`."""
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
            self.hits += 1
        return value


class ShardedEngineCache:
    """Capacity-bounded LRU of lazily built values, sharded by key hash.

    Parameters
    ----------
    factory:
        Zero-argument callable building a fresh value (engine) on a miss.
    capacity:
        Total number of values kept alive across all shards (>= 1).
    shards:
        Number of independent lock domains; clamped to ``capacity`` so
        every shard owns at least one slot.  With ``capacity=1`` the
        cache degenerates to a single shard holding a single engine —
        the deterministic-eviction configuration the tests use.
    on_evict:
        Optional hook called with ``(key, value)`` right after a value
        leaves the cache (still under the shard lock); the service uses
        it to fold the evicted engine's accounting into its own totals.
    pinned:
        Optional predicate ``(key, value) -> bool``; entries it returns
        ``True`` for are exempt from eviction.  The LRU walk skips them
        and evicts the oldest unpinned entry instead; when *every*
        entry in an over-budget shard is pinned, the shard is allowed
        to overflow its slice rather than discard a pinned value.  The
        service pins engines holding mutated streams — their merged
        content exists nowhere else, so evicting one would silently
        lose acknowledged matrix updates.
    """

    def __init__(
        self,
        factory: Callable[[], T],
        *,
        capacity: int = 64,
        shards: int = 8,
        on_evict: Optional[Callable[[str, T], None]] = None,
        pinned: Optional[Callable[[str, T], bool]] = None,
    ) -> None:
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        self.factory = factory
        self.capacity = int(capacity)
        self.n_shards = min(int(shards), self.capacity)
        # distribute the budget: the first (capacity % shards) shards get
        # one extra slot, so per-shard capacities always sum to `capacity`
        base, extra = divmod(self.capacity, self.n_shards)
        self._shards: List[_Shard] = [
            _Shard(base + (1 if i < extra else 0)) for i in range(self.n_shards)
        ]
        self.on_evict = on_evict
        self.pinned = pinned
        #: The shard of every live key: set when the key enters the
        #: cache and dropped when it is evicted, so it never holds more
        #: keys than the cache does.  Read without a lock; a reader that
        #: races an eviction finds the key gone under the shard lock.
        self.live: Dict[str, _Shard] = {}

    # ------------------------------------------------------------------
    def shard_of(self, key: str) -> int:
        """Stable shard index for *key* (same key, same shard, any run)."""
        return _stable_hash(key) % self.n_shards

    @property
    def hits(self) -> int:
        """Leases that found their key live (summed over shards)."""
        return sum(s.hits for s in self._shards)

    @property
    def misses(self) -> int:
        """Leases that built a fresh value (summed over shards)."""
        return sum(s.misses for s in self._shards)

    @property
    def evictions(self) -> int:
        """Values evicted by the LRU walk (summed over shards)."""
        return sum(s.evictions for s in self._shards)

    def __len__(self) -> int:
        return sum(len(s.entries) for s in self._shards)

    def __contains__(self, key: str) -> bool:
        return key in self.live

    @contextmanager
    def lease(self, key: str) -> Iterator[T]:
        """Yield the (get-or-created) value for *key* under its shard lock.

        Holding the shard lock for the whole lease serialises work on
        matrices sharing a shard while leaving every other shard free —
        and guarantees the leased value cannot be evicted mid-use, since
        eviction only happens under the same lock.
        """
        shard = self.live.get(key)
        if shard is None:
            shard = self._shards[self.shard_of(key)]
        with shard.lock:
            value = shard.touch(key)
            if value is None:
                shard.misses += 1
                value = self.factory()
                shard.entries[key] = value
                self.live[key] = shard
                while len(shard.entries) > shard.capacity:
                    victim = None
                    for old_key, old_value in shard.entries.items():
                        if old_key is key:
                            continue  # never evict the entry being leased
                        if self.pinned is not None and self.pinned(
                            old_key, old_value
                        ):
                            continue
                        victim = (old_key, old_value)
                        break
                    if victim is None:
                        # every candidate is pinned: overflow the shard
                        # rather than lose un-reconstructable state
                        break
                    old_key, old_value = victim
                    del shard.entries[old_key]
                    del self.live[old_key]
                    shard.evictions += 1
                    if self.on_evict is not None:
                        self.on_evict(old_key, old_value)
            yield value

    def values(self) -> List[T]:
        """Snapshot of the live values (for stats aggregation)."""
        out: List[T] = []
        for shard in self._shards:
            with shard.lock:
                out.extend(shard.entries.values())
        return out

    def apply(self, fn: Callable[[str, T], None]) -> int:
        """Run *fn(key, value)* on every live entry under its shard lock.

        Shards are visited one at a time, so *fn* never races a lease on
        the same entry: a drain serving a batch holds its shard lock and
        the apply waits for it.  This is what makes a model hot-swap
        atomic per engine — an in-flight batch finishes under the old
        model, everything after the apply sees the new one.  Returns the
        number of entries visited.
        """
        visited = 0
        for shard in self._shards:
            with shard.lock:
                for key, value in shard.entries.items():
                    fn(key, value)
                    visited += 1
        return visited

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Lookup/eviction tallies and per-shard occupancy."""
        hits, misses, evictions = self.hits, self.misses, self.evictions
        sizes = [len(s.entries) for s in self._shards]
        total = hits + misses
        return {
            "capacity": self.capacity,
            "shards": self.n_shards,
            "size": sum(sizes),
            "shard_sizes": sizes,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "evictions": evictions,
        }
