"""Memory-tiered matrix storage: the disk tier of the serving stack.

Everything above this package treats RAM as the only home a container
can have; :mod:`repro.storage` turns the filesystem into a second tier
of the memory hierarchy instead of a cliff:

* :mod:`repro.storage.persist` — one directory per container: a
  ``manifest.json`` plus one data file holding every array at an
  aligned offset, one blake2b content fingerprint, atomic publication,
  and zero-copy re-attachment through a single ``np.memmap`` of the
  data file, for all six registered formats including the nested
  HYB/HDC composites.
* :mod:`repro.storage.tier` — the :class:`StorageTier` demote/promote
  store the engine cache spills cold converted containers into; a
  promote hands back the container (from the entry's map, held between
  promotes and re-checked on each) and then its entry, round
  trips are bitwise-stable and the residency/traffic counters feed the
  ``repro.obs`` registry.
* :mod:`repro.storage.stream` — row-block streaming SpMV/SpMM over
  mmapped CSR arrays: cache-sized row panels, producing results
  bitwise-identical to the in-RAM path for matrices larger than RAM.
"""

from repro.storage.persist import (
    container_arrays,
    container_fingerprint,
    load_container,
    save_container,
)
from repro.storage.stream import (
    iter_row_blocks,
    plan_block_rows,
    streaming_spmm,
    streaming_spmv,
)
from repro.storage.tier import StorageTier, TierEntry

__all__ = [
    "StorageTier",
    "TierEntry",
    "container_arrays",
    "container_fingerprint",
    "iter_row_blocks",
    "load_container",
    "plan_block_rows",
    "save_container",
    "streaming_spmm",
    "streaming_spmv",
]
