"""Container persistence: one mapped data file per entry, mmap reattach.

A persisted container is one *directory* holding ``manifest.json`` plus
one data file, ``arrays.bin``.  The data file holds every defining
array back to back, each at a 64-byte-aligned offset the manifest
records with its dtype and shape; nothing else is in it.  A re-attach
maps the file once (``np.memmap(..., mode="r")``) and slices the arrays
out of the map as page-cache-backed views with zero bytes copied, which
is what makes the disk tier a real memory tier.  Re-attaching is two
steps: :func:`load_arrays` checks the data file's size and maps it;
:func:`attach_arrays` runs every content check and builds the
container.  The disk tier keeps the first step's views between
promotes of an entry and repeats only the size check and the second
step (:mod:`repro.storage.tier`).  The arrays per format:

========  ==========================================================
format    arrays
========  ==========================================================
COO       ``row`` / ``col`` / ``data``
CSR       ``row_ptr`` / ``col_idx`` / ``data``
DIA       ``offsets`` / ``data``
ELL       ``col_idx`` / ``data``
HYB       ``ell__col_idx`` / ``ell__data`` / ``coo__row`` / ...
HDC       ``dia__offsets`` / ``dia__data`` / ``csr__row_ptr`` / ...
========  ==========================================================

CSR index arrays (``row_ptr``, ``col_idx`` and HDC's ``csr__`` ones)
are int32 or int64, as the container stores them
(:class:`~repro.formats.csr.CSRMatrix`); every other index array is
int64.  Older entries still promote: int64 CSR arrays written before
CSR narrowed its indices are narrowed by the constructor, and the CSR
image an older entry may hold beside its container (the ``operator__``
arrays, written while ELL, HYB and HDC were served through one) is
covered by the fingerprint and otherwise ignored.

Publication is atomic: the data file and manifest are written into a
hidden sibling temp directory, any previous entry is removed and the
temp directory is ``os.rename``d into place, so a reader never observes
a half-written entry.  The manifest carries one blake2b content
fingerprint over every array in the file.  A round trip is
bitwise-stable by construction: the bytes written are the exact
read-only buffers the frozen container holds, and re-attachment feeds
them back through the normal validating constructors, which never copy
an already-contiguous buffer of the dtype they store.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import FormatError, ValidationError
from repro.formats.base import FORMAT_IDS, SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.hdc import HDCMatrix
from repro.formats.hyb import HYBMatrix

__all__ = [
    "DATA_NAME",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "attach_arrays",
    "check_data_file",
    "container_arrays",
    "container_fingerprint",
    "load_arrays",
    "load_container",
    "read_manifest",
    "save_container",
]

MANIFEST_NAME = "manifest.json"
DATA_NAME = "arrays.bin"
MANIFEST_VERSION = 2

#: Byte alignment of every array inside the data file.
_ALIGN = 64

#: Defining attribute arrays per leaf format, in fingerprint order.
_LEAF_ARRAYS = {
    "COO": ("row", "col", "data"),
    "CSR": ("row_ptr", "col_idx", "data"),
    "DIA": ("offsets", "data"),
    "ELL": ("col_idx", "data"),
}

#: Composite formats: (attribute, nested format) pairs, in order.
_COMPOSITES = {
    "HYB": (("ell", "ELL"), ("coo", "COO")),
    "HDC": (("dia", "DIA"), ("csr", "CSR")),
}

#: Separator between a composite prefix and a nested array name.
_SEP = "__"

#: The CSR image an older entry may hold after its container's arrays,
#: in file order: read, fingerprinted, never used.
_OLD_IMAGE = ("operator__indptr", "operator__indices", "operator__data")


def container_arrays(matrix: SparseMatrix) -> Dict[str, np.ndarray]:
    """The flattened ``name -> defining array`` map of *matrix*.

    Composite formats contribute their sub-blocks under a prefix
    (``ell__data``, ``csr__row_ptr``, ...).  Iteration order is
    deterministic — it is the fingerprint and file-write order.
    """
    fmt = matrix.format.upper()
    if fmt in _LEAF_ARRAYS:
        return {name: getattr(matrix, name) for name in _LEAF_ARRAYS[fmt]}
    if fmt in _COMPOSITES:
        out: Dict[str, np.ndarray] = {}
        for attr, sub_fmt in _COMPOSITES[fmt]:
            block = getattr(matrix, attr)
            for name in _LEAF_ARRAYS[sub_fmt]:
                out[f"{attr}{_SEP}{name}"] = getattr(block, name)
        return out
    raise FormatError(f"cannot persist unknown format {matrix.format!r}")


def _expected_dtypes(fmt: str, name: str) -> Tuple[str, ...]:
    """The dtypes array *name* of a *fmt* entry may be persisted with
    (none: a *fmt* entry holds no such array)."""
    if name not in _required_arrays(fmt) and name not in _OLD_IMAGE:
        return ()
    if name.endswith("data"):
        return ("<f8",)
    if fmt == "CSR" or name.startswith("csr" + _SEP) or name in _OLD_IMAGE:
        return ("<i4", "<i8")  # CSRMatrix's width rule
    return ("<i8",)


def _fingerprint(
    fmt: str, nrows: int, ncols: int, arrays: Dict[str, np.ndarray]
) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{fmt}:{nrows}x{ncols}:".encode())
    for name, arr in arrays.items():
        digest.update(
            f"{name}:{arr.dtype.str}:{arr.shape}:".encode()
        )
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def container_fingerprint(matrix: SparseMatrix) -> str:
    """blake2b-128 content fingerprint of a container.

    Covers the format, the shape, and every defining array's dtype,
    shape and raw bytes — two containers share a fingerprint iff they
    are bitwise-identical in layout and content.
    """
    return _fingerprint(
        matrix.format, matrix.nrows, matrix.ncols, container_arrays(matrix)
    )


def _nbytes(dtype, shape) -> int:
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


def _layout(specs) -> Tuple[Dict[str, int], int]:
    """Aligned offsets for ``(name, dtype, shape)`` specs packed in order,
    and the data file's total length."""
    offsets: Dict[str, int] = {}
    end = 0
    for name, dtype, shape in specs:
        start = -(-end // _ALIGN) * _ALIGN
        offsets[name] = start
        end = start + _nbytes(dtype, shape)
    return offsets, end


def save_container(
    matrix: SparseMatrix,
    directory: str,
    *,
    extra: Optional[dict] = None,
) -> dict:
    """Persist *matrix* into *directory* atomically; returns the manifest.

    The entry is built in a hidden temp sibling and renamed into place
    (same-filesystem rename is atomic), so concurrent readers observe
    either nothing or the complete entry.  If *directory* already
    exists it is renamed aside first and removed once the new entry is
    in place.  *extra* is stored verbatim in the manifest
    under ``"extra"`` — the tier uses it for decision metadata.
    """
    fmt = matrix.format.upper()
    if fmt not in FORMAT_IDS:
        raise FormatError(f"cannot persist unknown format {matrix.format!r}")
    arrays = {
        name: np.ascontiguousarray(arr)
        for name, arr in container_arrays(matrix).items()
    }
    for name, arr in arrays.items():
        if arr.dtype.str not in _expected_dtypes(fmt, name):
            raise ValidationError(
                f"cannot persist array {name!r} of dtype {arr.dtype.str}"
            )
    offsets, data_bytes = _layout(
        (name, arr.dtype, arr.shape) for name, arr in arrays.items()
    )
    manifest = {
        "version": MANIFEST_VERSION,
        "format": fmt,
        "nrows": matrix.nrows,
        "ncols": matrix.ncols,
        "nnz": int(matrix.nnz),
        "nbytes": int(matrix.nbytes()),
        "epoch": int(matrix.epoch),
        "stable_id": matrix.stable_id if matrix.has_identity else None,
        "fingerprint": _fingerprint(fmt, matrix.nrows, matrix.ncols, arrays),
        "data_bytes": data_bytes,
        "arrays": {
            name: {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offsets[name],
            }
            for name, arr in arrays.items()
        },
        "extra": dict(extra or {}),
    }
    parent = os.path.dirname(os.path.abspath(directory)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".tier-", dir=parent)
    old = None
    try:
        with open(os.path.join(tmp, DATA_NAME), "wb") as fh:
            for name, arr in arrays.items():
                fh.seek(offsets[name])
                fh.write(arr.data)
            fh.truncate(data_bytes)
        with open(os.path.join(tmp, MANIFEST_NAME), "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        if os.path.isdir(directory):
            old = tempfile.mkdtemp(prefix=".tier-old-", dir=parent)
            os.rename(directory, os.path.join(old, "entry"))
        os.rename(tmp, directory)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    finally:
        if old is not None:
            shutil.rmtree(old, ignore_errors=True)
    return manifest


def _required_arrays(fmt: str) -> Tuple[str, ...]:
    if fmt in _LEAF_ARRAYS:
        return _LEAF_ARRAYS[fmt]
    return tuple(
        f"{attr}{_SEP}{name}"
        for attr, sub_fmt in _COMPOSITES[fmt]
        for name in _LEAF_ARRAYS[sub_fmt]
    )


def _check_manifest(manifest: dict, path: str) -> None:
    """Raise unless *manifest* describes a complete, packed v2 entry."""
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValidationError(
            f"unsupported tier manifest version {manifest.get('version')!r} "
            f"in {path} (expected {MANIFEST_VERSION})"
        )
    fmt = manifest.get("format")
    if fmt not in FORMAT_IDS:
        raise ValidationError(
            f"tier manifest {path} names unknown format {fmt!r}"
        )
    arrays = manifest.get("arrays")
    if not isinstance(arrays, dict):
        raise ValidationError(f"tier manifest {path} has no array table")
    if not set(_required_arrays(fmt)) <= set(arrays):
        raise ValidationError(
            f"tier manifest {path} lists arrays {sorted(arrays)}, "
            f"expected {sorted(_required_arrays(fmt))}"
        )
    specs = []
    for name, spec in arrays.items():
        shape = spec.get("shape") if isinstance(spec, dict) else None
        if (
            shape is None
            or spec.get("dtype") not in _expected_dtypes(fmt, name)
            or not isinstance(shape, list)
            or not all(isinstance(n, int) and n >= 0 for n in shape)
            or not isinstance(spec.get("offset"), int)
        ):
            raise ValidationError(
                f"tier manifest {path} array {name!r} has a bad spec {spec}"
            )
        specs.append((
            spec["offset"],
            _nbytes(spec["dtype"], shape),
            name,
            spec["dtype"],
            shape,
        ))
    # empty arrays share their offset with the next array: order them first
    specs.sort()
    offsets, data_bytes = _layout(spec[2:] for spec in specs)
    if data_bytes != manifest.get("data_bytes") or any(
        offsets[name] != offset for offset, _, name, _, _ in specs
    ):
        raise ValidationError(
            f"tier manifest {path} does not describe a packed data file"
        )


def read_manifest(directory: str) -> dict:
    """Load a persisted entry's manifest and check its layout."""
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "r") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValidationError(f"tier manifest {path} is not an object")
    _check_manifest(manifest, path)
    return manifest


def check_data_file(directory: str, manifest: dict) -> None:
    """Raise unless the entry's data file is as long as *manifest* says.

    A map of a file cut short raises ``SIGBUS`` when a page past the new
    end is touched, so a map is read only after this check passes —
    :class:`~repro.storage.tier.StorageTier` runs it on every promote,
    of a held map too.
    """
    path = os.path.join(directory, DATA_NAME)
    size = manifest["data_bytes"]
    actual = os.path.getsize(path)
    if actual != size:
        raise ValidationError(
            f"tier data file {path} holds {actual} bytes, its manifest "
            f"describes {size}"
        )


def load_arrays(
    directory: str, manifest: dict, *, mmap: bool = True
) -> Dict[str, np.ndarray]:
    """The ``name -> array`` map of the entry *manifest* describes.

    *manifest* is the entry's checked manifest (:func:`read_manifest`);
    a caller that keeps it parses no JSON here.  Checks the data file's
    size first (:func:`check_data_file`).  With ``mmap=True`` (the
    default) the file is mapped once and every array is a read-only
    view of that map — nothing is read until a kernel touches it, so a
    promoted container costs pages, not resident bytes; otherwise each
    array is read into RAM.  Nothing here checks the arrays' contents:
    :func:`attach_arrays` does, each time they are attached.
    """
    check_data_file(directory, manifest)
    path = os.path.join(directory, DATA_NAME)
    specs = [
        (
            name,
            np.dtype(spec["dtype"]),
            tuple(spec["shape"]),
            spec["offset"],
            _nbytes(spec["dtype"], spec["shape"]),
        )
        for name, spec in manifest["arrays"].items()
    ]
    if mmap and manifest["data_bytes"]:  # np.memmap cannot map an empty file
        buf = np.memmap(path, dtype=np.uint8, mode="r")
        # each array is a memmap of exactly its own elements, handed
        # out as a plain ndarray view: mmap_backed() still finds the
        # map through its base
        return {
            name: buf[offset:offset + nbytes]
            .view(dtype)
            .view(np.ndarray)
            .reshape(shape)
            for name, dtype, shape, offset, nbytes in specs
        }
    arrays: Dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        for name, dtype, shape, offset, nbytes in specs:
            arr = np.empty(shape, dtype=dtype)
            fh.seek(offset)
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise ValidationError(f"tier data file {path} is truncated")
            arrays[name] = arr
    return arrays


def _build(fmt: str, nrows: int, ncols: int, arrays: Dict[str, np.ndarray]):
    if fmt == "COO":
        # persisted COO came from a frozen container: already canonical
        return COOMatrix(
            nrows, ncols, arrays["row"], arrays["col"], arrays["data"],
            canonical=True,
        )
    if fmt == "CSR":
        return CSRMatrix(
            nrows, ncols, arrays["row_ptr"], arrays["col_idx"], arrays["data"]
        )
    if fmt == "DIA":
        return DIAMatrix(nrows, ncols, arrays["offsets"], arrays["data"])
    if fmt == "ELL":
        return ELLMatrix(nrows, ncols, arrays["col_idx"], arrays["data"])
    if fmt == "HYB":
        return HYBMatrix(
            _build("ELL", nrows, ncols, _sub(arrays, "ell")),
            _build("COO", nrows, ncols, _sub(arrays, "coo")),
        )
    if fmt == "HDC":
        return HDCMatrix(
            _build("DIA", nrows, ncols, _sub(arrays, "dia")),
            _build("CSR", nrows, ncols, _sub(arrays, "csr")),
        )
    raise FormatError(f"cannot load unknown format {fmt!r}")


def _sub(arrays: Dict[str, np.ndarray], prefix: str) -> Dict[str, np.ndarray]:
    tag = prefix + _SEP
    return {
        name[len(tag):]: arr
        for name, arr in arrays.items()
        if name.startswith(tag)
    }


def attach_arrays(
    directory: str,
    manifest: dict,
    arrays: Dict[str, np.ndarray],
    *,
    verify: bool = False,
) -> SparseMatrix:
    """Build the entry's container from its *arrays*.

    *arrays* is what :func:`load_arrays` returned for *manifest*, fresh
    or held from an earlier attach: either way every check runs again.
    The container's arrays pass through the normal validating
    constructors, which never copy an already-contiguous buffer of the
    dtype they store, so the round trip is bitwise-stable.
    ``verify=True`` recomputes the content fingerprint over every array
    the data file holds, in file order (reads every byte; an older
    entry's CSR image too), and raises :class:`ValidationError` on
    mismatch.
    """
    fmt, nrows, ncols = manifest["format"], manifest["nrows"], manifest["ncols"]
    matrix = _build(fmt, nrows, ncols, arrays)
    # restore the epoch identity so (stable_id, epoch) cache keys keep
    # resolving to the same version after a demote/promote round trip
    if manifest.get("stable_id"):
        matrix._stable_id = manifest["stable_id"]
    matrix._epoch = int(manifest.get("epoch", 0))
    if verify:
        names = _required_arrays(fmt) + tuple(
            name for name in _OLD_IMAGE if name in arrays
        )
        actual = _fingerprint(
            fmt, nrows, ncols, {name: arrays[name] for name in names}
        )
        if actual != manifest["fingerprint"]:
            raise ValidationError(
                f"tier entry {directory} failed fingerprint verification: "
                f"{actual} != {manifest['fingerprint']}"
            )
    return matrix


def load_container(
    directory: str, *, mmap: bool = True, verify: bool = False
) -> SparseMatrix:
    """Re-attach the container persisted in *directory*.

    Reads and checks the manifest, then :func:`load_arrays` and
    :func:`attach_arrays`.
    """
    manifest = read_manifest(directory)
    arrays = load_arrays(directory, manifest, mmap=mmap)
    return attach_arrays(directory, manifest, arrays, verify=verify)
