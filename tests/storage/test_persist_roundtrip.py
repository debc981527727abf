"""Container persistence: one-data-file entry round trips, bitwise.

Every registered format must survive ``save_container`` →
``load_container`` on the same adversarial corpus the format
round-trip suite uses (empty matrices, emptied rows, duplicates,
rectangles), in both load modes:

* ``mmap=True`` — arrays come back as read-only memory-mapped views
  (the promotion path): identical canonical COO arrays, identical
  fingerprint, identical SpMV bits;
* ``mmap=False`` — plain in-RAM arrays, same contract.

The fingerprint in the manifest is the integrity anchor: ``verify=True``
recomputes it over the loaded bytes, so a torn or truncated entry can
never serve silently-wrong values.
"""

from __future__ import annotations

import importlib.util
import os
import pathlib

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.formats import convert
from repro.storage.persist import (
    DATA_NAME,
    container_arrays,
    container_fingerprint,
    load_container,
    read_manifest,
    save_container,
)
from repro.storage.stream import mmap_backed


def _load_adversarial_module():
    path = (
        pathlib.Path(__file__).resolve().parent.parent
        / "formats"
        / "test_roundtrip_adversarial.py"
    )
    spec = importlib.util.spec_from_file_location(
        "_storage_adversarial_cases", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ADVERSARIAL = _load_adversarial_module()
ALL_FORMATS = _ADVERSARIAL.ALL_FORMATS
CASES = _ADVERSARIAL.CASES


@pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "ram"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_roundtrip_bitwise(fmt, case, mmap, tmp_path):
    coo = CASES[case]
    container = convert(coo, fmt)
    path = str(tmp_path / "entry")
    save_container(container, path)
    back = load_container(path, mmap=mmap, verify=True)
    assert back.format == fmt
    assert back.shape == container.shape
    got = back.to_coo()
    np.testing.assert_array_equal(got.row, coo.row)
    np.testing.assert_array_equal(got.col, coo.col)
    assert np.array_equal(got.data, coo.data)
    assert container_fingerprint(back) == container_fingerprint(container)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_spmv_bitwise_over_mmap(fmt, tmp_path):
    coo = CASES["random_blob"]
    container = convert(coo, fmt)
    path = str(tmp_path / "entry")
    save_container(container, path)
    back = load_container(path, mmap=True)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(coo.ncols)
    assert np.array_equal(back.spmv(x), container.spmv(x))


def test_mmap_views_are_read_only(tmp_path):
    container = convert(CASES["random_blob"], "CSR")
    path = str(tmp_path / "entry")
    save_container(container, path)
    back = load_container(path, mmap=True)
    assert mmap_backed(back)
    for name, arr in container_arrays(back).items():
        assert not arr.flags.writeable, f"{name} must be read-only"
    assert not mmap_backed(load_container(path, mmap=False))


def test_manifest_records_shape_and_extra(tmp_path):
    container = convert(CASES["wide"], "CSR")
    path = str(tmp_path / "entry")
    save_container(container, path, extra={"backend": "numpy"})
    manifest = read_manifest(path)
    assert manifest["format"] == "CSR"
    assert manifest["nrows"] == container.nrows
    assert manifest["ncols"] == container.ncols
    assert manifest["nnz"] == container.nnz
    assert manifest["extra"]["backend"] == "numpy"


def test_verify_catches_corruption(tmp_path):
    container = convert(CASES["random_blob"], "CSR")
    path = str(tmp_path / "entry")
    manifest = save_container(container, path)
    data_file = os.path.join(path, DATA_NAME)
    with open(data_file, "rb") as fh:
        raw = bytearray(fh.read())
    raw[manifest["arrays"]["data"]["offset"]] ^= 0xFF  # one byte of `data`
    with open(data_file, "wb") as fh:
        fh.write(raw)
    with pytest.raises(ValidationError):
        load_container(path, mmap=False, verify=True)
    # without verify the (cheap) load still succeeds — verification is
    # the caller's opt-in integrity level
    load_container(path, mmap=False, verify=False)


def test_save_replaces_previous_entry_atomically(tmp_path):
    path = str(tmp_path / "entry")
    first = convert(CASES["wide"], "CSR")
    second = convert(CASES["tall"], "CSR")
    save_container(first, path)
    save_container(second, path)
    back = load_container(path, mmap=True, verify=True)
    assert back.shape == second.shape
    assert not [
        name
        for name in os.listdir(tmp_path)
        if name.startswith(".tier-")
    ], "temp staging directories must not survive publication"
