"""Service-level tiering: eviction demotes, hits promote, bits hold.

The load-bearing assertion: a service with a tiny engine cache and a
disk tier serves a multi-round workload **bitwise identical** to a
storage-free reference service — demotion, promotion and streaming are
pure placement decisions, invisible in the numbers.  The rlimit-gated
test proves the point of the whole layer: under a hard RLIMIT_DATA
budget that makes the in-RAM copy unbuildable, the mmap-promoted
streaming path still serves (skipped cleanly where rlimits cannot be
lowered).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.core.tuners.base import Tuner, TuningReport
from repro.formats import convert
from repro.formats.base import FORMAT_IDS
from repro.formats.coo import COOMatrix
from repro.machine.stats import MatrixStats
from repro.service import TuningService
from repro.storage.persist import DATA_NAME, MANIFEST_NAME
from repro.storage.stream import plan_block_rows


def _matrices(count=4, seed=17):
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(count):
        shape = (31 + 7 * i, 29 + 5 * i)
        dense = (rng.random(shape) < 0.2) * rng.standard_normal(shape)
        out[f"mx{i}"] = COOMatrix.from_dense(dense)
    return out


@pytest.fixture
def space():
    return make_space("cirrus", "serial")


def _serve_rounds(service, matrices, rounds=3, seed=23):
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(rounds):
        for key, matrix in matrices.items():
            x = rng.standard_normal(matrix.ncols)
            results.append(service.spmv(matrix, x, key=key).y)
    return results


def test_demote_promote_cycle_is_bitwise(space, tmp_path):
    matrices = _matrices()
    with TuningService(
        space,
        RunFirstTuner(),
        workers=2,
        capacity=2,  # 4 matrices through 2 slots: every round evicts
        shards=1,
        storage_dir=str(tmp_path / "tier"),
    ) as tiered:
        got = _serve_rounds(tiered, matrices)
        stats = tiered.stats()
    with TuningService(
        space, RunFirstTuner(), workers=2, capacity=2, shards=1
    ) as plain:
        want = _serve_rounds(plain, matrices)
        plain_stats = plain.stats()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    storage = stats["storage"]
    assert storage["demotions"] > 0
    assert storage["promotions"] > 0
    assert storage["entries"] > 0
    # the storage block exists only when a tier is configured — the
    # cross-tier stats-parity contract stays intact without one
    assert "storage" not in plain_stats


def test_promotion_restores_decision_without_retune(space, tmp_path):
    matrices = _matrices(count=3)
    with TuningService(
        space,
        RunFirstTuner(),
        workers=1,
        capacity=1,
        shards=1,
        storage_dir=str(tmp_path / "tier"),
    ) as service:
        _serve_rounds(service, matrices, rounds=2)
        stats = service.stats()
    engines = stats["engines"]
    storage = stats["storage"]
    assert storage["promotions"] >= len(matrices)
    # promotion adopts the persisted container + decision: round two
    # re-serves every matrix without paying conversion again
    assert engines["counters"]["conversion_misses"] == len(matrices)


def test_promote_and_stream_appear_as_span_stages(space, tmp_path):
    matrices = _matrices(count=3)
    with TuningService(
        space,
        RunFirstTuner(),
        workers=1,
        capacity=1,
        shards=1,
        storage_dir=str(tmp_path / "tier"),
        stream_threshold_bytes=0,
        stream_block_bytes=1 << 9,
    ) as service:
        _serve_rounds(service, matrices, rounds=2)
        spans = service.obs.spans.drain_since(0)
        stats = service.stats()
    stages = [set(s.get("stages", {})) for s in spans]
    assert any("promote" in s for s in stages)
    assert any("stream" in s for s in stages)
    assert stats["engines"]["streaming"]["requests"] > 0


def test_streaming_stats_fold_through_service_totals(space, tmp_path):
    matrices = _matrices(count=3)
    with TuningService(
        space,
        RunFirstTuner(),
        workers=1,
        capacity=1,  # every engine retires; totals must still carry it
        shards=1,
        storage_dir=str(tmp_path / "tier"),
        stream_threshold_bytes=0,
    ) as service:
        got = _serve_rounds(service, matrices, rounds=3)
        stats = service.stats()
    with TuningService(
        space, RunFirstTuner(), workers=1, capacity=1, shards=1
    ) as plain:
        want = _serve_rounds(plain, matrices, rounds=3)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    streaming = stats["engines"]["streaming"]
    assert streaming["requests"] > 0
    assert streaming["blocks"] >= streaming["requests"]
    assert streaming["seconds"] > 0.0


class _CSRTuner(Tuner):
    """Serves every matrix in CSR, the format that streams."""

    def tune(self, matrix, space, *, stats=None, matrix_key=""):
        return TuningReport(format_id=FORMAT_IDS["CSR"])


def test_forced_streaming_serves_several_panels_per_request(space, tmp_path):
    """With a panel budget of a few KiB, every promoted request streams
    over several row panels and still matches the in-RAM path bit for
    bit.  (At the default 8 MiB budget these matrices fit one panel, so
    a forced-streaming serve never leaves the single-panel case.)"""
    block_bytes = 2 << 10
    rng = np.random.default_rng(5)
    matrices = {}
    for i in range(4):
        shape = (120 + 40 * i, 100 + 30 * i)
        dense = (rng.random(shape) < 0.08) * rng.standard_normal(shape)
        matrices[f"panelled{i}"] = COOMatrix.from_dense(dense)
    panels = {
        key: -(-m.nrows // plan_block_rows(convert(m, "CSR"), block_bytes))
        for key, m in matrices.items()
    }
    assert min(panels.values()) > 1
    with TuningService(
        space,
        _CSRTuner(),
        workers=1,
        capacity=1,
        shards=1,
        storage_dir=str(tmp_path / "tier"),
        stream_threshold_bytes=0,
        stream_block_bytes=block_bytes,
    ) as service:
        got = _serve_rounds(service, matrices, rounds=3)
        spans = service.obs.spans.drain_since(0)
        stats = service.stats()
    with TuningService(
        space, _CSRTuner(), workers=1, capacity=1, shards=1
    ) as plain:
        want = _serve_rounds(plain, matrices, rounds=3)
    assert len(got) == len(want) == 3 * len(matrices)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    streaming = stats["engines"]["streaming"]
    assert streaming["blocks"] > streaming["requests"]
    # rounds two and three promote every matrix, and each promoted
    # request streams over its matrix's planned panels
    promoted = [s for s in spans if "promote" in s["stages"]]
    streamed = [s for s in spans if "stream" in s["stages"]]
    assert len(promoted) == 2 * len(matrices)
    assert streamed == promoted
    assert streaming["requests"] == len(streamed)
    assert streaming["blocks"] == sum(panels[s["fingerprint"]] for s in streamed)


def test_storage_gauges_reach_metrics_registry(space, tmp_path):
    matrices = _matrices(count=3)
    with TuningService(
        space,
        RunFirstTuner(),
        workers=1,
        capacity=1,
        shards=1,
        storage_dir=str(tmp_path / "tier"),
    ) as service:
        _serve_rounds(service, matrices, rounds=2)
        records = {
            r["name"]: r["value"]
            for r in service.obs.registry.dump()
            if r["type"] == "gauge"
        }
    assert records.get("storage_demotions", 0) > 0
    assert records.get("storage_promotions", 0) > 0
    assert records.get("storage_entries", 0) > 0


def test_tier_survives_service_restart(space, tmp_path):
    matrices = _matrices(count=2)
    tier_dir = str(tmp_path / "tier")
    kwargs = dict(
        workers=1, capacity=1, shards=1, storage_dir=tier_dir
    )
    with TuningService(space, RunFirstTuner(), **kwargs) as first:
        want = _serve_rounds(first, matrices, rounds=1)
    with TuningService(space, RunFirstTuner(), **kwargs) as second:
        got = _serve_rounds(second, matrices, rounds=1)
        stats = second.stats()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    # the reborn service found the previous process's entries on disk
    assert stats["storage"]["promotions"] > 0


# ----------------------------------------------------------------------
# failure paths of the one-data-file layout: each ends as a promote miss
# ----------------------------------------------------------------------
def _poke(entry, name, index, value):
    """Overwrite one element of array *name* inside *entry*'s data file."""
    spec = entry.manifest["arrays"][name]
    arr = np.memmap(
        os.path.join(entry.path, DATA_NAME),
        dtype=spec["dtype"],
        mode="r+",
        offset=spec["offset"],
        shape=tuple(spec["shape"]),
    )
    arr[index] = value(arr) if callable(value) else value
    arr.flush()
    del arr


def _truncate(entry):
    path = os.path.join(entry.path, DATA_NAME)
    os.truncate(path, os.path.getsize(path) - 8)


def _index_past_ncols(entry):
    # a column index one past its bound; for DIA, the last offset
    # one past ncols - 1
    if entry.format == "DIA":
        _poke(entry, "offsets", -1, entry.ncols)
    else:
        name = "col" if entry.format == "COO" else "col_idx"
        _poke(entry, name, 0, entry.ncols)


def _indptr_not_monotone(entry):
    if entry.format == "DIA":
        # the last two offsets equal: not increasing (the last diagonal
        # then reaches further left, into slots its padding kept zero)
        _poke(entry, "offsets", -1, lambda offsets: offsets[-2])
    elif entry.format == "COO":  # the first row one past its bound
        _poke(entry, "row", 0, entry.nrows)
    else:
        # row 1 claims to end where the last row does: row 2 then runs
        # backwards
        _poke(entry, "row_ptr", 1, lambda ptr: ptr[-1])


def _rewrite_manifest(entry, edit):
    path = os.path.join(entry.path, MANIFEST_NAME)
    with open(path) as fh:
        manifest = json.load(fh)
    edit(manifest["arrays"])
    with open(path, "w") as fh:
        json.dump(manifest, fh)


def _manifest_dtype(entry):
    _rewrite_manifest(
        entry, lambda arrays: arrays["data"].update(dtype="<i8")
    )


def _manifest_shape(entry):
    def edit(arrays):
        arrays["data"]["shape"][-1] -= 1

    _rewrite_manifest(entry, edit)


@pytest.mark.parametrize("fmt", ["CSR", "DIA", "COO"])
@pytest.mark.parametrize(
    "corrupt",
    [
        _truncate,
        _index_past_ncols,
        _indptr_not_monotone,
        _manifest_dtype,
        _manifest_shape,
    ],
    ids=["truncated", "index-past-ncols", "indptr-not-monotone",
         "manifest-dtype", "manifest-shape"],
)
def test_damaged_entry_is_a_promote_miss(space, tmp_path, fmt, corrupt):
    """CSR, DIA and COO persist no CSR image: each runs its own kernel on
    its own arrays, which does not bounds-check, so each damage must
    be caught by a check before any kernel runs."""
    matrices = _matrices(count=2)
    kwargs = dict(
        workers=1, capacity=1, shards=1, storage_dir=str(tmp_path / "tier")
    )
    tuner = RunFirstTuner(formats=(fmt,))
    with TuningService(space, tuner, **kwargs) as first:
        for key, matrix in matrices.items():
            first.spmv(matrix, np.ones(matrix.ncols), key=key)
        (entry,) = first.storage.entries()  # mx0, demoted by mx1
    assert entry.key == "mx0" and entry.format == fmt
    assert not any(name.startswith("operator__") for name in entry.manifest["arrays"])
    corrupt(entry)
    matrix = matrices["mx0"]
    x = np.random.default_rng(5).standard_normal(matrix.ncols)
    with TuningService(space, tuner, **kwargs) as second:
        y = second.spmv(matrix, x, key="mx0").y
        storage = second.stats()["storage"]
        resident = "mx0" in second.storage
    np.testing.assert_allclose(y, matrix.to_scipy() @ x, rtol=1e-12, atol=0)
    assert storage["promote_misses"] == 1
    assert storage["promotions"] == 0
    assert not resident


@pytest.mark.parametrize("fmt", ["DIA", "HDC"])
def test_promote_serves_without_any_rebuild(space, tmp_path, fmt, monkeypatch):
    """A promoted entry runs its persisted operator: nothing is rebuilt."""
    import repro.runtime.engine as engine_mod
    from repro.formats.dia import DIAMatrix
    from repro.formats.hdc import HDCMatrix

    rng = np.random.default_rng(29)
    n = 64
    dense = np.diag(rng.standard_normal(n)) + np.diag(
        rng.standard_normal(n - 1), 1
    )
    if fmt == "HDC":  # scattered entries give the CSR part work too
        dense += (rng.random((n, n)) < 0.05) * rng.standard_normal((n, n))
    target = COOMatrix.from_dense(dense)
    filler = _matrices(count=1)["mx0"]
    x = rng.standard_normal(n)
    with TuningService(
        space,
        RunFirstTuner(formats=(fmt,)),
        workers=1,
        capacity=1,
        shards=1,
        storage_dir=str(tmp_path / "tier"),
    ) as service:
        want = service.spmv(target, x, key="target").y
        service.spmv(filler, np.ones(filler.ncols), key="filler")
        assert "target" in service.storage  # evicted: demoted

        def rebuild(*_args, **_kwargs):
            raise AssertionError("a promoted entry must not be rebuilt")

        monkeypatch.setattr(DIAMatrix, "to_coo", rebuild)
        monkeypatch.setattr(HDCMatrix, "to_coo", rebuild)
        monkeypatch.setattr(engine_mod, "convert", rebuild)
        got = service.spmv(target, x, key="target").y
        storage = service.stats()["storage"]
    assert storage["promotions"] == 1
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fmt", ["DIA", "COO", "CSR", "HDC"])
def test_own_kernel_entries_and_operator_layout_entries(
    space, tmp_path, fmt, monkeypatch
):
    """No entry persists operator arrays (an HDC decision's entry is a
    CSR container), and an entry in the older layout — int64 CSR
    indices and a scipy CSR operator beside every container, still on
    disk: the tier outlives the process — promotes with no miss, passes
    verification and serves the same bits.  An older HDC container has
    no kernel of its own, so it is not adopted: the key re-decides and
    its next eviction rewrites the entry as a CSR container."""
    import scipy.sparse as sp

    from repro.storage import persist
    from repro.storage.tier import StorageTier

    def scipy_image(m):
        coo = m.to_coo()
        return sp.csr_matrix(
            sp.coo_matrix((coo.data, (coo.row, coo.col)), shape=coo.shape)
        )

    matrices = _matrices(count=2)
    matrix = matrices["mx0"]
    x = np.random.default_rng(31).standard_normal(matrix.ncols)
    want = scipy_image(convert(matrix, fmt)) @ x
    kwargs = dict(
        workers=1, capacity=1, shards=1, storage_dir=str(tmp_path / "tier")
    )
    tuner = RunFirstTuner(formats=(fmt,))

    def demote_all(service):
        for key, m in matrices.items():  # mx1 demotes mx0
            service.spmv(m, np.ones(m.ncols), key=key)
        return {e.key: e for e in service.storage.entries()}["mx0"]

    with TuningService(space, tuner, **kwargs) as first:
        entry = demote_all(first)
    assert entry.format == ("CSR" if fmt == "HDC" else fmt)
    assert entry.extra["format"] == fmt
    assert not any(n.startswith("operator__") for n in entry.manifest["arrays"])

    container_arrays = persist.container_arrays

    def with_operator(m):  # the int64, operator-per-entry layout
        arrays = {
            name: arr.astype(np.int64) if arr.dtype == np.int32 else arr
            for name, arr in container_arrays(m).items()
        }
        image = scipy_image(m)
        arrays["operator__indptr"] = image.indptr
        arrays["operator__indices"] = image.indices
        if m.format != "CSR":  # a CSR operator multiplied the container's data
            arrays["operator__data"] = image.data
        return arrays

    writer = StorageTier(str(tmp_path / "tier"))
    writer.clear()
    with monkeypatch.context() as patch:
        patch.setattr(persist, "container_arrays", with_operator)
        entry = writer.demote(
            "mx0",
            convert(matrix, fmt),
            extra={
                "format": fmt,
                "stats": MatrixStats.from_matrix(matrix).to_dict(),
            },
        )
    names = entry.manifest["arrays"]
    assert entry.format == fmt and "operator__indices" in names
    if fmt in ("CSR", "HDC"):
        index = "col_idx" if fmt == "CSR" else "csr__col_idx"
        assert names[index]["dtype"] == "<i8"
    reader = StorageTier(str(tmp_path / "tier"))
    assert reader.promote("mx0", verify=True) is not None
    assert reader.stats()["promote_misses"] == 0
    with TuningService(space, tuner, **kwargs) as second:
        got = second.spmv(matrix, x, key="mx0")
        storage = second.stats()["storage"]
        rewritten = demote_all(second)
    assert storage["promotions"] == 1 and storage["promote_misses"] == 0
    assert np.array_equal(got.y, want)
    assert got.from_cache == (fmt != "HDC")
    assert (rewritten.path == entry.path) == (fmt != "HDC")
    assert rewritten.format == ("CSR" if fmt == "HDC" else fmt)


_OUT_OF_CORE_SCRIPT = textwrap.dedent(
    """
    import resource
    import sys

    import numpy as np

    # Budget: current data segment + headroom for the service machinery,
    # but far below what an in-RAM copy of the matrix would need.
    nrows, row_nnz = 120_000, 60  # ~110 MiB of CSR payload
    payload = nrows * row_nnz * 16
    def vmdata():
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmData:"):
                    return int(line.split()[1]) * 1024
        return 0

    rng = np.random.default_rng(3)
    row_ptr = np.arange(nrows + 1, dtype=np.int64) * row_nnz
    col_idx = rng.integers(0, nrows, size=nrows * row_nnz, dtype=np.int64)
    col_idx = col_idx.reshape(nrows, row_nnz)
    col_idx.sort(axis=1)
    data = rng.standard_normal(nrows * row_nnz)

    from repro.formats.csr import CSRMatrix
    from repro.storage.persist import load_container, save_container
    from repro.storage.stream import streaming_spmv

    csr = CSRMatrix(nrows, nrows, row_ptr, col_idx.reshape(-1), data)
    save_container(csr, sys.argv[1] + "/entry")
    x = rng.standard_normal(nrows)
    want = streaming_spmv(csr, x)
    del csr, col_idx, data, row_ptr

    budget = vmdata() + payload // 3
    try:
        resource.setrlimit(resource.RLIMIT_DATA, (budget, budget))
    except (ValueError, OSError):
        print("RLIMIT_SKIP")
        sys.exit(0)

    # the in-RAM copy cannot even be allocated under the budget...
    try:
        blob = np.empty(payload // 8, dtype=np.float64)
        blob[:] = 1.0
        print("RLIMIT_TOO_LOOSE")
        sys.exit(1)
    except MemoryError:
        pass

    # ...but the mmap-promoted streaming path serves, bitwise.
    back = load_container(sys.argv[1] + "/entry", mmap=True)
    got = streaming_spmv(back, x, block_bytes=1 << 22)
    print("IDENTICAL" if np.array_equal(got, want) else "MISMATCH")
    """
)


def test_out_of_core_serve_under_rlimit(tmp_path):
    """Streaming serves a matrix the data segment cannot hold in RAM."""
    if not sys.platform.startswith("linux"):
        pytest.skip("RLIMIT_DATA semantics required (linux-only test)")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _OUT_OF_CORE_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    out = proc.stdout.strip().splitlines()
    if "RLIMIT_SKIP" in out:
        pytest.skip("cannot lower RLIMIT_DATA in this environment")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "IDENTICAL" in out, (proc.stdout, proc.stderr[-2000:])
