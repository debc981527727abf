"""Memory-tiered storage benchmarks: out-of-core identity, tier latency.

Acceptance properties of the disk tier (:mod:`repro.storage`):

* a matrix whose CSR payload is **>= 2x the RAM budget** — enforced
  with a hard ``RLIMIT_DATA`` in a subprocess, under which the in-RAM
  copy provably cannot even be allocated — is still served through the
  demote → promote(mmap) → row-block-streaming path, **bitwise
  identical** to the in-RAM control computed before the limit;
* a tiered service (tiny engine cache + disk tier) serves a multi-round
  eviction-heavy workload bitwise identical to a storage-free service,
  with the demote/promote traffic visible in its counters;
* demote (persist) and promote (mmap reattach) latencies are measured
  per matrix size and tabulated — promotion must be cheap, that is the
  point of the tier.

``REPRO_BENCH_CHECK=1`` selects *check mode* — the CI-sized workload
that keeps the smoke job fast.  Results land in
``benchmarks/results/`` (``tiering.txt`` + ``BENCH_tiering.json``);
the rlimit test skips cleanly where ``RLIMIT_DATA`` cannot be lowered
(non-linux hosts, permissive containers).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.datasets.generators import uniform_rows
from repro.formats import convert
from repro.service import TuningService
from repro.storage import StorageTier, container_fingerprint

from benchmarks._emit import emit
from benchmarks.conftest import write_result

CHECK_MODE = os.environ.get("REPRO_BENCH_CHECK", "") not in ("", "0")
SEED = 7

#: (nrows, nnz per row) for the demote/promote latency table.
TABLE_SIZES = (
    [(5_000, 12), (20_000, 16)]
    if CHECK_MODE
    else [(5_000, 12), (20_000, 16), (80_000, 24), (160_000, 32)]
)

#: The out-of-core matrix: ~110 MiB of CSR payload (check: ~49 MiB —
#: big enough that freed buffers are munmapped rather than cached in
#: the allocator arena, which would let the control allocation slip
#: under the rlimit).
OOC_NROWS, OOC_ROW_NNZ = (80_000, 40) if CHECK_MODE else (120_000, 60)


def _service(tmp_path=None, capacity=2):
    kwargs = dict(workers=2, capacity=capacity, shards=1)
    if tmp_path is not None:
        kwargs["storage_dir"] = str(tmp_path)
    return TuningService(
        make_space("cirrus", "serial"), RunFirstTuner(), **kwargs
    )


def test_tiered_serve_bitwise_identity(tmp_path):
    """Eviction-heavy serving through the tier changes placement only."""
    matrices = {
        f"m{i}": uniform_rows(1_500 + 400 * i, row_nnz=12, seed=SEED + i)
        for i in range(5)
    }
    rng = np.random.default_rng(SEED)
    operands = {
        key: [rng.standard_normal(m.ncols) for _ in range(3)]
        for key, m in matrices.items()
    }

    def rounds(service):
        out = []
        for r in range(3):
            for key, matrix in matrices.items():
                out.append(
                    service.spmv(matrix, operands[key][r], key=key).y
                )
        return out

    with _service(tmp_path / "tier") as tiered:
        got = rounds(tiered)
        storage = tiered.stats()["storage"]
    with _service() as plain:
        want = rounds(plain)
    mismatches = sum(
        not np.array_equal(g, w) for g, w in zip(got, want)
    )
    assert mismatches == 0, (
        f"{mismatches}/{len(want)} tiered results differ bitwise from "
        "the storage-free service"
    )
    # 5 matrices through 2 engine slots: every round demotes + promotes
    assert storage["demotions"] > 0
    assert storage["promotions"] > 0


def _latency_table(root):
    """Demote/promote wall latency per matrix size, fingerprint-checked."""
    tier = StorageTier(str(root))
    rows = []
    for nrows, row_nnz in TABLE_SIZES:
        csr = convert(
            uniform_rows(nrows, row_nnz=row_nnz, seed=SEED), "CSR"
        )
        nbytes = csr.nnz * 16 + (csr.nrows + 1) * 8
        key = f"bench-{nrows}x{row_nnz}"
        t0 = time.perf_counter()
        tier.demote(key, csr)
        demote_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        back = tier.promote(key)
        promote_s = time.perf_counter() - t0
        assert back is not None
        assert container_fingerprint(back) == container_fingerprint(csr)
        rows.append(
            {
                "nrows": nrows,
                "row_nnz": row_nnz,
                "payload_bytes": nbytes,
                "demote_ms": 1e3 * demote_s,
                "promote_ms": 1e3 * promote_s,
            }
        )
    return rows, tier.stats()


_OUT_OF_CORE_SCRIPT = textwrap.dedent(
    """
    import json
    import resource
    import sys
    import time

    import numpy as np

    tier_dir, nrows, row_nnz = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
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
    from repro.storage.stream import streaming_spmv
    from repro.storage.tier import StorageTier

    csr = CSRMatrix(nrows, nrows, row_ptr, col_idx.reshape(-1), data)
    tier = StorageTier(tier_dir)
    t0 = time.perf_counter()
    tier.demote("big", csr)
    demote_s = time.perf_counter() - t0

    x = rng.standard_normal(nrows)
    want = streaming_spmv(csr, x)
    del csr, col_idx, data, row_ptr

    # RAM budget: whatever the interpreter already holds plus HALF the
    # matrix payload -- the matrix is >= 2x the serving headroom.
    headroom = payload // 2
    budget = vmdata() + headroom
    try:
        resource.setrlimit(resource.RLIMIT_DATA, (budget, budget))
    except (ValueError, OSError):
        print(json.dumps({"skip": "cannot lower RLIMIT_DATA"}))
        sys.exit(0)

    # the in-RAM copy provably cannot be allocated under the budget...
    try:
        blob = np.empty(payload // 8, dtype=np.float64)
        blob[:] = 1.0
        print(json.dumps({"error": "rlimit too loose"}))
        sys.exit(1)
    except MemoryError:
        pass

    # ...but promote(mmap) + row-block streaming serves it, bitwise.
    t0 = time.perf_counter()
    back = tier.promote("big")
    promote_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    got = streaming_spmv(back, x, block_bytes=1 << 22)
    stream_s = time.perf_counter() - t0
    print(json.dumps({
        "identical": bool(np.array_equal(got, want)),
        "payload_bytes": payload,
        "ram_headroom_bytes": headroom,
        "payload_over_budget": payload / headroom,
        "demote_ms": 1e3 * demote_s,
        "promote_ms": 1e3 * promote_s,
        "stream_ms": 1e3 * stream_s,
        "tier_stats": {
            k: v for k, v in tier.stats().items()
            if isinstance(v, (int, float))
        },
    }))
    """
)


def test_out_of_core_serve_and_emit(tmp_path):
    """Serve a matrix >= 2x its RAM budget bitwise; emit the artefact."""
    if not sys.platform.startswith("linux"):
        pytest.skip("RLIMIT_DATA semantics required (linux-only)")
    table, tier_stats = _latency_table(tmp_path / "table-tier")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _OUT_OF_CORE_SCRIPT,
            str(tmp_path / "ooc-tier"),
            str(OOC_NROWS),
            str(OOC_ROW_NNZ),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    ooc = json.loads(proc.stdout.strip().splitlines()[-1])
    if "skip" in ooc:
        pytest.skip(ooc["skip"])
    assert "error" not in ooc, ooc
    assert ooc["identical"], (
        "out-of-core streamed result diverged from the in-RAM control"
    )
    assert ooc["payload_over_budget"] >= 2.0

    lines = [
        "memory-tiered storage: demote/promote latency and out-of-core "
        "serve" + (" [check mode]" if CHECK_MODE else ""),
        "-" * 70,
        f"{'matrix':>16} {'payload':>10} {'demote':>10} {'promote':>10}",
    ]
    for row in table:
        lines.append(
            f"{row['nrows']:>9}x{row['row_nnz']:<3}   "
            f"{row['payload_bytes'] / 2**20:7.1f}MiB "
            f"{row['demote_ms']:8.1f}ms {row['promote_ms']:8.1f}ms"
        )
    lines += [
        "",
        f"out-of-core: {ooc['payload_bytes'] / 2**20:.1f} MiB payload "
        f"over a {ooc['ram_headroom_bytes'] / 2**20:.1f} MiB RAM budget "
        f"({ooc['payload_over_budget']:.1f}x) — "
        + ("bitwise identical" if ooc["identical"] else "MISMATCH"),
        f"  demote {ooc['demote_ms']:.1f}ms  promote {ooc['promote_ms']:.1f}ms"
        f"  stream {ooc['stream_ms']:.1f}ms",
        "",
    ]
    write_result("tiering.txt", "\n".join(lines))
    emit(
        "tiering",
        config={
            "check_mode": CHECK_MODE,
            "ooc_nrows": OOC_NROWS,
            "ooc_row_nnz": OOC_ROW_NNZ,
            "table_sizes": [list(s) for s in TABLE_SIZES],
        },
        metrics={
            "latency_table": table,
            "tier_counters": {
                k: v
                for k, v in tier_stats.items()
                if isinstance(v, (int, float))
            },
            "out_of_core": ooc,
        },
    )
