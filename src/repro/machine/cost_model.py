"""Roofline-style SpMV performance models for the six storage formats.

This module is the analytical heart of the hardware substitution
(``docs/architecture.md``, ``repro.machine`` + ``repro.backends``).  For
a matrix summarised by :class:`~repro.machine.stats.MatrixStats`, a
storage format, and a device :class:`~repro.machine.arch.ArchSpec`, it
predicts the runtime of one SpMV:

``T = max(T_memory, T_compute) + T_fixed``

with format- and device-specific effective-bandwidth degradations:

* **CSR on GPUs** runs the scalar (thread-per-row) kernel: consecutive
  threads read row segments ``avg_row * 16`` bytes apart (uncoalesced once
  rows exceed a cache sector) and a warp is held hostage by its longest row
  (divergence).  This is what produces the paper's orders-of-magnitude
  penalties for power-law matrices (Section VII-C, mawi discussion).
* **COO on GPUs** uses a flat segmented reduction — perfectly coalesced and
  balanced, so it is the robust choice for wildly irregular matrices.
* **ELL / DIA** are fully coalesced / unit-stride but pay for padding.
* **Hybrid formats** pay their two blocks plus an extra kernel launch.
* **CPU OpenMP** time is ``max(bandwidth bound, critical path of the
  longest row)`` plus a fork/join constant; COO needs atomics and scales
  worse; DIA/ELL are perfectly balanced.

Every returned time includes a small deterministic log-normal "measurement"
noise keyed by ``(matrix_key, format, device, backend)`` so profiling labels
have the run-to-run jitter character of real measurements (configurable,
``noise_sigma=0`` disables it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import BackendError, ShapeError
from repro.formats.base import FORMAT_IDS
from repro.formats.convert import convert_cost_weight
from repro.machine.arch import ArchSpec, CPUSpec, GPUSpec
from repro.machine.stats import IDX_BYTES, VAL_BYTES, MatrixStats
from repro.utils.rng import stable_hash

__all__ = ["CostModel", "MATRIX_TRAFFIC_FRACTION", "spmm_time_factor"]

ENTRY_BYTES = IDX_BYTES + VAL_BYTES  # one (index, value) pair
#: Threads cooperating per row in the vector-style CSR GPU kernel.
CSR_SUB_WARP = 8.0
#: Cap on the divergence penalty of the CSR GPU kernel.
MAX_DIVERGENCE = 128.0
#: Cap on the occupancy penalty for under-filled devices.
MAX_OCC_PENALTY = 8.0

_VALID_BACKENDS = ("serial", "openmp", "cuda", "hip")

#: Fraction of SpMV time attributable to matrix (not vector) traffic; used
#: by the SpMM scaling ``t_spmm ~= t_spmv * (a + (1-a) k)``.
MATRIX_TRAFFIC_FRACTION = 0.35


def spmm_time_factor(n_vectors: int) -> float:
    """Modelled SpMM/SpMV time ratio for ``n_vectors`` right-hand sides.

    Matrix traffic is paid once; vector traffic and flops scale with k:
    ``factor = a + (1 - a) * k`` with ``a = MATRIX_TRAFFIC_FRACTION``.
    """
    if n_vectors < 1:
        raise ShapeError(f"n_vectors must be >= 1, got {n_vectors}")
    a = MATRIX_TRAFFIC_FRACTION
    return a + (1.0 - a) * n_vectors


@dataclass(frozen=True)
class CostModel:
    """Analytic SpMV timing model.

    Parameters
    ----------
    noise_sigma:
        Standard deviation of the log-normal run-to-run noise factor.
        ``0.0`` makes the model fully deterministic.
    noise_seed:
        Base seed mixed into the per-(matrix, format, device) noise key.
    """

    noise_sigma: float = 0.04
    noise_seed: int = 2023

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def spmv_time(
        self,
        stats: MatrixStats,
        fmt: str,
        arch: ArchSpec,
        backend: str,
        *,
        matrix_key: str = "",
    ) -> float:
        """Modelled seconds for one ``y = A @ x`` in format *fmt*.

        *backend* is the modelled execution backend of the archetype
        (serial/openmp/cuda/hip).
        """
        fmt = fmt.upper()
        if fmt not in FORMAT_IDS:
            raise BackendError(f"unknown format {fmt!r}")
        self._check_backend(arch, backend)
        if stats.nnz == 0:
            return self._fixed_cost(arch, backend)
        if isinstance(arch, GPUSpec):
            base = self._gpu_time(stats, fmt, arch)
        else:
            assert isinstance(arch, CPUSpec)
            if backend == "serial":
                base = self._cpu_serial_time(stats, fmt, arch)
            else:
                base = self._cpu_openmp_time(stats, fmt, arch)
        return base * self._noise(matrix_key, fmt, arch.name, backend)

    def spmv_times(
        self,
        stats: MatrixStats,
        arch: ArchSpec,
        backend: str,
        *,
        matrix_key: str = "",
    ) -> Dict[str, float]:
        """Modelled time for every format; keys are canonical format names."""
        return {
            fmt: self.spmv_time(stats, fmt, arch, backend, matrix_key=matrix_key)
            for fmt in FORMAT_IDS
        }

    def feature_extraction_time(
        self, stats: MatrixStats, arch: ArchSpec, backend: str
    ) -> float:
        """Modelled seconds for the online 10-feature extraction (T_FE).

        Extraction makes a small number of passes over the index structure
        (row census, diagonal census, reductions over the row-length array).
        On CPUs only part of the work parallelises; on GPUs each statistic
        is a launched reduction kernel.
        """
        self._check_backend(arch, backend)
        idx_traffic = stats.nnz * IDX_BYTES + stats.nrows * IDX_BYTES
        # row census + diagonal census + row-array reductions; the diagonal
        # census is a random-access histogram, several times slower per byte
        # than a stream, hence the effective pass count exceeds 3
        passes = 3.0
        hist_penalty = 2.2
        if isinstance(arch, GPUSpec):
            mem = passes * idx_traffic / arch.peak_bw_bytes
            return mem + 6 * arch.launch_us * 1e-6
        assert isinstance(arch, CPUSpec)
        serial_bw = arch.peak_bw_bytes * arch.single_core_bw_frac
        if backend == "serial":
            return passes * hist_penalty * idx_traffic / serial_bw + 40e-6
        # OpenMP: the heavy passes parallelise with modest efficiency, the
        # histogram merge and bookkeeping stay serial — which is why the
        # paper's Table IV shows OpenMP tuning costs far above Serial's
        # (relative to each backend's own SpMV time).
        par = passes * idx_traffic / (arch.peak_bw_bytes * 0.5)
        ser = 0.5 * passes * hist_penalty * idx_traffic / serial_bw
        return par + ser + 3 * arch.omp_fork_us * 1e-6

    def prediction_time(
        self, arch: ArchSpec, backend: str, *, n_estimators: int, avg_depth: float
    ) -> float:
        """Modelled seconds for the host-side tree-ensemble traversal."""
        self._check_backend(arch, backend)
        per_node = 25e-9  # one comparison + pointer chase
        traversal = n_estimators * max(1.0, avg_depth) * per_node
        voting = n_estimators * 10e-9
        return traversal + voting + 2e-6  # + model dispatch overhead

    def conversion_time(
        self,
        stats: MatrixStats,
        source: str,
        target: str,
        arch: ArchSpec,
        backend: str,
    ) -> float:
        """Modelled seconds for an in-memory format conversion.

        Conversions are bandwidth-bound builds of the target's arrays
        scaled by a per-format difficulty weight; on CPUs they run at
        single-core bandwidth (Morpheus conversions are serial), on GPUs at
        a fraction of device bandwidth plus launch overhead.
        """
        self._check_backend(arch, backend)
        weight = convert_cost_weight(source, target)
        if weight == 0.0:
            return 0.0
        built = stats.format_bytes(target) + stats.format_bytes(source)
        if isinstance(arch, GPUSpec):
            return weight * built / (arch.peak_bw_bytes * 0.4) + 4 * arch.launch_us * 1e-6
        assert isinstance(arch, CPUSpec)
        serial_bw = arch.peak_bw_bytes * arch.single_core_bw_frac
        return weight * built / serial_bw + 20e-6

    # ------------------------------------------------------------------
    # CPU models
    # ------------------------------------------------------------------
    def _cpu_serial_time(self, s: MatrixStats, fmt: str, a: CPUSpec) -> float:
        bw = a.peak_bw_bytes * a.single_core_bw_frac
        flops = a.peak_flops / a.cores
        traffic, fma, rows_looped, irregular = self._work(s, fmt, a)
        t_mem = traffic / bw
        if irregular and not self._x_cached(s, a):
            t_mem *= 1.6  # out-of-cache gathers of x
        t_cpu = fma / flops
        t_loop = rows_looped * a.row_loop_overhead_ns * 1e-9
        if fmt == "COO":
            # row-change branch + indirect accumulate on every entry
            t_loop += s.nnz * 0.4 * a.row_loop_overhead_ns * 1e-9
        return max(t_mem, t_cpu) + t_loop + self._fixed_cost(a, "serial", fmt)

    def _cpu_openmp_time(self, s: MatrixStats, fmt: str, a: CPUSpec) -> float:
        serial_bw = a.peak_bw_bytes * a.single_core_bw_frac
        traffic, fma, rows_looped, irregular = self._work(s, fmt, a)
        # bandwidth-bound floor: the whole node streaming the format arrays
        t_bw = traffic / a.peak_bw_bytes
        if irregular and not self._x_cached(s, a):
            t_bw *= 1.6
        # critical path: with static row partitioning one thread owns the
        # longest row (CSR/HYB/HDC); regular formats are perfectly balanced
        if fmt in ("CSR", "HYB", "HDC"):
            t_crit = s.row_nnz_max * ENTRY_BYTES / serial_bw
        else:
            t_crit = 0.0
        # COO parallelises over flat entry blocks with a per-thread partial
        # result merge: modest overhead, but *no* long-row critical path
        if fmt == "COO":
            t_bw *= 1.4
        if fmt == "HYB" and s.hyb_coo_nnz:
            t_bw += 0.4 * s.hyb_coo_nnz * (2 * IDX_BYTES + VAL_BYTES) / a.peak_bw_bytes
        t_loop = rows_looped * a.row_loop_overhead_ns * 1e-9 / a.cores
        t_cpu = fma / a.peak_flops
        return (
            max(t_bw, t_cpu, t_crit)
            + t_loop
            + self._fixed_cost(a, "openmp", fmt)
        )

    # ------------------------------------------------------------------
    # GPU model
    # ------------------------------------------------------------------
    def _gpu_time(self, s: MatrixStats, fmt: str, a: GPUSpec) -> float:
        launch = a.launch_us * 1e-6
        launch_for = lambda f: launch * self._FIXED_MULT[f]  # noqa: E731
        if fmt == "COO":
            # flat segmented reduction: coalesced, balanced
            traffic = s.format_bytes("COO") + self._x_traffic(s, a, gather=True)
            occ = self._occupancy_penalty(s.nnz, a)
            return 1.3 * traffic / a.peak_bw_bytes * occ + launch_for("COO")
        if fmt == "CSR":
            traffic = s.format_bytes("CSR") + self._x_traffic(s, a, gather=True)
            coal = self._csr_coalescing_penalty(s, a)
            div = self._csr_divergence_penalty(s, a)
            occ = self._occupancy_penalty(s.nrows * CSR_SUB_WARP, a)
            return traffic / a.peak_bw_bytes * coal * div * occ + launch_for("CSR")
        if fmt == "ELL":
            traffic = s.format_bytes("ELL") + self._x_traffic(s, a, gather=True)
            occ = self._occupancy_penalty(s.nrows, a)
            return traffic / a.peak_bw_bytes * occ + launch_for("ELL")
        if fmt == "DIA":
            traffic = s.format_bytes("DIA") + self._x_traffic(s, a, gather=False)
            occ = self._occupancy_penalty(s.nrows, a)
            return traffic / a.peak_bw_bytes * occ + launch_for("DIA")
        if fmt == "HYB":
            ell_traffic = s.nrows * s.hyb_k * ENTRY_BYTES + self._x_traffic(
                s, a, gather=True
            )
            occ = self._occupancy_penalty(s.nrows, a)
            t = ell_traffic / a.peak_bw_bytes * occ + launch
            if s.hyb_coo_nnz:
                coo_traffic = s.hyb_coo_nnz * (2 * IDX_BYTES + VAL_BYTES)
                occ2 = self._occupancy_penalty(s.hyb_coo_nnz, a)
                t += 1.3 * coo_traffic / a.peak_bw_bytes * occ2 + launch
            return t
        if fmt == "HDC":
            dia_traffic = s.hdc_dia_padded * VAL_BYTES + self._x_traffic(
                s, a, gather=False
            )
            occ = self._occupancy_penalty(s.nrows, a)
            t = dia_traffic / a.peak_bw_bytes * occ + launch
            if s.hdc_csr_nnz:
                rest = MatrixStats(
                    nrows=s.nrows,
                    ncols=s.ncols,
                    nnz=s.hdc_csr_nnz,
                    row_nnz_mean=s.hdc_csr_nnz / max(1, s.nrows),
                    row_nnz_min=0,
                    row_nnz_max=max(1, s.row_nnz_max - s.ntrue_diags),
                    row_nnz_std=s.row_nnz_std,
                    n_empty_rows=0,
                    ndiags=s.ndiags - s.ntrue_diags,
                    ntrue_diags=0,
                    true_diag_nnz=0,
                    hyb_k=0,
                    hyb_ell_nnz=0,
                    hyb_coo_nnz=0,
                )
                csr_traffic = rest.format_bytes("CSR") + self._x_traffic(
                    s, a, gather=True
                )
                coal = self._csr_coalescing_penalty(rest, a)
                div = self._csr_divergence_penalty(rest, a)
                occ2 = self._occupancy_penalty(s.nrows * CSR_SUB_WARP, a)
                t += csr_traffic / a.peak_bw_bytes * coal * div * occ2 + launch
            return t
        raise BackendError(f"unknown format {fmt!r}")  # pragma: no cover

    def _csr_coalescing_penalty(self, s: MatrixStats, a: GPUSpec) -> float:
        """Vector-CSR lane waste: short rows under-fill their sub-warp.

        A :data:`CSR_SUB_WARP`-thread group cooperates on each row; rows
        shorter than the group leave lanes idle.  Long rows are read
        coalesced, so there is no long-row stride penalty.
        """
        avg = max(s.row_nnz_mean, 1e-9)
        return float(np.clip(CSR_SUB_WARP / avg, 1.0, CSR_SUB_WARP))

    def _csr_divergence_penalty(self, s: MatrixStats, a: GPUSpec) -> float:
        """A warp runs as long as its slowest (longest) row.

        Uses a blend of the tail ratio (max/mean) and the coefficient of
        variation: uniform matrices pay nothing, power-law matrices pay up
        to :data:`MAX_DIVERGENCE`. Wider wavefronts (AMD) hurt more.
        """
        imb = s.row_imbalance
        cv = s.row_cv
        width_factor = a.warp_size / 32.0
        penalty = 1.0 + 0.15 * (imb - 1.0) * min(1.0, cv) * width_factor
        return float(np.clip(penalty, 1.0, MAX_DIVERGENCE * width_factor))

    def _occupancy_penalty(self, parallel_items: float, a: GPUSpec) -> float:
        """Penalty for not filling the device's resident threads.

        Latency hiding makes achievable bandwidth scale roughly with the
        square root of occupancy at low fill, so the penalty saturates at
        :data:`MAX_OCC_PENALTY` rather than growing linearly.
        """
        if parallel_items <= 0:
            return MAX_OCC_PENALTY
        occ = min(1.0, parallel_items / a.max_resident_threads)
        return float(np.clip(occ**-0.5, 1.0, MAX_OCC_PENALTY))

    def _x_traffic(self, s: MatrixStats, a: ArchSpec, *, gather: bool) -> float:
        """Bytes of input/output vector traffic for one SpMV."""
        xy = (s.nrows + s.ncols) * VAL_BYTES
        if not gather:
            return xy
        if self._x_cached(s, a):
            return xy
        # each non-zero gathers a fresh cache sector's worth in the worst
        # case; damp by density (denser rows reuse neighbouring elements)
        reuse = min(1.0, 4.0 / max(s.row_nnz_mean, 1e-9))
        return xy + s.nnz * VAL_BYTES * reuse

    def _x_cached(self, s: MatrixStats, a: ArchSpec) -> bool:
        return s.ncols * VAL_BYTES <= a.llc_bytes

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _work(
        self, s: MatrixStats, fmt: str, a: CPUSpec
    ) -> tuple[float, float, float, bool]:
        """Return ``(traffic_bytes, flops, rows_looped, irregular_gather)``.

        ``rows_looped`` is the trip count of the outer row/diagonal loop,
        which carries the per-row overhead on CPUs.
        """
        xy = (s.nrows + s.ncols) * VAL_BYTES
        if fmt == "COO":
            return s.format_bytes("COO") + xy, 2.0 * s.nnz, 0.0, True
        if fmt == "CSR":
            return s.format_bytes("CSR") + xy, 2.0 * s.nnz, float(s.nrows), True
        if fmt == "DIA":
            # unit-stride streaming; x is re-read per diagonal unless cached
            extra_x = 0.0 if self._x_cached(s, a) else s.dia_padded * VAL_BYTES * 0.5
            return (
                s.format_bytes("DIA") + xy + extra_x,
                2.0 * s.dia_padded,
                float(s.ndiags),
                False,
            )
        if fmt == "ELL":
            return (
                s.format_bytes("ELL") + xy,
                2.0 * s.ell_padded,
                float(s.nrows),
                True,
            )
        if fmt == "HYB":
            # + one extra stream of the result vector for the second kernel
            extra_y = 2 * s.nrows * VAL_BYTES
            return (
                s.format_bytes("HYB") + xy + extra_y,
                2.0 * (s.nrows * s.hyb_k + s.hyb_coo_nnz),
                float(s.nrows),
                True,
            )
        if fmt == "HDC":
            extra_y = 2 * s.nrows * VAL_BYTES
            return (
                s.format_bytes("HDC") + xy + extra_y,
                2.0 * (s.hdc_dia_padded + s.hdc_csr_nnz),
                float(s.nrows + s.ntrue_diags),
                True,
            )
        raise BackendError(f"unknown format {fmt!r}")  # pragma: no cover

    #: Per-format fixed-cost multipliers: one kernel/region for the simple
    #: formats (plus COO's merge / reduction pass and DIA/ELL setup), two
    #: for the hybrids.  These break the ties of launch-bound tiny matrices
    #: the same way real launch sequences do.
    _FIXED_MULT = {
        "CSR": 1.0,
        "COO": 1.3,
        "DIA": 1.15,
        "ELL": 1.1,
        "HYB": 2.2,
        "HDC": 2.3,
    }

    def _fixed_cost(self, arch: ArchSpec, backend: str, fmt: str = "CSR") -> float:
        mult = self._FIXED_MULT.get(fmt, 1.0)
        if isinstance(arch, GPUSpec):
            return arch.launch_us * 1e-6 * mult
        assert isinstance(arch, CPUSpec)
        if backend == "openmp":
            return arch.omp_fork_us * 1e-6 * mult
        return 0.2e-6 * mult

    def _noise(self, *key_parts: object) -> float:
        if self.noise_sigma <= 0.0:
            return 1.0
        h = stable_hash(self.noise_seed, *key_parts)
        # map the 63-bit hash to a standard normal via inverse uniform
        u = (h + 0.5) / float(1 << 63)
        z = math.sqrt(2.0) * _erfinv(2.0 * u - 1.0)
        return math.exp(self.noise_sigma * z)

    @staticmethod
    def _check_backend(arch: ArchSpec, backend: str) -> None:
        if backend not in _VALID_BACKENDS:
            raise BackendError(
                f"unknown backend {backend!r}; expected one of {_VALID_BACKENDS}"
            )
        is_gpu_backend = backend in ("cuda", "hip")
        if is_gpu_backend != (arch.kind == "gpu"):
            raise BackendError(
                f"backend {backend!r} incompatible with {arch.kind} device "
                f"{arch.name!r}"
            )


def _erfinv(y: float) -> float:
    """Inverse error function (scipy wrapper kept importable lazily)."""
    from scipy.special import erfinv

    return float(erfinv(y))
