"""Epoch-versioned matrix identity and incremental statistics.

Runtime support for mutating matrices.  Everything the engine memoises
was keyed by a *content fingerprint* — a hash of the defining arrays —
which is exactly wrong for a matrix that evolves: every delta would
re-hash, re-profile and re-tune the world.  This module supplies the
replacement identity and the machinery that keeps artefacts warm across
mutations:

* :class:`MatrixEpoch` — ``(stable_id, epoch)`` identity; its
  :attr:`~MatrixEpoch.key` replaces content fingerprints as the engine
  cache key for any epoch-stamped container (:func:`matrix_epoch`);
* :class:`IncrementalStats` — the row-length histogram and diagonal
  census maintained *from deltas* (``O(k)`` per update via a
  :class:`~repro.formats.delta.DeltaEffect`) instead of recomputed from
  the matrix (``O(nnz)``); :meth:`IncrementalStats.to_stats` rebuilds a
  full :class:`~repro.machine.stats.MatrixStats` from the maintained
  distributions in ``O(nrows)``, and tests cross-check it against a
  from-scratch recompute;
* :class:`RedecisionPolicy` — only re-run the tuner when the
  incrementally maintained statistics drift past a threshold; below it
  the prior format decision (and the converted container) is carried
  forward across epochs;
* :class:`StreamState` / :class:`StreamUpdate` — the per-matrix
  streaming bookkeeping :meth:`~repro.runtime.engine.WorkloadEngine.update`
  maintains, and the record it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.delta import DeltaEffect
from repro.formats.dynamic import DynamicMatrix
from repro.machine.stats import MatrixStats
from repro.utils.validation import csr_index_dtype

__all__ = [
    "IncrementalStats",
    "MatrixEpoch",
    "RedecisionPolicy",
    "StreamState",
    "StreamUpdate",
    "matrix_epoch",
]


@dataclass(frozen=True)
class MatrixEpoch:
    """One version of one logical matrix: ``(stable_id, epoch)``."""

    stable_id: str
    epoch: int

    @property
    def key(self) -> str:
        """Cache-key form, ``<stable_id>@<epoch>``."""
        return f"{self.stable_id}@{self.epoch}"

    def next(self) -> "MatrixEpoch":
        """The successor version."""
        return MatrixEpoch(self.stable_id, self.epoch + 1)


def matrix_epoch(
    matrix: Union[SparseMatrix, DynamicMatrix]
) -> Optional[MatrixEpoch]:
    """The epoch identity of *matrix*, or ``None`` when unstamped.

    Only matrices that already carry an identity — assigned explicitly
    through :attr:`~repro.formats.base.SparseMatrix.stable_id` or
    inherited via :meth:`~repro.formats.base.SparseMatrix.with_updates`
    — report one; plain containers return ``None`` so content-hash
    caching keeps applying to them.
    """
    concrete = matrix.concrete if isinstance(matrix, DynamicMatrix) else matrix
    if not concrete.has_identity:
        return None
    return MatrixEpoch(concrete.stable_id, concrete.epoch)


class IncrementalStats:
    """Row and diagonal distributions maintained from deltas.

    Holds the two histograms that fully determine a
    :class:`~repro.machine.stats.MatrixStats`: the per-row non-zero
    count and the per-diagonal census (a dense histogram over the
    ``nrows + ncols - 1`` possible offsets).  Applying a
    :class:`~repro.formats.delta.DeltaEffect` is ``O(k)`` in the delta
    size; rebuilding the full stats summary from the histograms is
    ``O(nrows + ncols)`` — never ``O(nnz)``.
    """

    __slots__ = ("nrows", "ncols", "row_nnz", "diag_hist", "nnz")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        row_nnz: np.ndarray,
        diag_hist: np.ndarray,
    ) -> None:
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.row_nnz = np.asarray(row_nnz, dtype=np.int64)
        self.diag_hist = np.asarray(diag_hist, dtype=np.int64)
        if self.row_nnz.shape[0] != self.nrows:
            raise ValidationError(
                f"row_nnz must have length {self.nrows}, got "
                f"{self.row_nnz.shape[0]}"
            )
        span = max(self.nrows + self.ncols - 1, 0)
        if self.diag_hist.shape[0] != span:
            raise ValidationError(
                f"diag_hist must have length {span}, got "
                f"{self.diag_hist.shape[0]}"
            )
        self.nnz = int(self.row_nnz.sum())

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "IncrementalStats":
        """Seed the histograms from a canonical COO container."""
        span = max(coo.nrows + coo.ncols - 1, 0)
        row_nnz = np.bincount(coo.row, minlength=coo.nrows).astype(np.int64)
        shifted = coo.col - coo.row + (coo.nrows - 1)
        diag_hist = np.bincount(shifted, minlength=span).astype(np.int64)
        return cls(coo.nrows, coo.ncols, row_nnz, diag_hist)

    # ------------------------------------------------------------------
    def apply_effect(self, effect: DeltaEffect) -> None:
        """Fold one delta's structural changes in: ``O(k)``."""
        shift = self.nrows - 1
        if effect.inserted_rows.size:
            np.add.at(self.row_nnz, effect.inserted_rows, 1)
            np.add.at(self.diag_hist, effect.inserted_offsets + shift, 1)
        if effect.removed_rows.size:
            np.subtract.at(self.row_nnz, effect.removed_rows, 1)
            np.subtract.at(self.diag_hist, effect.removed_offsets + shift, 1)
        self.nnz += effect.nnz_change
        if self.nnz < 0 or (
            self.row_nnz.size and int(self.row_nnz.min()) < 0
        ):
            raise ValidationError(
                "incremental stats went negative: delta effect does not "
                "match the tracked matrix"
            )

    # ------------------------------------------------------------------
    def diag_nnz(self) -> np.ndarray:
        """Occupied-diagonal counts, matching ``COOMatrix.diagonal_nnz``."""
        h = self.diag_hist
        return h[h > 0].astype(np.int64)

    @property
    def bandwidth(self) -> int:
        """Largest ``|col - row|`` over occupied diagonals (0 if empty)."""
        # the outermost occupied bins on either side of the main diagonal
        occupied = self.diag_hist != 0
        if not occupied.any():
            return 0
        first = int(occupied.argmax())
        last = occupied.size - 1 - int(occupied[::-1].argmax())
        return max(self.nrows - 1 - first, last - (self.nrows - 1))

    @property
    def density(self) -> float:
        """Fill fraction ``nnz / (nrows * ncols)``."""
        denom = self.nrows * self.ncols
        return self.nnz / denom if denom else 0.0

    def to_stats(self) -> MatrixStats:
        """Full stats summary from the maintained histograms."""
        return MatrixStats.from_distributions(
            self.nrows, self.ncols, self.row_nnz, self.diag_nnz()
        )

    def snapshot(self) -> Dict[str, float]:
        """Scalar view of the incrementally maintained quantities."""
        stats = self.to_stats()
        return {
            "nnz": self.nnz,
            "bandwidth": self.bandwidth,
            "density": self.density,
            "row_nnz_mean": stats.row_nnz_mean,
            "row_nnz_max": stats.row_nnz_max,
            "row_nnz_std": stats.row_nnz_std,
            "n_empty_rows": stats.n_empty_rows,
            "ndiags": stats.ndiags,
            "ell_padding_ratio": stats.ell_padding_ratio,
            "dia_padding_ratio": stats.dia_padding_ratio,
        }


@dataclass(frozen=True)
class RedecisionPolicy:
    """When does an evolving matrix deserve a fresh tuner decision?

    Compares the statistics at the last decision against the current
    (incrementally maintained) ones: the drift is the worst relative
    change across *metrics*, and only a drift above *threshold* forces
    a re-tune — anything milder carries the prior decision and its
    converted container forward across the epoch.
    """

    #: Deltas never change the matrix shape, so nnz, density and
    #: row_nnz_mean all carry identical relative drift — only nnz is
    #: tracked of the three.
    threshold: float = 0.25
    metrics: Tuple[str, ...] = (
        "nnz",
        "row_nnz_max",
        "row_nnz_std",
        "ndiags",
        "n_empty_rows",
    )

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValidationError(
                f"re-decision threshold must be > 0, got {self.threshold}"
            )

    def drift(self, reference: MatrixStats, current: MatrixStats) -> float:
        """Worst relative change across the tracked metrics (>= 0)."""
        worst = 0.0
        for name in self.metrics:
            a = float(getattr(reference, name))
            b = float(getattr(current, name))
            denom = abs(a) if abs(a) > 1e-12 else 1.0
            worst = max(worst, abs(b - a) / denom)
        return worst

    def should_retune(self, drift: float) -> bool:
        """Did the drift cross the re-tune threshold?"""
        return drift > self.threshold


class StreamState:
    """Per-matrix streaming bookkeeping inside the workload engine.

    The authoritative content at the current epoch lives in *linearised*
    form — the strictly increasing row-major ``key`` array plus parallel
    ``col`` / ``data`` — which is what the sorted-merge hot path
    (:func:`~repro.formats.delta.merge_keyed`) consumes and produces
    without ever materialising a row array.  :meth:`prepared` builds the
    serving container — CSR and DIA from the keyed arrays and the
    maintained histograms, COO as :meth:`content`, the equivalent
    canonical :class:`~repro.formats.coo.COOMatrix` built on demand (a
    re-tune's decision input) and cached per epoch; a stream never runs
    a format conversion.  ``decided_stats`` is the stats snapshot the
    live format decision was made against — the reference the
    :class:`RedecisionPolicy` measures drift from.
    """

    __slots__ = (
        "stable_id",
        "epoch",
        "nrows",
        "ncols",
        "key",
        "col",
        "data",
        "inc",
        "decided_stats",
        "updates",
        "_coo",
    )

    def __init__(
        self,
        stable_id: str,
        epoch: int,
        coo: COOMatrix,
        inc: Optional[IncrementalStats] = None,
    ) -> None:
        self.stable_id = stable_id
        self.epoch = int(epoch)
        self.nrows = coo.nrows
        self.ncols = coo.ncols
        span = np.int64(coo.ncols) if coo.ncols else np.int64(1)
        self.key = coo.row * span + coo.col
        # at the width a CSR container stores column indices, so the
        # carried-forward CSR container shares the array
        self.col = coo.col.astype(
            csr_index_dtype(coo.nrows, coo.ncols, coo.nnz), copy=False
        )
        self.data = coo.data
        self.inc = inc if inc is not None else IncrementalStats.from_coo(coo)
        self.decided_stats: Optional[MatrixStats] = None
        self.updates = 0
        self._coo: Optional[COOMatrix] = coo

    @property
    def identity(self) -> MatrixEpoch:
        return MatrixEpoch(self.stable_id, self.epoch)

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    def merge(self, delta) -> "DeltaEffect":
        """Fold one delta into the keyed content; advance the epoch."""
        from repro.formats.delta import merge_keyed

        self.key, self.col, self.data, effect = merge_keyed(
            self.nrows, self.ncols, self.key, self.col, self.data, delta
        )
        self.inc.apply_effect(effect)
        self.epoch += 1
        self.updates += 1
        self._coo = None
        return effect

    def content(self) -> COOMatrix:
        """The canonical COO view of the current epoch (cached)."""
        if self._coo is None:
            span = np.int64(self.ncols) if self.ncols else np.int64(1)
            self._coo = COOMatrix(
                self.nrows,
                self.ncols,
                self.key // span,
                self.col,
                self.data,
                canonical=True,
            )
        return self._coo

    def prepared(self, served: str) -> SparseMatrix:
        """The container serving *served* at the current epoch, built
        from the keyed content and the maintained histograms.

        *served* is one of CSR, DIA and COO, the formats
        :data:`~repro.runtime.batch.SERVING` serves, so a stream never
        runs a format conversion: CSR and DIA come from the histograms
        (:meth:`prepared_csr`, :meth:`prepared_dia`), COO is the
        canonical view itself.
        """
        if served == "CSR":
            return self.prepared_csr()
        if served == "DIA":
            return self.prepared_dia()
        if served == "COO":
            return self.content()
        raise ValidationError(f"a stream cannot serve format {served!r}")

    def prepared_csr(self):
        """Direct CSR build from the maintained histograms: no re-sort.

        Canonical order means the column/value arrays *are* the CSR
        payload; the row pointer is one ``O(nrows)`` cumulative sum of
        the incrementally maintained row histogram.  This is the
        carried-forward serving container — bitwise-identical arrays to
        ``CSRMatrix.from_coo(self.content())`` without the ``O(nnz)``
        bincount and copies.
        """
        from repro.formats.csr import CSRMatrix

        row_ptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(self.inc.row_nnz, out=row_ptr[1:])
        return CSRMatrix(self.nrows, self.ncols, row_ptr, self.col, self.data)

    def prepared_dia(self):
        """Direct DIA build from the maintained histograms.

        The occupied diagonals are the non-zero bins of the diagonal
        census; an entry's diagonal is a lookup in their running count,
        indexed by its offset, and the values go in with one scatter.
        Bitwise-identical to ``DIAMatrix.from_coo(self.content())``
        without building the COO view, the ``O(nnz log nnz)`` unique
        over the offsets or the search for each entry's diagonal.
        """
        from repro.formats.dia import DIAMatrix

        occupied = self.inc.diag_hist > 0
        offsets = np.flatnonzero(occupied) - (self.nrows - 1)
        data = np.zeros((offsets.shape[0], self.ncols), dtype=np.float64)
        if self.data.shape[0]:
            # census bin of an entry: col - row + nrows - 1; the flat
            # slot of bin b's diagonal row, at column 0, is row_of[b]
            row_of = np.cumsum(occupied) - 1
            row_of *= self.ncols
            slots = np.repeat(
                np.arange(self.nrows - 1, -1, -1), self.inc.row_nnz
            )
            slots += self.col
            slots = row_of[slots]
            slots += self.col
            data.reshape(-1)[slots] = self.data
        return DIAMatrix(self.nrows, self.ncols, offsets, data)


@dataclass(frozen=True)
class StreamUpdate:
    """Outcome of one engine-level epoch advance."""

    key: str
    epoch: int
    carried_forward: bool
    retuned: bool
    format: Optional[str]
    drift: float
    nnz: int
    delta_size: int
    bandwidth: int = 0
