"""Delta overlays: mutate sparse matrices without rebuilding the world.

The six containers are immutable — a property every cache in the stack
leans on — so matrix evolution (streaming graphs, time-stepping
simulations, incremental assembly) is expressed as *deltas* layered over
a base container:

* :class:`MatrixDelta` is the frozen wire format: parallel coordinate /
  value / op arrays where each op is ``SET`` (store a value, inserting
  if absent), ``ADD`` (accumulate onto the stored value, inserting if
  absent) or ``DEL`` (remove the stored entry, a no-op if absent).
  :meth:`MatrixDelta.canonical` folds repeated ops on one coordinate
  into a single op with sequential semantics, so appliers only ever see
  one op per coordinate.
* :class:`DeltaOverlay` is the mutable builder clients append to —
  scalar and vectorised add/set/delete — and compose over any base
  container; :meth:`DeltaOverlay.compact` folds the buffered ops into a
  freshly converted base format via
  :meth:`~repro.formats.base.SparseMatrix.with_updates`, producing an
  epoch-stamped successor.
* :func:`apply_delta` is the sorted-merge core: canonical COO in,
  canonical COO out, in ``O(nnz + k)`` without re-canonicalising, plus
  a :class:`DeltaEffect` describing exactly which rows and diagonals
  changed — the input the runtime layer's incremental statistics feed
  on (:mod:`repro.runtime.epoch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.formats.coo import COOMatrix
from repro.utils.validation import as_index_array, as_value_array

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.formats.base import SparseMatrix

__all__ = [
    "OP_SET",
    "OP_ADD",
    "OP_DEL",
    "DeltaEffect",
    "DeltaOverlay",
    "MatrixDelta",
    "apply_delta",
    "merge_keyed",
]

#: Op codes of one delta entry (stored in a uint8 array).
OP_SET, OP_ADD, OP_DEL = 0, 1, 2

_OP_NAMES = {OP_SET: "set", OP_ADD: "add", OP_DEL: "del"}


@dataclass(frozen=True)
class MatrixDelta:
    """A frozen batch of coordinate updates against some base matrix.

    ``row`` / ``col`` / ``value`` / ``op`` are parallel arrays; ops are
    applied in array order, so a non-canonical delta may touch one
    coordinate several times.  ``canonical`` asserts one op per
    coordinate, row-major sorted — the form :func:`apply_delta`
    consumes.
    """

    row: np.ndarray
    col: np.ndarray
    value: np.ndarray
    op: np.ndarray
    is_canonical: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "row", as_index_array(self.row, name="row"))
        object.__setattr__(self, "col", as_index_array(self.col, name="col"))
        object.__setattr__(
            self, "value", as_value_array(self.value, name="value")
        )
        op = np.ascontiguousarray(self.op, dtype=np.uint8)
        if not (
            self.row.shape == self.col.shape == self.value.shape == op.shape
        ):
            raise ValidationError(
                "delta row, col, value and op must have equal length, got "
                f"{self.row.shape[0]}, {self.col.shape[0]}, "
                f"{self.value.shape[0]}, {op.shape[0]}"
            )
        if op.size and int(op.max(initial=0)) > OP_DEL:
            raise ValidationError(
                f"unknown delta op code {int(op.max())}; expected one of "
                f"{sorted(_OP_NAMES)}"
            )
        if np.any(self.row < 0) or np.any(self.col < 0):
            raise ValidationError("delta coordinates must be non-negative")
        object.__setattr__(self, "op", op)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.row.shape[0])

    def check_bounds(self, nrows: int, ncols: int) -> None:
        """Raise unless every coordinate fits an ``nrows x ncols`` matrix."""
        if len(self) == 0:
            return
        if int(self.row.max()) >= nrows or int(self.col.max()) >= ncols:
            raise ValidationError(
                f"delta coordinate ({int(self.row.max())}, "
                f"{int(self.col.max())}) out of bounds for a "
                f"{nrows}x{ncols} matrix"
            )

    # ------------------------------------------------------------------
    def canonical(self, ncols_hint: Optional[int] = None) -> "MatrixDelta":
        """One op per coordinate, row-major sorted, sequential semantics.

        Repeated ops on a coordinate fold in order: a later ``SET``/
        ``DEL`` supersedes what came before, ``ADD`` accumulates onto a
        prior ``SET``/``ADD`` and re-creates the entry after a ``DEL``.
        """
        if self.is_canonical or len(self) == 0:
            return self if self.is_canonical else MatrixDelta(
                self.row, self.col, self.value, self.op, is_canonical=True
            )
        span = np.int64(
            max(int(self.col.max()) + 1, ncols_hint or 0)
        )
        key = self.row * span + self.col
        order = np.argsort(key, kind="stable")
        key = key[order]
        uniq = np.empty(key.shape, dtype=bool)
        uniq[0] = True
        np.not_equal(key[1:], key[:-1], out=uniq[1:])
        if uniq.all():
            return MatrixDelta(
                self.row[order],
                self.col[order],
                self.value[order],
                self.op[order],
                is_canonical=True,
            )
        # fold duplicate-coordinate runs sequentially (duplicates are
        # rare, so a Python loop over just those runs is fine)
        row = self.row[order]
        col = self.col[order]
        value = self.value[order].copy()
        op = self.op[order].copy()
        starts = np.flatnonzero(uniq)
        ends = np.append(starts[1:], key.shape[0])
        keep = uniq.copy()
        for s, e in zip(starts, ends):
            if e - s == 1:
                continue
            mode, val = int(op[s]), float(value[s])
            for i in range(s + 1, e):
                o, v = int(op[i]), float(value[i])
                if o == OP_SET or o == OP_DEL:
                    mode, val = o, v
                elif mode == OP_DEL:  # deleted then re-added
                    mode, val = OP_SET, v
                else:  # ADD onto SET/ADD keeps the mode, accumulates
                    val = val + v
            op[s], value[s] = mode, val
        return MatrixDelta(
            row[keep], col[keep], value[keep], op[keep], is_canonical=True
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_ops(
        cls,
        rows: Sequence[int],
        cols: Sequence[int],
        values: Sequence[float],
        ops: Sequence[int],
    ) -> "MatrixDelta":
        """Build from parallel sequences (values ignored for deletes)."""
        return cls(
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
            np.asarray(ops, dtype=np.uint8),
        )

    @classmethod
    def sets(cls, rows, cols, values) -> "MatrixDelta":
        """A delta of pure ``SET`` ops."""
        rows = np.asarray(rows, dtype=np.int64)
        return cls(rows, cols, values, np.full(rows.shape, OP_SET, np.uint8))

    @classmethod
    def adds(cls, rows, cols, values) -> "MatrixDelta":
        """A delta of pure ``ADD`` ops."""
        rows = np.asarray(rows, dtype=np.int64)
        return cls(rows, cols, values, np.full(rows.shape, OP_ADD, np.uint8))

    @classmethod
    def deletes(cls, rows, cols) -> "MatrixDelta":
        """A delta of pure ``DEL`` ops."""
        rows = np.asarray(rows, dtype=np.int64)
        return cls(
            rows,
            cols,
            np.zeros(rows.shape, dtype=np.float64),
            np.full(rows.shape, OP_DEL, np.uint8),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = {
            name: int((self.op == code).sum())
            for code, name in _OP_NAMES.items()
        }
        return f"<MatrixDelta {len(self)} ops {counts}>"


@dataclass(frozen=True)
class DeltaEffect:
    """Structural consequences of applying one canonical delta.

    Only *structure* is described — entries inserted and removed, per
    row and per occupied diagonal — because value-in-place changes do
    not move any statistic the runtime maintains incrementally.
    Offsets follow the ``col - row`` convention of
    :meth:`~repro.formats.coo.COOMatrix.diagonal_offsets`.
    """

    inserted_rows: np.ndarray
    inserted_offsets: np.ndarray
    removed_rows: np.ndarray
    removed_offsets: np.ndarray
    values_changed: int = 0
    noop_deletes: int = 0

    @property
    def nnz_change(self) -> int:
        """Net stored-entry count change."""
        return int(self.inserted_rows.shape[0] - self.removed_rows.shape[0])

    @property
    def structural(self) -> bool:
        """Did the sparsity pattern change at all?"""
        return bool(self.inserted_rows.size or self.removed_rows.size)


def merge_keyed(
    nrows: int,
    ncols: int,
    key: np.ndarray,
    col: np.ndarray,
    data: np.ndarray,
    delta: MatrixDelta,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, DeltaEffect]:
    """Sorted-merge core on linearised content: ``O(nnz + k)``, no sort.

    *key* is the row-major linear coordinate (``row * ncols + col``,
    strictly increasing — canonical order), *col* / *data* the parallel
    column and value arrays (the merged column array keeps *col*'s
    integer width).  This is the streaming hot path: it never
    materialises a row array (rows live implicitly in the keys and in
    the incrementally maintained row histogram) and never re-validates
    ``O(nnz)`` container invariants — both merge inputs are already
    canonical, so the output is canonical by construction.  Returns the
    merged ``(key, col, data)`` plus the :class:`DeltaEffect`; for a
    value-only delta the key and column arrays are returned unchanged
    (shared, not copied).
    """
    d = delta.canonical(ncols_hint=ncols)
    d.check_bounds(nrows, ncols)
    empty = np.zeros(0, dtype=np.int64)
    if len(d) == 0:
        return key, col, data, DeltaEffect(empty, empty, empty, empty)
    span = np.int64(ncols)
    d_key = d.row * span + d.col
    pos = np.searchsorted(key, d_key)
    clamped = np.minimum(pos, max(key.shape[0] - 1, 0))
    matched = (
        (pos < key.shape[0]) & (key[clamped] == d_key)
        if key.size
        else np.zeros(d_key.shape, dtype=bool)
    )
    m_set = matched & (d.op == OP_SET)
    m_add = matched & (d.op == OP_ADD)
    m_del = matched & (d.op == OP_DEL)
    inserts = ~matched & (d.op != OP_DEL)
    noop_deletes = int((~matched & (d.op == OP_DEL)).sum())
    n_del = int(m_del.sum())
    n_ins = int(inserts.sum())
    effect = DeltaEffect(
        inserted_rows=d.row[inserts],
        inserted_offsets=(d.col[inserts] - d.row[inserts]),
        removed_rows=d.row[m_del],
        removed_offsets=(d.col[m_del] - d.row[m_del]),
        values_changed=int(m_set.sum() + m_add.sum()),
        noop_deletes=noop_deletes,
    )
    if n_del == 0 and n_ins == 0:
        # value-only delta: one value copy, structure arrays shared
        out_data = data.copy()
        out_data[pos[m_set]] = d.value[m_set]
        out_data[pos[m_add]] += d.value[m_add]
        return key, col, out_data, effect
    if n_del:
        keep = np.ones(key.shape[0], dtype=bool)
        keep[pos[m_del]] = False
        kept_key = key[keep]
        kept_col = col[keep]
        kept_data = data[keep]
    else:
        kept_key, kept_col, kept_data = key, col, data
    if n_ins == 0:
        new_key, new_col, new_data = kept_key, kept_col, kept_data
    else:
        # one allocation per array, two scatters: kept entries land in
        # their slots, inserted entries in theirs — canonical order
        # preserved
        out_size = kept_key.shape[0] + n_ins
        ins_at = np.searchsorted(kept_key, d_key[inserts])
        ins_slots = ins_at + np.arange(n_ins, dtype=np.int64)
        base_slots = np.ones(out_size, dtype=bool)
        base_slots[ins_slots] = False
        new_key = np.empty(out_size, dtype=np.int64)
        new_col = np.empty(out_size, dtype=col.dtype)
        new_data = np.empty(out_size, dtype=np.float64)
        new_key[base_slots] = kept_key
        new_col[base_slots] = kept_col
        new_data[base_slots] = kept_data
        new_key[ins_slots] = d_key[inserts]
        new_col[ins_slots] = d.col[inserts]
        new_data[ins_slots] = d.value[inserts]
    # the merged value array is fresh, so matched entries are set or
    # added to at their merged slots: no separate value copy
    new_data[np.searchsorted(new_key, d_key[m_set])] = d.value[m_set]
    new_data[np.searchsorted(new_key, d_key[m_add])] += d.value[m_add]
    return new_key, new_col, new_data, effect


def apply_delta(
    base: COOMatrix, delta: MatrixDelta
) -> tuple[COOMatrix, DeltaEffect]:
    """Merge a delta into canonical COO: ``O(nnz + k)``, no re-sort.

    Both sides are sorted — the base is canonical COO, the delta is
    canonicalised here — so the merge is a single ``searchsorted`` plus
    one pass of copies (see :func:`merge_keyed`, the array-level core).
    The result is canonical by construction, which is what lets the
    streaming engine hand it straight to ``from_coo`` conversions and
    stay bitwise-identical to a from-scratch rebuild of the same
    content.
    """
    span = np.int64(base.ncols) if base.ncols else np.int64(1)
    key, col, data, effect = merge_keyed(
        base.nrows,
        base.ncols,
        base.row * span + base.col,
        base.col,
        base.data,
        delta,
    )
    if col is base.col and data is base.data:  # empty delta
        return base, effect
    merged = COOMatrix(
        base.nrows, base.ncols, key // span, col, data, canonical=True
    )
    return merged, effect


class DeltaOverlay:
    """Mutable COO-style add/set/delete buffer composing over any base.

    The overlay accumulates ops (scalar or vectorised) in append order
    and freezes them into a :class:`MatrixDelta` with :meth:`to_delta`.
    :meth:`compact` folds the buffer into a freshly converted base
    format, returning an epoch-stamped successor of the base container.
    """

    def __init__(self) -> None:
        self._rows: list = []
        self._cols: list = []
        self._values: list = []
        self._ops: list = []

    def __len__(self) -> int:
        return int(sum(r.shape[0] for r in self._rows))

    # ------------------------------------------------------------------
    def set(self, row: int, col: int, value: float) -> "DeltaOverlay":
        """Store *value* at ``(row, col)``, inserting the entry if absent."""
        return self._push([row], [col], [value], OP_SET)

    def add(self, row: int, col: int, value: float) -> "DeltaOverlay":
        """Accumulate *value* onto ``(row, col)``, inserting if absent."""
        return self._push([row], [col], [value], OP_ADD)

    def delete(self, row: int, col: int) -> "DeltaOverlay":
        """Remove the entry at ``(row, col)`` (no-op when absent)."""
        return self._push([row], [col], [0.0], OP_DEL)

    def set_many(self, rows, cols, values) -> "DeltaOverlay":
        """Vectorised :meth:`set`."""
        return self._push(rows, cols, values, OP_SET)

    def add_many(self, rows, cols, values) -> "DeltaOverlay":
        """Vectorised :meth:`add`."""
        return self._push(rows, cols, values, OP_ADD)

    def delete_many(self, rows, cols) -> "DeltaOverlay":
        """Vectorised :meth:`delete`."""
        rows = np.asarray(rows, dtype=np.int64)
        return self._push(
            rows, cols, np.zeros(rows.shape, dtype=np.float64), OP_DEL
        )

    def _push(self, rows, cols, values, op: int) -> "DeltaOverlay":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValidationError(
                "overlay rows, cols and values must have equal length"
            )
        self._rows.append(rows)
        self._cols.append(cols)
        self._values.append(values)
        self._ops.append(np.full(rows.shape, op, dtype=np.uint8))
        return self

    def extend(self, delta: MatrixDelta) -> "DeltaOverlay":
        """Append every op of an existing delta (in its order)."""
        self._rows.append(delta.row)
        self._cols.append(delta.col)
        self._values.append(delta.value)
        self._ops.append(delta.op)
        return self

    def clear(self) -> None:
        """Drop every buffered op."""
        self._rows.clear()
        self._cols.clear()
        self._values.clear()
        self._ops.clear()

    # ------------------------------------------------------------------
    def to_delta(self) -> MatrixDelta:
        """Freeze the buffer into a canonical :class:`MatrixDelta`."""
        if not self._rows:
            empty = np.zeros(0, dtype=np.int64)
            return MatrixDelta(
                empty,
                empty.copy(),
                np.zeros(0, dtype=np.float64),
                np.zeros(0, dtype=np.uint8),
                is_canonical=True,
            )
        return MatrixDelta(
            np.concatenate(self._rows),
            np.concatenate(self._cols),
            np.concatenate(self._values),
            np.concatenate(self._ops),
        ).canonical()

    def apply(self, base: "SparseMatrix") -> tuple[COOMatrix, DeltaEffect]:
        """Merge the buffer into *base*'s canonical COO view."""
        return apply_delta(base.to_coo(), self.to_delta())

    def compact(
        self, base: "SparseMatrix", *, format: Optional[str] = None
    ) -> "SparseMatrix":
        """Fold the buffer into a fresh container: the epoch successor.

        The result is *base* with every buffered op applied, converted
        to *format* (default: the base's own format) and stamped with
        ``base.epoch + 1`` under the same stable id — see
        :meth:`~repro.formats.base.SparseMatrix.with_updates`.
        """
        return base.with_updates(self.to_delta(), format=format)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DeltaOverlay {len(self)} buffered ops>"
