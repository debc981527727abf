"""Epoch identity, incremental statistics and the re-decision policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_space
from repro.core.tuners.base import Tuner, TuningReport
from repro.core.tuners.run_first import RunFirstTuner
from repro.datasets.evolving import EVOLVING_FAMILIES, generate_evolving
from repro.datasets.generators import FAMILIES
from repro.errors import ValidationError
from repro.formats import COOMatrix, convert
from repro.formats.base import FORMAT_IDS
from repro.formats.delta import DeltaOverlay, MatrixDelta, apply_delta
from repro.machine.stats import MatrixStats
from repro.runtime.engine import WorkloadEngine, request_key
from repro.runtime.epoch import (
    IncrementalStats,
    MatrixEpoch,
    RedecisionPolicy,
    StreamState,
    matrix_epoch,
)

#: Small, fast parameters for every static generator family.
FAMILY_ARGS = {
    "rmat": (5,),
    "stencil_2d": (6,),
    "stencil_3d": (4,),
}


def _family_matrix(family: str) -> COOMatrix:
    args = FAMILY_ARGS.get(family, (48,))
    return FAMILIES[family](*args, seed=3)


def _random_delta(matrix, rng, k: int = 12) -> MatrixDelta:
    """A randomized mixed delta hitting existing and fresh coordinates."""
    n, m = matrix.shape
    rows = rng.integers(0, n, size=k)
    cols = rng.integers(0, m, size=k)
    ops = rng.integers(0, 3, size=k)
    # bias half the ops onto existing coordinates so deletes really hit
    if matrix.nnz:
        idx = rng.integers(0, matrix.nnz, size=k // 2)
        rows[: k // 2] = matrix.row[idx]
        cols[: k // 2] = matrix.col[idx]
    return MatrixDelta.from_ops(rows, cols, rng.standard_normal(k), ops)


class TestMatrixEpoch:
    def test_key_format(self):
        assert MatrixEpoch("mx1", 3).key == "mx1@3"
        assert MatrixEpoch("mx1", 3).next() == MatrixEpoch("mx1", 4)

    def test_plain_matrix_has_no_epoch_identity(self):
        coo = COOMatrix.from_dense(np.eye(3))
        assert matrix_epoch(coo) is None

    def test_successor_carries_identity(self):
        coo = COOMatrix.from_dense(np.eye(3))
        successor = coo.with_updates(MatrixDelta.sets([0], [1], [1.0]))
        identity = matrix_epoch(successor)
        assert identity is not None
        assert identity.epoch == 1
        assert identity.stable_id == coo.stable_id

    def test_branched_successors_get_distinct_keys(self):
        base = COOMatrix.from_dense(np.eye(4))
        a = base.with_updates(MatrixDelta.sets([0], [1], [5.0]))
        b = base.with_updates(MatrixDelta.sets([0], [1], [9.0]))
        assert request_key(a) != request_key(b)
        assert a.epoch == b.epoch == 1
        # and the engine therefore serves each branch its own numbers
        space = make_space("cirrus", "serial")
        engine = WorkloadEngine(space)
        x = np.ones(4)
        ya = engine.execute(a, x).y
        yb = engine.execute(b, x).y
        assert ya[0] == 6.0 and yb[0] == 10.0

    def test_linear_chain_keeps_one_stable_id(self):
        base = COOMatrix.from_dense(np.eye(3))
        one = base.with_updates(MatrixDelta.sets([0], [1], [1.0]))
        two = one.with_updates(MatrixDelta.sets([0], [2], [1.0]))
        assert one.stable_id == base.stable_id
        assert two.stable_id == base.stable_id
        assert request_key(two) == f"{base.stable_id}@2"

    def test_request_key_prefers_epoch_identity(self):
        coo = COOMatrix.from_dense(np.eye(3))
        plain_key = request_key(coo)  # content hash, no identity forced
        successor = coo.with_updates(MatrixDelta.sets([0], [1], [1.0]))
        assert request_key(successor) == f"{coo.stable_id}@1"
        assert request_key(coo) == f"{coo.stable_id}@0"
        assert plain_key != request_key(coo)


class TestIncrementalStats:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_randomized_deltas_match_full_recompute(self, family):
        """Counts exact, moments within tight tolerance, every family."""
        rng = np.random.default_rng(FORMAT_IDS["CSR"] + hash(family) % 1000)
        current = _family_matrix(family)
        inc = IncrementalStats.from_coo(current)
        for step in range(6):
            delta = _random_delta(current, rng)
            current, effect = apply_delta(current, delta)
            inc.apply_effect(effect)
            maintained = inc.to_stats()
            recomputed = MatrixStats.from_matrix(current)
            # counts are exact
            for name in (
                "nrows", "ncols", "nnz", "row_nnz_min", "row_nnz_max",
                "n_empty_rows", "ndiags", "ntrue_diags", "true_diag_nnz",
                "hyb_k", "hyb_ell_nnz", "hyb_coo_nnz",
            ):
                assert getattr(maintained, name) == getattr(
                    recomputed, name
                ), f"{family} step {step}: {name} diverged"
            # moments within tight tolerance
            for name in ("row_nnz_mean", "row_nnz_std"):
                assert getattr(maintained, name) == pytest.approx(
                    getattr(recomputed, name), rel=1e-12, abs=1e-12
                ), f"{family} step {step}: {name} diverged"

    @pytest.mark.parametrize("family", sorted(EVOLVING_FAMILIES))
    def test_evolving_families_match_recompute_every_epoch(self, family):
        workload = generate_evolving(family, epochs=8, seed=5)
        inc = IncrementalStats.from_coo(workload.initial)
        current = workload.initial
        for epoch, delta in enumerate(workload.deltas):
            current, effect = apply_delta(current, delta)
            inc.apply_effect(effect)
            assert inc.to_stats() == MatrixStats.from_matrix(current), (
                f"{family} epoch {epoch}"
            )
            assert inc.nnz == current.nnz

    def test_bandwidth_tracks_offsets(self):
        coo = COOMatrix.from_dense(np.eye(5))
        inc = IncrementalStats.from_coo(coo)
        assert inc.bandwidth == 0
        _, effect = apply_delta(coo, MatrixDelta.sets([0], [4], [1.0]))
        inc.apply_effect(effect)
        assert inc.bandwidth == 4
        assert inc.nnz == 6

    def test_mismatched_effect_rejected(self):
        coo = COOMatrix.from_dense(np.eye(3))
        inc = IncrementalStats.from_coo(coo)
        _, effect = apply_delta(coo, MatrixDelta.deletes([0], [0]))
        inc.apply_effect(effect)
        with pytest.raises(ValidationError):
            inc.apply_effect(effect)  # same delete twice: row goes negative

    def test_snapshot_scalars(self):
        coo = COOMatrix.from_dense(np.eye(4))
        snap = IncrementalStats.from_coo(coo).snapshot()
        assert snap["nnz"] == 4
        assert snap["bandwidth"] == 0
        assert snap["density"] == pytest.approx(0.25)


class TestRedecisionPolicy:
    def test_zero_drift_for_identical_stats(self):
        stats = MatrixStats.from_matrix(COOMatrix.from_dense(np.eye(4)))
        policy = RedecisionPolicy()
        assert policy.drift(stats, stats) == 0.0
        assert not policy.should_retune(0.0)

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            RedecisionPolicy(threshold=0.0)

    def test_relative_drift(self):
        a = MatrixStats.from_matrix(COOMatrix.from_dense(np.eye(10)))
        dense = np.eye(10)
        dense[0, :] = 1.0  # one hub row: max row length 10x
        b = MatrixStats.from_matrix(COOMatrix.from_dense(dense))
        policy = RedecisionPolicy(threshold=0.25)
        drift = policy.drift(a, b)
        assert drift > 0.25
        assert policy.should_retune(drift)


class FixedTuner(Tuner):
    """Always picks one format; counts invocations."""

    def __init__(self, format_name: str) -> None:
        self.format_name = format_name
        self.calls = 0

    def tune(self, matrix, space, *, stats=None, matrix_key=""):
        self.calls += 1
        return TuningReport(format_id=FORMAT_IDS[self.format_name])


class TestEngineStreaming:
    @pytest.fixture
    def space(self):
        return make_space("cirrus", "serial")

    @pytest.fixture
    def matrix(self):
        rng = np.random.default_rng(0)
        dense = (rng.random((16, 16)) < 0.3) * rng.standard_normal((16, 16))
        np.fill_diagonal(dense, 1.0)
        return COOMatrix.from_dense(dense)

    def test_update_requires_tracking_or_matrix(self, space):
        engine = WorkloadEngine(space)
        with pytest.raises(ValidationError):
            engine.update("nope", MatrixDelta.sets([0], [0], [1.0]))

    def test_carried_forward_keeps_decision(self, space, matrix):
        tuner = FixedTuner("CSR")
        engine = WorkloadEngine(space, tuner)
        x = np.ones(matrix.ncols)
        engine.execute(matrix, x, key="k")
        assert tuner.calls == 1
        delta = MatrixDelta.sets([0], [1], [0.5])
        upd = engine.update("k", delta, matrix=matrix)
        assert upd.carried_forward and not upd.retuned
        assert upd.epoch == 1
        assert tuner.calls == 1  # decision carried, tuner not re-run
        inv = engine.stats()["invalidations"]
        assert inv == {
            "epoch_advances": 1, "carried_forward": 1, "forced_retunes": 0
        }
        result = engine.execute(matrix, x, key="k")
        assert result.epoch == 1
        # served content reflects the delta, bitwise vs fresh engine
        compacted, _ = apply_delta(matrix, delta)
        fresh = WorkloadEngine(space).execute(
            convert(compacted, result.format), x
        )
        assert np.array_equal(result.y, fresh.y)

    def test_forced_retune_on_heavy_drift(self, space, matrix):
        tuner = FixedTuner("CSR")
        engine = WorkloadEngine(
            space, tuner, redecision=RedecisionPolicy(threshold=0.05)
        )
        x = np.ones(matrix.ncols)
        engine.execute(matrix, x, key="k")
        # triple the matrix's nnz: far beyond a 5% drift threshold
        rng = np.random.default_rng(7)
        overlay = DeltaOverlay()
        n = matrix.nrows
        overlay.set_many(
            rng.integers(0, n, 3 * matrix.nnz),
            rng.integers(0, n, 3 * matrix.nnz),
            rng.standard_normal(3 * matrix.nnz),
        )
        upd = engine.update("k", overlay.to_delta(), matrix=matrix)
        assert upd.retuned and not upd.carried_forward
        assert tuner.calls == 2
        inv = engine.stats()["invalidations"]
        assert inv["forced_retunes"] == 1

    def test_replay_update_has_state_effect_but_no_accounting(
        self, space, matrix
    ):
        """``replay=True`` rebuilds state without recounting it.

        The distributed respawn path replays acked mutation logs whose
        applications the dead incarnation already counted (and whose
        counts were folded into retired totals), so a replayed update
        must advance the stream exactly like a normal one while leaving
        counters, seconds, and invalidation tallies untouched.
        """
        tuner = FixedTuner("CSR")
        engine = WorkloadEngine(space, tuner)
        x = np.ones(matrix.ncols)
        engine.execute(matrix, x, key="k")
        before = engine.stats()
        delta = MatrixDelta.sets([0], [1], [0.5])
        upd = engine.update("k", delta, matrix=matrix, replay=True)
        assert upd.epoch == 1
        assert upd.carried_forward
        after = engine.stats()
        assert after["invalidations"] == before["invalidations"]
        assert after["seconds"] == before["seconds"]
        assert after["counters"] == before["counters"]
        # the state effect is identical to a counted application
        twin = WorkloadEngine(space, FixedTuner("CSR"))
        twin.execute(matrix, x, key="k")
        twin.update("k", delta, matrix=matrix)
        result = engine.execute(matrix, x, key="k")
        expected = twin.execute(matrix, x, key="k")
        assert result.epoch == expected.epoch == 1
        assert np.array_equal(result.y, expected.y)

    def test_profile_times_survive_carried_forward(self, space, matrix):
        engine = WorkloadEngine(space, RunFirstTuner())
        engine.execute(matrix, np.ones(matrix.ncols), key="k")
        engine.profile_formats(matrix, key="k")
        assert "k" in engine.profile_snapshot()
        engine.update(
            "k", MatrixDelta.sets([0], [1], [0.5]), matrix=matrix
        )
        assert "k" in engine.profile_snapshot()  # carried forward: kept

    def test_profile_times_dropped_on_retune(self, space, matrix):
        engine = WorkloadEngine(
            space, RunFirstTuner(), redecision=RedecisionPolicy(threshold=0.01)
        )
        engine.execute(matrix, np.ones(matrix.ncols), key="k")
        engine.profile_formats(matrix, key="k")
        rng = np.random.default_rng(7)
        overlay = DeltaOverlay()
        overlay.set_many(
            rng.integers(0, 16, 200),
            rng.integers(0, 16, 200),
            rng.standard_normal(200),
        )
        upd = engine.update("k", overlay.to_delta(), matrix=matrix)
        assert upd.retuned
        assert "k" not in engine.profile_snapshot()

    def test_set_tuner_reanchors_stream_drift(self, space, matrix):
        """A hot model swap must not leave stale drift anchors behind."""
        engine = WorkloadEngine(space, FixedTuner("CSR"))
        x = np.ones(matrix.ncols)
        engine.execute(matrix, x, key="k")
        engine.update("k", MatrixDelta.sets([0], [1], [0.5]), matrix=matrix)
        state = engine._streams["k"]
        assert state.decided_stats is not None
        engine.set_tuner(FixedTuner("ELL"), version="v2")
        assert state.decided_stats is None  # re-anchored at next decision
        engine.execute(matrix, x, key="k")  # new model decides afresh
        upd = engine.update(
            "k", MatrixDelta.sets([0], [2], [0.5]), matrix=matrix
        )
        # the tiny delta measures against the new decision's stats, not
        # an anchor from before the swap
        assert upd.carried_forward

    def test_update_before_any_decision(self, space, matrix):
        engine = WorkloadEngine(space, FixedTuner("CSR"))
        upd = engine.update(
            "k", MatrixDelta.sets([0], [1], [2.0]), matrix=matrix
        )
        assert upd.epoch == 1
        assert upd.format is None  # nothing decided yet
        assert not upd.carried_forward and not upd.retuned
        result = engine.execute(matrix, np.ones(matrix.ncols), key="k")
        assert result.epoch == 1
        compacted, _ = apply_delta(matrix, MatrixDelta.sets([0], [1], [2.0]))
        fresh = WorkloadEngine(space).execute(
            convert(compacted, result.format), np.ones(matrix.ncols)
        )
        assert np.array_equal(result.y, fresh.y)

    def test_epoch_key_caching_avoids_content_hash(self, space, matrix):
        engine = WorkloadEngine(space)
        successor = matrix.with_updates(MatrixDelta.sets([0], [1], [1.0]))
        fp0 = engine.fingerprint(matrix)
        fp1 = engine.fingerprint(successor)
        assert fp0 == f"{matrix.stable_id}@0"
        assert fp1 == f"{matrix.stable_id}@1"
        assert fp0 != fp1  # two epochs can never collide in the cache

    def test_stream_base_matches_compaction(self, space, matrix):
        engine = WorkloadEngine(space)
        delta = MatrixDelta.sets([2], [3], [9.0])
        engine.update("k", delta, matrix=matrix)
        compacted, _ = apply_delta(matrix, delta)
        base = engine.stream_base("k")
        np.testing.assert_array_equal(base.row, compacted.row)
        np.testing.assert_array_equal(base.col, compacted.col)
        assert np.array_equal(base.data, compacted.data)

    def test_multi_epoch_stream_stays_bitwise_identical(self, space):
        workload = generate_evolving("growing_rmat", epochs=6, seed=11, scale=6)
        mats = workload.compacted()
        engine = WorkloadEngine(space, RunFirstTuner())
        key = engine.track(workload.initial, key="g")
        rng = np.random.default_rng(2)
        x = rng.standard_normal(workload.initial.ncols)
        engine.execute(workload.initial, x, key=key)
        for epoch, delta in enumerate(workload.deltas, start=1):
            upd = engine.update(key, delta)
            assert upd.epoch == epoch
            result = engine.execute(workload.initial, x, key=key)
            assert result.epoch == epoch
            fresh = WorkloadEngine(space).execute(
                convert(mats[epoch], result.format), x
            )
            assert np.array_equal(result.y, fresh.y), f"epoch {epoch}"

    def test_prepared_csr_identical_to_from_coo(self, space):
        from repro.formats.csr import CSRMatrix

        workload = generate_evolving("decaying_stencil", epochs=5, seed=4, nx=8)
        state = StreamState("s", 0, workload.initial)
        for delta in workload.deltas:
            state.merge(delta)
        direct = state.prepared_csr()
        reference = CSRMatrix.from_coo(state.content())
        np.testing.assert_array_equal(direct.row_ptr, reference.row_ptr)
        np.testing.assert_array_equal(direct.col_idx, reference.col_idx)
        assert np.array_equal(direct.data, reference.data)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("widening_band", {"n": 24, "epochs": 28}),
            ("growing_rmat", {"scale": 5, "epochs": 8}),
            ("decaying_stencil", {"nx": 6, "epochs": 12}),
        ],
    )
    def test_prepared_dia_identical_to_from_coo(self, family, params):
        """The histogram-built DIA container matches ``from_coo`` on the
        COO view bit for bit at every epoch — offsets, their dtype and
        the padded data — including epochs that delete whole diagonals
        and rows (``decaying_stencil``) and a saturated band."""
        from repro.formats.dia import DIAMatrix

        workload = generate_evolving(family, seed=4, **params)
        state = StreamState("s", 0, workload.initial)
        for epoch in range(len(workload.deltas) + 1):
            if epoch:
                state.merge(workload.deltas[epoch - 1])
            direct = state.prepared_dia()
            reference = DIAMatrix.from_coo(state.content())
            assert direct.offsets.dtype == reference.offsets.dtype
            np.testing.assert_array_equal(direct.offsets, reference.offsets)
            assert direct.data.shape == reference.data.shape
            assert direct.data.tobytes() == reference.data.tobytes(), epoch

    def test_prepared_dia_of_an_empty_matrix(self):
        from repro.formats.dia import DIAMatrix

        empty = np.zeros(0, dtype=np.int64)
        state = StreamState("s", 0, COOMatrix(5, 7, empty, empty, np.zeros(0)))
        direct = state.prepared_dia()
        reference = DIAMatrix.from_coo(state.content())
        assert direct.offsets.dtype == reference.offsets.dtype
        assert direct.offsets.size == 0
        assert direct.data.shape == reference.data.shape == (0, 7)

    @pytest.mark.parametrize("fmt", ["CSR", "DIA", "COO", "HDC"])
    def test_update_leaves_a_warm_chain(self, space, matrix, monkeypatch, fmt):
        """A carried-forward update re-seeds the key's warm chain: the
        next request resolves no stream content, counts one stats, one
        decision and one conversion hit, is priced at the new stats and
        serves the bits a fresh engine serves on the compacted matrix.
        A replayed update does the same with no accounting effect."""
        engine = WorkloadEngine(space, FixedTuner(fmt))
        x = np.random.default_rng(5).standard_normal(matrix.ncols)
        engine.execute(matrix, x, key="k")
        compacted = matrix
        for replay, delta in enumerate(
            (MatrixDelta.sets([0, 3], [1, 9], [0.5, -2.0]),
             MatrixDelta.adds([2], [2], [0.25]))
        ):
            before = engine.stats()
            upd = engine.update("k", delta, matrix=matrix, replay=bool(replay))
            compacted, _ = apply_delta(compacted, delta)
            assert upd.carried_forward and engine.has_chain("k")
            if replay:
                after = engine.stats()
                for name in ("counters", "seconds", "invalidations"):
                    assert after[name] == before[name]

            calls = []
            content = StreamState.content

            def counted(state):
                calls.append(state.epoch)
                return content(state)

            monkeypatch.setattr(StreamState, "content", counted)
            counters = engine.counters.as_dict()
            result = engine.execute(matrix, x, key="k")
            monkeypatch.setattr(StreamState, "content", content)
            assert calls == []
            moved = {
                name: engine.counters.as_dict()[name] - count
                for name, count in counters.items()
            }
            assert {n: c for n, c in moved.items() if c} == {
                "stats_hits": 1, "decision_hits": 1, "conversion_hits": 1
            }
            assert result.epoch == upd.epoch and result.format == fmt
            assert result.seconds == space.time_spmv(
                MatrixStats.from_matrix(compacted), fmt, matrix_key="k"
            )
            fresh = WorkloadEngine(space).execute(convert(compacted, fmt), x)
            assert np.array_equal(result.y, fresh.y)
