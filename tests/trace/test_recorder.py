"""TraceRecorder: capture fidelity, hook chaining and clean detach."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RunFirstTuner
from repro.errors import TraceError
from repro.formats.delta import MatrixDelta
from repro.formats.dynamic import DynamicMatrix
from repro.service import TuningService
from repro.trace import TraceRecorder, array_digest, validate_trace


def small_matrix(seed=0, n=8):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.3) * rng.standard_normal((n, n))
    dense[np.arange(n), np.arange(n)] = 1.0
    from repro.formats.coo import COOMatrix

    return DynamicMatrix(COOMatrix.from_dense(dense))


@pytest.fixture
def service(space):
    with TuningService(space, RunFirstTuner(), workers=2) as svc:
        yield svc


def wait_for(predicate, timeout=10.0):
    """Observations land on worker threads *after* futures resolve, so
    telemetry-counting tests poll instead of assuming arrival order."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"condition not reached within {timeout}s")


class TestCaptureFidelity:
    def test_recorded_results_match_live_results(self, service, tmp_path):
        matrix = small_matrix()
        recorder = TraceRecorder(service, name="fid", source="unit", seed=5)
        session = recorder.session("c0")
        rng = np.random.default_rng(5)
        live = []
        for _ in range(6):
            x = rng.standard_normal(matrix.ncols)
            live.append(session.submit(matrix, x, key="M"))
        results = [f.result() for f in live]
        trace = recorder.finish(tmp_path / "t")

        assert trace.counts["requests"] == 6
        events = sorted(
            (e for e in trace.events if e["kind"] == "spmv"),
            key=lambda e: e["seq"],
        )
        # the recorded digests ARE the live results' digests
        for event, result in zip(events, results):
            assert event["ok"] is True
            assert event["y_digest"] == array_digest(result.y)
            assert event["epoch"] == result.epoch
            assert event["format"] == result.format
            assert event["session"] == "c0"
        assert validate_trace(trace.path) == []

    def test_update_barrier_captured_with_delta_content(
        self, service, tmp_path
    ):
        matrix = small_matrix(1)
        recorder = TraceRecorder(service, name="upd")
        session = recorder.session("c0")
        session.spmv(matrix, np.ones(matrix.ncols), key="M")
        delta = MatrixDelta.sets(
            np.array([0, 1]), np.array([1, 0]), np.array([4.0, -2.0])
        )
        result = session.update(matrix, delta, key="M")
        trace = recorder.finish(tmp_path / "t")

        (event,) = [e for e in trace.events if e["kind"] == "update"]
        assert event["ok"] is True
        assert event["epoch"] == result.epoch
        assert event["ops"] == 2
        recovered = trace.delta(event)
        assert np.array_equal(recovered.row, delta.row)
        assert np.array_equal(recovered.value, delta.value)

    def test_seq_is_global_submission_order(self, service, tmp_path):
        matrix = small_matrix(2)
        recorder = TraceRecorder(service, name="ord")
        s0, s1 = recorder.session("s0"), recorder.session("s1")
        for i in range(8):
            (s0 if i % 2 == 0 else s1).submit(
                matrix, np.full(matrix.ncols, float(i)), key="M"
            )
        trace = recorder.finish(tmp_path / "t")
        seqs = [e["seq"] for e in trace.events]
        assert seqs == sorted(seqs) == list(range(8))
        # operand content identifies submission order: seq i carries x=i
        for event in trace.events:
            x = trace.operand(event)
            assert float(x[0]) == float(event["seq"])

    def test_header_records_service_and_space(self, service, tmp_path):
        recorder = TraceRecorder(service, name="hdr", seed=11)
        recorder.session("s").spmv(
            small_matrix(), np.ones(8), key="M"
        )
        wait_for(lambda: recorder.observed_requests >= 1)
        trace = recorder.finish(tmp_path / "t")
        assert trace.header["service"] == {"kind": "inproc", "workers": 2}
        assert trace.space == {"system": "cirrus", "backend": "serial"}
        assert trace.header["tuner"] == "RunFirstTuner"
        assert trace.seed == 11
        assert trace.header["sessions"] == ["s"]
        assert trace.header["recorded"]["observed_requests"] >= 1


class TestHookManagement:
    def test_observer_chained_and_restored(self, service, tmp_path):
        seen = []
        service.set_observer(seen.append)
        recorder = TraceRecorder(service, name="obs")
        recorder.session("s").spmv(small_matrix(), np.ones(8), key="M")
        wait_for(lambda: seen and recorder.observed_batches >= 1)
        trace = recorder.finish(tmp_path / "t")
        # the pre-existing observer kept receiving batches...
        assert sum(len(batch) for batch in seen) >= 1
        # ...and is back in place, unchained, after finish
        assert service._observer == seen.append
        assert trace.header["recorded"]["observed_batches"] >= 1

    def test_promote_captured_and_unwrapped(self, service, tmp_path):
        recorder = TraceRecorder(service, name="promo")
        recorder.session("s").spmv(small_matrix(), np.ones(8), key="M")
        service.promote_model(RunFirstTuner(), version="v9", source="unit")
        trace = recorder.finish(tmp_path / "t")
        (event,) = [e for e in trace.events if e["kind"] == "promote"]
        assert event["version"] == "v9"
        assert event["tuner"] == "RunFirstTuner"
        # the wrapper is gone: promote_model is the class's bound method
        assert "promote_model" not in vars(service)
        assert service.model_info["version"] == "v9"

    def test_passthrough_without_service_raises_attribute_error(self):
        # attribute lookups pass through to ``service``; before it is set
        # (copy/pickle, a failed __init__) they must fail, not recurse
        recorder = TraceRecorder.__new__(TraceRecorder)
        with pytest.raises(AttributeError):
            recorder.stats

    def test_record_after_finish_raises(self, service, tmp_path):
        recorder = TraceRecorder(service, name="done")
        session = recorder.session("s")
        session.spmv(small_matrix(), np.ones(8), key="M")
        recorder.finish(tmp_path / "t")
        with pytest.raises(TraceError, match="already finished"):
            session.submit(small_matrix(), np.ones(8), key="M")

    def test_spmm_operand_must_be_2d(self, service, tmp_path):
        recorder = TraceRecorder(service, name="spmm")
        session = recorder.session("s")
        with pytest.raises(TraceError, match="must be 2-D"):
            session.spmm(small_matrix(), np.ones(8), key="M")
        session.spmv(small_matrix(), np.ones(8), key="M")
        recorder.finish(tmp_path / "t")
