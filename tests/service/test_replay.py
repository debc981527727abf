"""Generated workloads driven through the one driver, ``replay_trace``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_space
from repro.core import RunFirstTuner
from repro.errors import TuningError, ValidationError
from repro.experiments import ArtifactStore, CorpusSpec, ExperimentSpec
from repro.runtime.engine import WorkloadEngine
from repro.service import TuningService, service_for_suite
from repro.trace import (
    array_digest,
    record_workload,
    replay_trace,
    spmv_trace,
    workload_trace,
)


def spmv_events(trace):
    return [e for e in trace.events if e["kind"] == "spmv"]


def assert_matches_serial(report, trace, space):
    """Every replayed result equals serial ``engine.execute``, bit for bit."""
    engine = WorkloadEngine(space, RunFirstTuner())
    digests = {r["seq"]: r["y_digest"] for r in report.records}
    for event in spmv_events(trace):
        key = event["key"]
        serial = engine.execute(
            trace.matrix(key), trace.operand(event), key=key
        )
        assert digests[event["seq"]] == array_digest(serial.y)


class TestSyntheticTrace:
    def test_deterministic_for_a_seed(self):
        t1 = workload_trace(4, 20, seed=9)
        t2 = workload_trace(4, 20, seed=9)
        assert t1.events == t2.events
        assert {e["key"] for e in t1.events} <= set(t1.matrix_keys())
        for event in t1.events:
            assert np.array_equal(t1.operand(event), t2.operand(event))

    def test_different_seeds_differ(self):
        t1 = workload_trace(4, 30, seed=1)
        t2 = workload_trace(4, 30, seed=2)
        first = t1.events[0]
        assert t1.events != t2.events or not np.array_equal(
            t1.operand(first), t2.operand(first)
        )

    def test_requests_validated(self):
        with pytest.raises(ValidationError):
            workload_trace(4, 0)


class TestReplay:
    def test_replay_matches_serial_dispatch(self):
        space = make_space("cirrus", "serial")
        trace = workload_trace(3, 24, seed=5, sessions=4)
        with TuningService(space, RunFirstTuner(), workers=3) as service:
            report = replay_trace(service, trace)

        assert report.ok
        assert report.requests == 24
        assert len(report.records) == len(report.latencies) == 24
        assert report.throughput_rps > 0
        assert report.mean_latency_seconds >= 0.0
        assert report.service_stats["requests_served"] == 24
        assert_matches_serial(report, trace, space)

    def test_clients_validated(self):
        with pytest.raises(ValidationError):
            workload_trace(2, 4, seed=0, sessions=0)


class TestSuiteTrace:
    def test_trace_from_stored_suite(self, tmp_path):
        spec = ExperimentSpec(
            name="replay-suite", corpus=CorpusSpec(n_matrices=6, seed=11)
        )
        store = ArtifactStore(tmp_path)
        store.save_spec(spec)

        loaded = ArtifactStore(tmp_path).load_spec()
        trace = workload_trace(
            4, 10, seed=11,
            collection=loaded.corpus.build(),
            source=f"suite:{loaded.name}",
        )
        assert loaded.fingerprint == spec.fingerprint
        assert trace.header["source"] == "suite:replay-suite"
        assert len(trace) == 10
        assert len(trace.matrix_keys()) == 4
        corpus_names = {s.name for s in spec.corpus.build().specs}
        assert set(trace.matrix_keys()) <= corpus_names

        space = make_space("cirrus", "serial")
        with TuningService(space, RunFirstTuner(), workers=2) as service:
            report = replay_trace(service, trace)
        assert report.ok and report.requests == 10
        assert_matches_serial(report, trace, space)

    def test_missing_suite_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            service_for_suite(tmp_path)

    def test_unexported_suite_fails_before_service_construction(
        self, tmp_path
    ):
        """A spec without its export artifact must not build a partial
        service — the error names the missing model database."""
        spec = ExperimentSpec(
            name="never-exported", corpus=CorpusSpec(n_matrices=4, seed=3)
        )
        store = ArtifactStore(tmp_path)
        store.save_spec(spec)
        with pytest.raises(TuningError, match="no exported model database"):
            service_for_suite(tmp_path)


class TestReplayEdgeCases:
    def test_empty_trace(self):
        space = make_space("cirrus", "serial")
        trace = spmv_trace({}, [])
        assert len(trace) == 0
        with TuningService(space, RunFirstTuner(), workers=1) as service:
            report = replay_trace(service, trace)
        assert report.ok
        assert report.requests == 0
        assert report.records == []
        assert report.throughput_rps == 0.0
        assert report.mean_latency_seconds == 0.0
        assert report.service_stats["requests_served"] == 0

    def test_single_client_matches_many(self):
        space = make_space("cirrus", "serial")
        solo = workload_trace(3, 12, seed=8, sessions=1)
        many = workload_trace(3, 12, seed=8, sessions=3)
        reports = []
        for trace in (solo, many):
            with TuningService(space, RunFirstTuner(), workers=2) as service:
                reports.append(replay_trace(service, trace))
        assert reports[0].requests == reports[1].requests == 12
        assert reports[0].deterministic() == reports[1].deterministic()


class TestRecordedTrace:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("recorded") / "t"
        space = make_space("cirrus", "serial")
        with TuningService(space, RunFirstTuner(), workers=2) as service:
            return record_workload(
                service, out, name="adapted", source="test",
                requests=8, sessions=2, n_matrices=3, seed=21, compact=True,
            )

    def test_recording_preserves_generated_sequence_and_operands(
        self, recorded
    ):
        # the sessions submit concurrently, so the recording keeps each
        # session's own order, not the generated interleaving
        generated = workload_trace(
            3, 8, seed=21, sessions=2, compact=True
        )
        assert recorded.header["source"] == "test"

        def by_session(trace):
            events = sorted(spmv_events(trace), key=lambda e: e["seq"])
            return {
                name: [e for e in events if e["session"] == name]
                for name in ("s0", "s1")
            }

        got, want = by_session(recorded), by_session(generated)
        for name in ("s0", "s1"):
            assert [e["key"] for e in got[name]] == [
                e["key"] for e in want[name]
            ]
            for event, expected in zip(got[name], want[name]):
                assert np.array_equal(
                    recorded.operand(event), generated.operand(expected)
                )
        assert sum(map(len, got.values())) == len(spmv_events(generated))

    def test_recorded_trace_drives_replay(self, recorded):
        space = make_space("cirrus", "serial")
        with TuningService(space, RunFirstTuner(), workers=2) as service:
            report = replay_trace(service, recorded.path)
        assert report.ok
        assert report.verified == report.requests == len(
            spmv_events(recorded)
        )
        assert_matches_serial(report, recorded, space)
