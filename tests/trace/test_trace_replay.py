"""replay_trace: determinism across runs and speeds, edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.trace import (
    SPEEDS,
    TraceWriter,
    load_trace,
    replay_trace,
    service_for_trace,
    workload_trace,
)


def run_replay(trace, *, kind="inproc", **kwargs):
    with service_for_trace(trace, kind) as service:
        return replay_trace(service, trace, **kwargs)


class TestDeterminism:
    def test_two_replays_bitwise_identical(self, small_trace):
        r1 = run_replay(small_trace)
        r2 = run_replay(small_trace)
        assert r1.ok and r2.ok
        assert r1.deterministic() == r2.deterministic()
        assert r1.results_digest == r2.results_digest
        assert r1.requests == small_trace.counts["requests"]
        assert r1.updates == small_trace.counts["updates"]

    def test_replay_verifies_against_recording(self, small_trace):
        report = run_replay(small_trace)
        assert report.mismatches == []
        assert report.lost == 0
        assert report.verified == report.requests + report.updates
        assert report.promotions_applied == small_trace.counts["promotions"]

    def test_paced_replay_matches_max_speed(self, small_trace):
        fast = run_replay(small_trace, speed="max")
        paced = run_replay(small_trace, speed="1x")
        assert paced.ok
        assert paced.deterministic() == fast.deterministic()
        assert paced.speed == "1x" and fast.speed == "max"

    def test_numeric_speed_accepted(self, small_trace):
        report = run_replay(small_trace, speed=50.0)
        assert report.ok
        assert report.speed == "50.0x"

    def test_speed_none_is_labelled_max(self, small_trace):
        report = run_replay(small_trace, speed=None)
        assert report.ok
        assert report.speed == "max"
        assert report.to_dict()["speed"] == "max"

    def test_replay_accepts_a_path(self, small_trace):
        by_path = run_replay(str(small_trace.path))
        by_trace = run_replay(small_trace)
        assert by_path.deterministic() == by_trace.deterministic()

    def test_promotion_is_a_replay_barrier(self, tmp_path):
        """Updates after a mid-run promotion must verify bitwise.

        The live swap resets every stream's drift anchor once earlier
        traffic has drained; a replay that stamps the promotion while
        pre-promote events are still queued lets them re-anchor the
        stream afterwards, and later updates see phantom drift
        (recorded drift 0.0 / carried forward vs replayed retune)."""
        from repro.backends import make_space
        from repro.core import RunFirstTuner
        from repro.service import TuningService
        from repro.trace import record_workload

        with TuningService(
            make_space("cirrus", "serial"), RunFirstTuner(), workers=2
        ) as service:
            trace = record_workload(
                service,
                tmp_path / "promoted",
                name="promoted",
                requests=24,
                sessions=2,
                n_matrices=3,
                family="widening_band",
                updates=2,
                promote_at=10,
                seed=11,
                compact=True,
            )
        promote_seq = next(
            e["seq"] for e in trace.events if e["kind"] == "promote"
        )
        post = [
            e for e in trace.events
            if e["kind"] == "update" and e["seq"] > promote_seq
        ]
        assert post, "workload must place an update after the promotion"
        report = run_replay(trace)
        assert report.ok, report.mismatches
        assert report.promotions_applied == 1


class TestReportShape:
    def test_report_dict_fields(self, small_trace):
        report = run_replay(small_trace)
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["trace"] == small_trace.name
        assert payload["trace_fingerprint"] == small_trace.fingerprint
        assert payload["results_digest"] == report.results_digest
        assert payload["wall_seconds"] > 0
        assert payload["recorded_wall_seconds"] > 0
        assert report.throughput_rps > 0

    def test_records_cover_every_event(self, small_trace):
        report = run_replay(small_trace)
        spmv = [r for r in report.records if r["kind"] == "spmv"]
        updates = [r for r in report.records if r["kind"] == "update"]
        assert len(spmv) == report.requests
        assert len(updates) == report.updates
        for record in spmv:
            assert set(record) >= {"seq", "key", "y_digest", "epoch",
                                   "format"}
        for record in updates:
            assert set(record) >= {"seq", "key", "epoch", "carried_forward",
                                   "retuned", "format", "drift"}

    def test_verify_false_skips_comparison(self, small_trace):
        report = run_replay(small_trace, verify=False)
        assert report.verified == 0
        assert report.mismatches == []
        # results are still collected, just not compared
        assert report.requests == small_trace.counts["requests"]


class TestEdgeCases:
    def test_empty_trace_replays_cleanly(self, tmp_path):
        path = TraceWriter(name="empty").write(tmp_path / "empty")
        trace = load_trace(path)
        assert len(trace) == 0
        report = run_replay(trace)
        assert report.ok
        assert report.requests == 0 and report.updates == 0
        assert report.records == []
        assert report.results_digest  # still a stable digest

    def test_unknown_speed_rejected(self, small_trace):
        with pytest.raises(ValidationError, match="unknown replay speed"):
            run_replay(small_trace, speed="11x")
        with pytest.raises(ValidationError, match="must be > 0"):
            run_replay(small_trace, speed=0)

    def test_speed_table_is_the_cli_contract(self):
        assert SPEEDS == {"1x": 1.0, "10x": 10.0, "100x": 100.0, "max": None}

    def test_kill_event_skipped_on_inproc(self, tmp_path, small_trace):
        # splice a kill event into a copy of the recorded event list
        import json
        import os

        import shutil

        path = tmp_path / "killed"
        shutil.copytree(small_trace.path, path)
        events_path = os.path.join(path, "events.jsonl")
        with open(events_path) as fh:
            events = [json.loads(line) for line in fh if line.strip()]
        last = events[-1]
        events.append({
            "seq": last["seq"] + 1, "t": last["t"], "kind": "kill",
            "session": "", "worker": 0,
            "anchor": small_trace.matrix_keys()[0],
        })
        with open(events_path, "w") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        # load bypasses the fingerprint (validate would flag the splice)
        trace = load_trace(path)
        report = run_replay(trace)
        assert report.ok
        assert report.kills_injected == 0
        assert report.kills_skipped == 1

    def test_stuck_requests_share_one_deadline(self, small_trace):
        """A promotion barrier and the final collection wait on one
        deadline: k futures that never resolve cost ~timeout, not
        k x timeout, and each counts as lost."""
        import time
        from concurrent.futures import Future

        class StuckService:
            tuner = None

            def __init__(self):
                self.futures = []

            def session(self, name=""):
                return self

            def submit(self, matrix, x, *, key=None, repetitions=1):
                self.futures.append(Future())
                return self.futures[-1]

            submit_update = submit

            def promote_model(self, tuner, *, version, algorithm=""):
                pass

            def stats(self):
                return {}

        service = StuckService()
        assert small_trace.counts["promotions"] == 1
        t0 = time.monotonic()
        report = replay_trace(service, small_trace, timeout=0.5)
        elapsed = time.monotonic() - t0
        assert len(service.futures) >= 6
        assert elapsed < 1.5, f"replay blocked {elapsed:.2f}s"
        assert report.lost == len(service.futures)
        assert report.requests == report.updates == 0
        assert report.promotions_applied == 1
        assert not report.ok

        # plain requests run one client thread per session; every
        # thread waits on the same deadline
        plain = workload_trace(3, 12, seed=3, sessions=3, compact=True)
        t0 = time.monotonic()
        report = replay_trace(StuckService(), plain, timeout=0.5)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.5, f"replay blocked {elapsed:.2f}s"
        assert report.lost == 12

    def test_timeout_counts_from_the_last_paced_arrival(self, small_trace):
        """Pacing does not eat into *timeout*: a 1x replay that runs
        longer than the timeout still collects every request."""
        import dataclasses
        import time

        events = sorted(small_trace.events, key=lambda e: e["seq"])
        paced = dataclasses.replace(
            small_trace,
            events=[dict(e, t=0.04 * i) for i, e in enumerate(events)],
        )
        t0 = time.monotonic()
        report = run_replay(paced, speed="1x", timeout=0.25)
        assert time.monotonic() - t0 > 0.25 + 0.04
        assert report.ok, (report.mismatches, report.lost)
        assert report.lost == 0
        assert report.requests == small_trace.counts["requests"]

    def test_unknown_service_kind_rejected(self, small_trace):
        with pytest.raises(ValidationError, match="unknown service kind"):
            service_for_trace(small_trace, "quantum")

    def test_matrices_rebuilt_fresh_per_replay(self, small_trace):
        # two consecutive replays with updates must both start at epoch 0:
        # if replay mutated the trace's matrices, epochs would drift
        r1 = run_replay(small_trace)
        r2 = run_replay(small_trace)
        first_update = min(
            (r for r in r1.records if r["kind"] == "update"),
            key=lambda r: r["seq"],
        )
        same = min(
            (r for r in r2.records if r["kind"] == "update"),
            key=lambda r: r["seq"],
        )
        recorded = min(
            (e for e in small_trace.events if e["kind"] == "update"),
            key=lambda e: e["seq"],
        )
        assert first_update["epoch"] == same["epoch"] == recorded["epoch"]


def test_operands_replayed_bitwise(small_trace):
    """The replayed operand content is the recorded content, exactly."""
    from repro.trace import array_digest

    for event in small_trace.events:
        if event["kind"] != "spmv":
            continue
        assert array_digest(small_trace.operand(event)) == event["x_digest"]
        assert np.asarray(small_trace.operand(event)).dtype == np.float64
