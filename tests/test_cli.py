"""Tests for the command-line interface."""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import write_matrix_market
from repro.datasets.generators import banded


@pytest.fixture(scope="module")
def mtx_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "band.mtx"
    write_matrix_market(path, banded(2_000, half_bandwidth=2, seed=0))
    return str(path)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.file"
    code = main(
        [
            "train",
            "--system", "cirrus",
            "--backend", "cuda",
            "-n", "80",
            "-o", str(path),
        ]
    )
    assert code == 0
    return str(path)


class TestSystems:
    def test_lists_all_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        for name in ("archer2", "cirrus", "a64fx", "xci", "p3"):
            assert name in out

    def test_shows_devices(self, capsys):
        main(["systems"])
        out = capsys.readouterr().out
        assert "A100" in out
        assert "MI100" in out


class TestProfile:
    def test_prints_distribution(self, capsys):
        assert main(
            ["profile", "--system", "archer2", "--backend", "serial", "-n", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "CSR" in out
        assert "%" in out

    def test_rejects_invalid_backend(self):
        with pytest.raises(SystemExit):
            main(["profile", "--system", "archer2", "--backend", "vulkan"])


class TestFeatures:
    def test_prints_all_ten(self, capsys, mtx_file):
        assert main(["features", mtx_file]) == 0
        out = capsys.readouterr().out
        for name in ("M", "NNZ_avg", "rho", "ND", "NTD"):
            assert name in out

    def test_values_sane(self, capsys, mtx_file):
        main(["features", mtx_file])
        out = capsys.readouterr().out
        assert "2000" in out  # M == N == 2000


class TestTrainPredictTune:
    def test_train_writes_model(self, model_file):
        with open(model_file) as fh:
            assert fh.readline().startswith("# morpheus-oracle model")

    def test_predict(self, capsys, model_file, mtx_file):
        assert main(["predict", "--model", model_file, mtx_file]) == 0
        out = capsys.readouterr().out
        assert "predicted optimal format" in out
        assert "cirrus/cuda" in out

    def test_tune_report(self, capsys, model_file, mtx_file):
        assert main(
            ["tune", "--model", model_file, "--repetitions", "500", mtx_file]
        ) == 0
        out = capsys.readouterr().out
        assert "selected format" in out
        assert "speedup vs CSR" in out
        assert "500" in out

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestBatch:
    def test_serves_workload_and_reports_caching(self, capsys):
        assert main(
            [
                "batch",
                "--system", "cirrus",
                "--backend", "serial",
                "-n", "4",
                "--requests", "12",
                "--seed", "7",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "served               12 requests" in out
        assert "decision cache" in out
        assert "tuning overhead" in out

    def test_requests_exceeding_corpus_reuse_matrices(self, capsys):
        assert main(
            [
                "batch",
                "--system", "p3",
                "--backend", "cuda",
                "-n", "2",
                "--requests", "8",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "over 2 matrices" in out


class TestRunResume:
    @pytest.fixture(scope="class")
    def suite(self, tmp_path_factory):
        from repro.experiments import CorpusSpec, ExperimentSpec, TargetSpec

        root = tmp_path_factory.mktemp("suite")
        spec = ExperimentSpec(
            name="cli-suite",
            corpus=CorpusSpec(n_matrices=16, seed=11),
            targets=(TargetSpec("cirrus", "serial"),),
            algorithms=("random_forest",),
            grid={"n_estimators": [4], "max_depth": [6]},
            cv=3,
        )
        spec_path = root / "suite.json"
        spec.save(spec_path)
        return str(spec_path), str(root / "store")

    def test_run_computes_then_resumes_from_store(self, capsys, suite):
        spec_path, store = suite
        assert main(["run", spec_path, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "stages served from the artifact store: 0/5" in out
        assert "matrices generated   16" in out
        assert "models exported      1" in out
        # identical second run: fully served from the store, zero generation
        assert main(["run", spec_path, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "stages served from the artifact store: 5/5" in out
        assert "matrices generated   0" in out

    def test_until_then_resume(self, capsys, suite, tmp_path):
        spec_path, _ = suite
        store = str(tmp_path / "store")
        assert main(
            ["run", spec_path, "--store", store, "--until", "profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "stages served from the artifact store: 0/1" in out
        # resume picks the recorded spec up and finishes the remaining DAG
        assert main(["resume", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "profile    store" in out
        assert "matrices generated   0" in out
        assert "tuned accuracy" in out

    def test_resume_empty_store_fails_cleanly(self, tmp_path):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            main(["resume", "--store", str(tmp_path / "empty")])


class TestServe:
    def test_synthetic_workload_reports_service_counters(self, capsys):
        assert main(
            [
                "serve",
                "--system", "cirrus",
                "--backend", "serial",
                "--workers", "2",
                "--capacity", "4",
                "--clients", "4",
                "--requests", "40",
                "-n", "4",
                "--seed", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "served               40 requests from 4 clients" in out
        # every served request is attributed to the kernel that ran it,
        # coalesced ones included (the trace has no updates)
        (line,) = [s for s in out.splitlines() if s.startswith("kernel tier")]
        counts = re.findall(
            r"(?:scipy\.(?:csr|dia|coo)|numpy) (\d+) requests", line
        )
        assert counts and sum(int(n) for n in counts) == 40
        assert "throughput" in out
        assert "coalescing" in out
        assert "engine cache" in out
        assert "modelled seconds" in out

    def test_requires_target_without_store(self, capsys):
        assert main(["serve", "--requests", "4"]) == 2
        err = capsys.readouterr().err
        assert "--system and --backend are required" in err

    def test_serve_replays_stored_suite(self, capsys, tmp_path):
        from repro.experiments import CorpusSpec, ExperimentSpec, TargetSpec

        spec = ExperimentSpec(
            name="serve-suite",
            corpus=CorpusSpec(n_matrices=12, seed=5),
            targets=(TargetSpec("cirrus", "serial"),),
            algorithms=("random_forest",),
            grid={"n_estimators": [4], "max_depth": [6]},
            cv=3,
        )
        spec_path = tmp_path / "suite.json"
        spec.save(spec_path)
        store = str(tmp_path / "store")
        assert main(["run", str(spec_path), "--store", store]) == 0
        capsys.readouterr()

        assert main(
            [
                "serve",
                "--store", store,
                "--workers", "2",
                "--clients", "2",
                "--requests", "20",
                "-n", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "replaying suite      serve-suite" in out
        assert "served               20 requests from 2 clients" in out


class TestServeDistributed:
    def test_kill_drill_recovers_every_request(self, capsys):
        # the trace's kill event SIGKILLs a worker mid-replay; the lines
        # below are the ones CI's recovery drill greps
        assert main(
            [
                "serve",
                "--system", "cirrus",
                "--backend", "serial",
                "--distributed",
                "--workers", "2",
                "--clients", "4",
                "--requests", "40",
                "-n", "4",
                "--kill-after", "8",
                "--verify-identity",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "kill drill           1 worker SIGKILLed after 8" in out
        assert re.search(r"worker respawns      [1-9][0-9]* \(.* 0 lost\)", out)
        assert "kill recovery        OK" in out
        assert "bitwise identity     OK" in out

    def test_kill_after_requires_distributed(self, capsys):
        assert main(
            [
                "serve",
                "--system", "cirrus",
                "--backend", "serial",
                "--requests", "4",
                "--kill-after", "2",
            ]
        ) == 2
        assert "--kill-after requires --distributed" in capsys.readouterr().err


class TestRecordReplay:
    def test_record_compact_then_replay(self, capsys, tmp_path):
        from repro.trace import load_trace

        out = str(tmp_path / "trace")
        assert main(
            ["record", "--out", out, "--compact", "-n", "3",
             "--requests", "12"]
        ) == 0
        assert "recorded             12 requests" in capsys.readouterr().out
        # the compact corpus, not sampled collection matrices
        assert set(load_trace(out).matrix_keys()) == {
            "banded_0", "stencil_2d_1", "powerlaw_2"
        }
        assert main(["replay", "--trace", out, "--bench-out", ""]) == 0
        replayed = capsys.readouterr().out
        assert "bitwise-identical, 0 lost" in replayed
        assert "replay               OK" in replayed

    def test_adaptive_replay_shadow_probes(self, capsys, tmp_path):
        golden = os.path.join(
            os.path.dirname(__file__), "trace", "golden", "adaptive-drift"
        )
        assert main(
            [
                "replay",
                "--trace", golden,
                "--service", "adaptive",
                "--registry", str(tmp_path / "registry"),
                "--bench-out", "",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "replay               OK" in out
        # the adaptive line serve prints; shadow timings feed the loop
        probed = re.search(r"^adaptive .* (\d+) shadow-probed\)$", out, re.M)
        assert probed is not None and int(probed.group(1)) > 0


class TestStream:
    def test_streams_an_evolving_rmat_trace(self, capsys):
        assert main(
            [
                "stream",
                "--family", "growing_rmat",
                "--epochs", "6",
                "--requests-per-epoch", "2",
                "--workers", "2",
                "--seed", "11",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "stream               growing_rmat" in out
        assert "epochs               6 advanced" in out
        assert "carried forward" in out
        assert "bitwise-identical to a from-scratch engine" in out
        assert "MISMATCH" not in out
        assert "invalidations        epoch_advances=6" in out

    def test_every_family_streams(self, capsys):
        for family in ("widening_band", "decaying_stencil"):
            assert main(
                [
                    "stream",
                    "--family", family,
                    "--epochs", "4",
                    "--requests-per-epoch", "1",
                    "--workers", "2",
                ]
            ) == 0
            out = capsys.readouterr().out
            assert "epochs               4 advanced" in out
            assert "MISMATCH" not in out

    def test_no_verify_skips_identity(self, capsys):
        assert main(
            ["stream", "--epochs", "3", "--no-verify", "--workers", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "identity             skipped (--no-verify)" in out

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["stream", "--family", "nope"])


class TestAdapt:
    def test_adaptive_loop_end_to_end(self, capsys, tmp_path):
        assert main(
            [
                "adapt",
                "--system", "cirrus",
                "--backend", "cuda",
                "--train-matrices", "16",
                "-n", "4",
                "--requests", "96",
                "--waves", "3",
                "--registry", str(tmp_path / "registry"),
                "--seed", "42",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "bootstrap            v0001" in out
        assert "drift                drift detected" in out
        assert "retrain" in out
        assert "promoted             v" in out
        assert "mispredict rate      frozen" in out
        assert "lower" in out
        # the registry directory is a real, reusable artifact
        from repro.adaptive import ModelRegistry

        registry = ModelRegistry(tmp_path / "registry")
        assert registry.current() is not None
        assert registry.current() != "v0001"
        assert len(registry.versions()) >= 2


class TestServeAdaptive:
    def test_serve_prints_model_block(self, capsys):
        assert main(
            [
                "serve",
                "--system", "cirrus",
                "--backend", "serial",
                "--workers", "2",
                "--clients", "2",
                "--requests", "20",
                "-n", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "model                -" in out
        assert "promotions 0" in out

    def test_serve_adaptive_reports_loop_counters(self, capsys, tmp_path):
        assert main(
            [
                "serve",
                "--system", "cirrus",
                "--backend", "serial",
                "--workers", "2",
                "--clients", "2",
                "--requests", "30",
                "-n", "3",
                "--adaptive",
                "--registry", str(tmp_path / "registry"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "adaptive             " in out
        assert "telemetry records" in out
        assert "shadow-probed" in out
