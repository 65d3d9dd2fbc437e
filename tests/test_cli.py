"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.engine import JoinEstimationEngine


class TestParser:
    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate", "--threshold", "0.8"])
        assert args.command == "estimate"
        assert args.profile == "dblp"
        # None = "not explicitly chosen"; the command fills in lsh-ss rs
        # (and can therefore reject an explicit list on single-estimator backends)
        assert args.estimators is None

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.trials == 5
        assert 0.9 in args.thresholds

    def test_probabilities_profile_choice(self):
        args = build_parser().parse_args(["probabilities", "--profile", "nyt"])
        assert args.profile == "nyt"

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--threshold", "0.5", "--profile", "wiki"])

    def test_unknown_estimator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["estimate", "--threshold", "0.5", "--estimators", "magic"]
            )

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    COMMON = ["--num-vectors", "300", "--num-hashes", "8", "--seed", "1"]

    def test_estimate_command_output(self, capsys):
        exit_code = main(
            ["estimate", "--threshold", "0.8", "--estimators", "lsh-ss", "ju", *self.COMMON]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "LSH-SS" in captured.out
        assert "exact join" in captured.out

    def test_estimate_no_exact(self, capsys):
        exit_code = main(
            ["estimate", "--threshold", "0.8", "--no-exact", "--estimators", "rs", *self.COMMON]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "exact join" not in captured.out

    def test_estimate_invalid_threshold_returns_error_code(self, capsys):
        exit_code = main(["estimate", "--threshold", "1.5", *self.COMMON])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_sweep_command_output(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--thresholds", "0.5", "0.9",
                "--trials", "2",
                "--estimators", "lsh-ss", "rs",
                *self.COMMON,
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "LSH-SS over%" in captured.out
        assert "0.9" in captured.out

    def test_probabilities_command_output(self, capsys):
        exit_code = main(["probabilities", "--thresholds", "0.5", "0.9", *self.COMMON])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "P(T|H)" in captured.out

    def test_all_estimator_names_buildable(self, capsys):
        exit_code = main(
            [
                "estimate",
                "--threshold", "0.9",
                "--no-exact",
                "--estimators", "lsh-ss", "lsh-ss-d", "lsh-s", "ju", "lc", "rs", "rs-cross",
                *self.COMMON,
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        for label in ("LSH-SS", "LSH-SS(D)", "LSH-S", "J_U", "LC", "RS(pop)", "RS(cross)"):
            assert label in captured.out


class TestStreamCommand:
    @staticmethod
    def _write_log(path, *, num_vectors=60, dimension=12, dense=True):
        import json

        import numpy as np

        rng = np.random.default_rng(0)
        lines = []
        for i in range(num_vectors):
            values = (rng.random(dimension) < 0.4).astype(float)
            if dense:
                lines.append(json.dumps({"op": "insert", "dense": values.tolist()}))
            else:
                vector = {str(j): v for j, v in enumerate(values) if v}
                lines.append(json.dumps({"op": "insert", "vector": vector}))
            if i and i % 9 == 0:
                lines.append(json.dumps({"op": "delete", "id": i - 4}))
        lines.append(json.dumps({"op": "checkpoint", "label": "done"}))
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_stream_parser_defaults(self):
        args = build_parser().parse_args(["stream", "--events", "log.jsonl"])
        assert args.command == "stream"
        assert args.threshold == 0.8
        assert args.batch_size == 100
        assert args.mode == "auto"

    def test_stream_command_output(self, capsys, tmp_path):
        log = self._write_log(tmp_path / "events.jsonl")
        exit_code = main(
            ["stream", "--events", str(log), "--threshold", "0.7",
             "--batch-size", "20", "--num-hashes", "6", "--seed", "3"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "N_H" in captured.out
        assert "done" in captured.out          # checkpoint label appears
        assert "batch of 20" in captured.out   # batch boundary emission

    def test_stream_exact_mode(self, capsys, tmp_path):
        log = self._write_log(tmp_path / "events.jsonl", num_vectors=30)
        exit_code = main(
            ["stream", "--events", str(log), "--mode", "exact",
             "--batch-size", "10", "--num-hashes", "6"]
        )
        assert exit_code == 0
        assert "N_L" in capsys.readouterr().out

    def test_stream_sparse_vectors_need_dimension(self, capsys, tmp_path):
        log = self._write_log(tmp_path / "events.jsonl", dense=False)
        exit_code = main(["stream", "--events", str(log), "--num-hashes", "6"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "dimension" in captured.err
        exit_code = main(
            ["stream", "--events", str(log), "--num-hashes", "6", "--dimension", "12"]
        )
        assert exit_code == 0

    def test_stream_missing_file(self, capsys, tmp_path):
        exit_code = main(["stream", "--events", str(tmp_path / "nope.jsonl")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not found" in captured.err

    @pytest.mark.parametrize(
        "bad, match",
        [
            ('{"op": "delete", "id": 1.5}', "'id' must be an integer"),
            ('{"op": "insert", "vector": {"a": 1.0}}', "vector indices must be numbers"),
        ],
        ids=["fractional-id", "word-key"],
    )
    def test_stream_refuses_malformed_event(self, capsys, tmp_path, bad, match):
        """A fractional id used to delete row 1 (exit 0), a word key to
        escape as a traceback (exit 1); both are defined errors."""
        log = self._write_log(tmp_path / "events.jsonl", num_vectors=3)
        log.write_text(log.read_text() + bad + "\n")
        exit_code = main(["stream", "--events", str(log), "--num-hashes", "4"])
        assert exit_code == 2
        assert match in capsys.readouterr().err

    def test_stream_invalid_batch_size(self, capsys, tmp_path):
        log = self._write_log(tmp_path / "events.jsonl", num_vectors=5)
        exit_code = main(["stream", "--events", str(log), "--batch-size", "0"])
        assert exit_code == 2


class TestShardCommand:
    _write_log = staticmethod(TestStreamCommand._write_log)

    def test_shard_command_output(self, capsys, tmp_path):
        log = self._write_log(tmp_path / "events.jsonl")
        exit_code = main(
            ["shard", "--events", str(log), "--shards", "3", "--threshold", "0.7",
             "--batch-size", "20", "--num-hashes", "6", "--seed", "3"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "3 shards" in captured.out
        assert "per-shard n" in captured.out
        assert "done" in captured.out          # checkpoint label appears
        assert "batch of 20" in captured.out   # batch boundary emission

    def test_shard_exact_mode_matches_unsharded_strata(self, capsys, tmp_path):
        log = self._write_log(tmp_path / "events.jsonl", num_vectors=30)
        exit_code = main(
            ["shard", "--events", str(log), "--mode", "exact", "--num-hashes", "6"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "mode=exact" in captured.out

    def test_shard_snapshot_written(self, capsys, tmp_path):
        log = self._write_log(tmp_path / "events.jsonl", num_vectors=30)
        snapshot = tmp_path / "cluster.pkl"
        exit_code = main(
            ["shard", "--events", str(log), "--num-hashes", "6",
             "--snapshot", str(snapshot)]
        )
        capsys.readouterr()
        assert exit_code == 0
        assert snapshot.exists()
        with JoinEstimationEngine.restore(snapshot) as revived:
            revived.backend.index.check_invariants()

    def test_shard_missing_file(self, capsys, tmp_path):
        exit_code = main(["shard", "--events", str(tmp_path / "nope.jsonl")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not found" in captured.err

    def test_shard_sparse_log_requires_dimension(self, capsys, tmp_path):
        log = self._write_log(tmp_path / "events.jsonl", dense=False)
        exit_code = main(["shard", "--events", str(log), "--num-hashes", "6"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "dimension" in captured.err


class TestRebalanceCommand:
    _write_log = staticmethod(TestStreamCommand._write_log)

    def _snapshot(self, tmp_path):
        log = self._write_log(tmp_path / "events.jsonl", num_vectors=30)
        snapshot = tmp_path / "cluster.pkl"
        assert main(
            ["shard", "--events", str(log), "--num-hashes", "6", "--shards", "2",
             "--snapshot", str(snapshot)]
        ) == 0
        return snapshot

    def test_dry_run_prints_plan_without_writing(self, capsys, tmp_path):
        snapshot = self._snapshot(tmp_path)
        capsys.readouterr()
        exit_code = main(
            ["rebalance", "--snapshot", str(snapshot), "--shards", "3",
             "--threshold", "0.7"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "dry run" in captured.out
        assert "moved fraction" in captured.out

    def test_apply_writes_rebalanced_snapshot(self, capsys, tmp_path):
        snapshot = self._snapshot(tmp_path)
        output = tmp_path / "cluster3.pkl"
        capsys.readouterr()
        exit_code = main(
            ["rebalance", "--snapshot", str(snapshot), "--shards", "3",
             "--threshold", "0.7", "--output", str(output)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "written to" in captured.out
        with JoinEstimationEngine.restore(output) as revived:
            cluster = revived.backend.index
            cluster.check_invariants()
            assert cluster.num_shards == 3
            assert cluster.partitioner.num_shards == 3

    def test_failed_step_closes_the_engine(self, capsys, tmp_path, monkeypatch):
        """A rebalance step that raises still closes the restored engine once."""
        snapshot = self._snapshot(tmp_path)
        closes = []
        close = JoinEstimationEngine.close

        def counting_close(engine):
            closes.append(engine)
            close(engine)

        monkeypatch.setattr(JoinEstimationEngine, "close", counting_close)
        capsys.readouterr()
        exit_code = main(["rebalance", "--snapshot", str(snapshot), "--shards", "0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "num_shards must be >= 1" in captured.err
        assert len(closes) == 1

    def test_missing_snapshot(self, capsys, tmp_path):
        exit_code = main(["rebalance", "--snapshot", str(tmp_path / "nope.pkl")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not found" in captured.err


class TestEngineConfigCLI:
    """The one --config path every serving command shares."""

    _write_log = staticmethod(TestStreamCommand._write_log)

    @staticmethod
    def _config_file(tmp_path, payload):
        import json

        path = tmp_path / "engine.json"
        path.write_text(json.dumps(payload))
        return path

    def test_estimate_with_sharded_config(self, capsys, tmp_path):
        config = self._config_file(tmp_path, {
            "backend": "sharded", "num_hashes": 6, "seed": 1,
            "options": {"num_shards": 3},
        })
        exit_code = main(
            ["estimate", "--config", str(config), "--threshold", "0.8",
             "--num-vectors", "200"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "backend=sharded" in captured.out
        assert "LSH-SS(sharded)" in captured.out
        assert "exact join" in captured.out

    def test_estimate_honours_config_default_estimator(self, capsys, tmp_path):
        """options['estimator'] wins when --estimators is not given."""
        config = self._config_file(tmp_path, {
            "backend": "static", "num_hashes": 6, "options": {"estimator": "ju"},
        })
        exit_code = main(
            ["estimate", "--config", str(config), "--threshold", "0.8",
             "--num-vectors", "200", "--no-exact"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "J_U" in captured.out
        assert "LSH-SS" not in captured.out

    def test_estimate_rejects_explicit_estimators_on_non_static(self, capsys, tmp_path):
        """Asking for estimator flavors a backend cannot serve is an error."""
        config = self._config_file(tmp_path, {
            "backend": "sharded", "num_hashes": 6, "options": {"num_shards": 2},
        })
        exit_code = main(
            ["estimate", "--config", str(config), "--threshold", "0.8",
             "--num-vectors", "200", "--estimators", "lsh-s", "lc"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "single estimator" in captured.err

    def test_estimate_with_streaming_config(self, capsys, tmp_path):
        config = self._config_file(tmp_path, {"backend": "streaming", "num_hashes": 6})
        exit_code = main(
            ["estimate", "--config", str(config), "--threshold", "0.8",
             "--num-vectors", "200", "--no-exact"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "LSH-SS(stream)" in captured.out

    def test_estimate_matches_flag_construction(self, capsys, tmp_path):
        """A static config file and the legacy flags serve identical numbers."""
        config = self._config_file(tmp_path, {
            "backend": "static", "num_hashes": 8, "seed": 1,
        })
        common = ["--threshold", "0.8", "--num-vectors", "200", "--seed", "1",
                  "--estimators", "lsh-ss", "--no-exact"]
        assert main(["estimate", "--config", str(config), *common]) == 0
        via_config = capsys.readouterr().out
        assert main(["estimate", "--num-hashes", "8", *common]) == 0
        via_flags = capsys.readouterr().out
        config_rows = [l for l in via_config.splitlines() if l.startswith("LSH-SS")]
        flag_rows = [l for l in via_flags.splitlines() if l.startswith("LSH-SS")]
        assert config_rows == flag_rows != []

    def test_invalid_config_file_is_cli_error(self, capsys, tmp_path):
        bad = tmp_path / "engine.json"
        bad.write_text("{not json")
        exit_code = main(["estimate", "--config", str(bad), "--threshold", "0.8"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not valid JSON" in captured.err

    @pytest.mark.parametrize("backend", ["static", "streaming", "sharded", "process"])
    def test_multi_table_config_is_cli_error(self, capsys, tmp_path, backend):
        """Every backend holds one LSH table: a config naming ℓ is refused."""
        config = self._config_file(tmp_path, {"backend": backend, "num_tables": 1})
        exit_code = main(["estimate", "--config", str(config), "--threshold", "0.8"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: unknown config field(s) ['num_tables']")

    @pytest.mark.parametrize("backend, options", [
        ("sharded", {"dampening": "bogus"}),
        ("static", {"estimator_kwargs": {"dampening": "bogus"}}),
        ("streaming", {"dampening": "bogus"}),
    ], ids=["sharded", "static-estimator_kwargs", "streaming"])
    def test_bad_estimator_option_is_cli_error(self, capsys, tmp_path, backend, options):
        config = self._config_file(tmp_path, {"backend": backend, "options": options})
        exit_code = main(
            ["estimate", "--config", str(config), "--threshold", "0.8",
             "--num-vectors", "100", "--no-exact"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.strip() == "error: dampening must be in (0, 1] or 'auto', got bogus"

    @pytest.mark.parametrize("backend, options, message", [
        ("sharded", {"num_shards": "2"}, "option 'num_shards' of backend 'sharded' must be"),
        ("streaming", {"reservoir_size": "2"}, "option 'reservoir_size' of backend"),
        ("static", {"estimator_kwargs": {"nope": 1}}, "estimator 'lsh-ss' refuses"),
        ("process", {"shards": "x"}, "option 'shards' of backend 'process' must be"),
    ], ids=["sharded-num_shards", "streaming-reservoir_size", "static-unknown-kwarg",
            "process-shards"])
    def test_bad_option_value_is_cli_error(self, capsys, tmp_path, backend, options, message):
        """A wrongly typed option value ends in an ``error:`` line, not a traceback."""
        config = self._config_file(tmp_path, {"backend": backend, "options": options})
        exit_code = main(
            ["estimate", "--config", str(config), "--threshold", "0.8",
             "--num-vectors", "100", "--no-exact"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: ") and message in captured.err

    def test_negative_seed_is_cli_error(self, capsys):
        exit_code = main(["estimate", "--seed", "-1", "--threshold", "0.8",
                          "--num-vectors", "200"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.strip() == "error: seed must be >= 0, got -1"

    def test_stream_rejects_static_config(self, capsys, tmp_path):
        log = self._write_log(tmp_path / "events.jsonl", num_vectors=10)
        config = self._config_file(tmp_path, {"backend": "static"})
        exit_code = main(["stream", "--events", str(log), "--config", str(config)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "immutable" in captured.err

    def test_stream_with_sharded_config(self, capsys, tmp_path):
        """The stream command serves any mutable backend the config names."""
        log = self._write_log(tmp_path / "events.jsonl", num_vectors=30)
        config = self._config_file(tmp_path, {
            "backend": "sharded", "num_hashes": 6, "options": {"num_shards": 2},
        })
        exit_code = main(
            ["stream", "--events", str(log), "--config", str(config),
             "--batch-size", "10", "--mode", "exact"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "backend=sharded" in captured.out

    def test_shard_rejects_non_sharded_config(self, capsys, tmp_path):
        log = self._write_log(tmp_path / "events.jsonl", num_vectors=10)
        config = self._config_file(tmp_path, {"backend": "streaming", "num_hashes": 6})
        exit_code = main(["shard", "--events", str(log), "--config", str(config)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "sharded" in captured.err

    def test_shard_config_snapshot_rebalance_round_trip(self, capsys, tmp_path):
        """config → shard → snapshot → rebalance: the full engine loop."""
        log = self._write_log(tmp_path / "events.jsonl", num_vectors=30)
        config = self._config_file(tmp_path, {
            "backend": "sharded", "num_hashes": 6, "seed": 3,
            "options": {"num_shards": 2},
        })
        snapshot = tmp_path / "engine.pkl"
        assert main(
            ["shard", "--events", str(log), "--config", str(config),
             "--batch-size", "10", "--snapshot", str(snapshot)]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["rebalance", "--snapshot", str(snapshot), "--shards", "3",
             "--threshold", "0.7", "--output", str(tmp_path / "out.pkl")]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "written to" in captured.out
        engine = JoinEstimationEngine.restore(tmp_path / "out.pkl")
        assert engine.config.num_hashes == 6  # config travelled with the snapshot
        assert engine.backend.index.num_shards == 3
        engine.close()
