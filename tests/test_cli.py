"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_exist(self):
        parser = build_parser()
        for command in ("generate", "cloud", "ap", "odr",
                        "experiments", "figures", "serve", "backends",
                        "loadgen"):
            args = parser.parse_args(
                [command] if command != "odr"
                else [command, "http://x/y"])
            assert args.command == command

    def test_serve_flags(self):
        # `repro serve` has no parser of its own: its flags are the
        # serve module's.
        from repro.serve.__main__ import build_parser as serve_parser
        parser = serve_parser()
        args = parser.parse_args(
            ["--engine", "async", "--workers", "4",
             "--max-inflight", "64", "--no-batch", "--port", "0"])
        assert args.engine == "async"
        assert args.workers == 4
        assert args.max_inflight == 64
        assert args.no_batch
        args = parser.parse_args([])
        assert args.engine == "async" and args.port == 8034
        with pytest.raises(SystemExit):
            parser.parse_args(["--engine", "gevent"])

    def test_loadgen_forwards_to_its_own_parser(self, capsys):
        # Forwarded verbatim: loadgen's parser rejects a run with no
        # targets, which proves the arguments reached it.
        with pytest.raises(SystemExit) as excinfo:
            main(["loadgen", "--rps", "5"])
        assert excinfo.value.code == 2
        assert "--target" in capsys.readouterr().err

    def test_runs_gc_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["runs", "gc", "--root", "r", "--keep-last", "5",
             "--stale-hours", "48", "--delete"])
        assert str(args.root) == "r"
        assert args.keep_last == 5
        assert args.stale_hours == 48.0
        assert args.delete
        # Dry run is the default.
        assert not parser.parse_args(["runs", "gc"]).delete
        with pytest.raises(SystemExit):
            parser.parse_args(["runs"])

    def test_metrics_flags_on_instrumented_subcommands(self):
        parser = build_parser()
        for argv in (["cloud"], ["ap"], ["odr", "http://x/y"]):
            args = parser.parse_args(
                argv + ["--metrics-out", "m.jsonl",
                        "--metrics-format", "prom"])
            assert str(args.metrics_out) == "m.jsonl"
            assert args.metrics_format == "prom"
            # Default: metrics disabled entirely.
            args = parser.parse_args(argv)
            assert args.metrics_out is None
            assert args.metrics_format is None
        # `repro experiments` parses with the runner's own parser.
        from repro.experiments.runner import build_parser as runner_parser
        args = runner_parser().parse_args(
            ["--metrics-out", "m.jsonl", "--metrics-format", "prom"])
        assert str(args.metrics_out) == "m.jsonl"
        assert args.metrics_format == "prom"
        # Default: no --metrics-out, so the run is not instrumented.
        assert runner_parser().parse_args([]).metrics_out is None

    def test_metrics_format_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cloud", "--metrics-format", "xml"])


class TestExperimentsCommand:
    """``repro experiments`` runs ``repro.experiments.runner``'s own
    parser, so both entry points resolve the same effective settings."""

    @staticmethod
    def captured_settings(monkeypatch, tmp_path, entry, argv):
        import repro.experiments.runner as runner
        import repro.experiments.scorecard as scorecard
        import repro.obs as obs
        from repro.experiments.context import ExperimentContext
        seen = {}

        def fake_context(scale, seed):
            seen["scale"], seen["seed"] = scale, seed
            return ExperimentContext(scale=scale, seed=seed)

        def fake_export(registry, fmt, path):
            seen["metrics_format"] = fmt
            return ""

        monkeypatch.setattr(runner, "default_context", fake_context)
        monkeypatch.setattr(runner, "run_all", lambda context: [])
        monkeypatch.setattr(scorecard, "evaluate_claims",
                            lambda context: [])
        monkeypatch.setattr(scorecard.Scorecard, "render",
                            lambda self: "")
        monkeypatch.setattr(obs, "export", fake_export)
        argv = ["--output", str(tmp_path / "EXP.md"),
                "--metrics-out", str(tmp_path / "metrics"), *argv]
        assert entry(argv) == 0
        return seen

    @pytest.mark.parametrize("argv, expected", [
        ([], {"scale": 0.02, "seed": 20150222, "metrics_format": "jsonl"}),
        (["--scale", "0.003", "--seed", "7", "--metrics-format", "prom"],
         {"scale": 0.003, "seed": 7, "metrics_format": "prom"}),
    ], ids=["defaults", "explicit"])
    def test_repro_and_runner_resolve_the_same_settings(
            self, monkeypatch, tmp_path, capsys, argv, expected):
        from repro.experiments.runner import main as runner_main
        via_repro = self.captured_settings(
            monkeypatch, tmp_path, lambda rest: main(["experiments",
                                                      *rest]), argv)
        via_runner = self.captured_settings(
            monkeypatch, tmp_path, runner_main, argv)
        assert via_repro == via_runner == expected

    def test_recovery_knobs_without_a_run_dir_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "--shard-timeout", "5"])
        assert excinfo.value.code == 2
        assert "need --run-dir or --resume" in capsys.readouterr().err


class TestForwardedCommands:
    """``repro experiments|serve|backends|figures|loadgen`` hand their
    arguments verbatim to the ``main`` of their own module."""

    @pytest.mark.parametrize("command, prog", [
        ("experiments", "python -m repro.experiments.runner"),
        ("serve", "python -m repro.serve"),
        ("backends", "python -m repro.backends"),
        ("figures", "python -m repro.experiments.figures"),
        ("loadgen", "python -m repro.loadgen"),
    ], ids=["experiments", "serve", "backends", "figures", "loadgen"])
    def test_unknown_flag_is_refused_by_the_modules_parser(
            self, command, prog, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--no-such-flag"])
        assert excinfo.value.code == 2
        assert f"{prog}: error: unrecognized arguments: --no-such-flag" \
            in capsys.readouterr().err

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("experiments", "figures", "serve", "backends",
                        "loadgen"):
            assert command in out

    def test_serve_thread_engine_is_refused(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--engine", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_figures_seed_fails_closed(self, capsys):
        # Regression: the twin parser accepted --seed and then dropped
        # it, rendering default-seed figures without a word.
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "--seed", "3"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 3" \
            in capsys.readouterr().err

    def test_backends_digest_matches_the_module(self, capsys):
        from repro.backends.__main__ import main as backends_main
        argv = ["--quiet", "--limit", "50", "--scale", "0.002"]
        assert main(["backends", *argv]) == 0
        via_repro = capsys.readouterr().out
        assert backends_main(argv) == 0
        assert capsys.readouterr().out == via_repro
        assert len(via_repro.strip()) == 64


class TestOdrCommand:
    def test_hot_p2p_file_with_bad_storage_goes_direct(self, capsys):
        assert main(["odr", "bittorrent://origin/abc",
                     "--popularity", "200", "--bandwidth", "20",
                     "--ap", "newifi", "--device", "usb-flash",
                     "--filesystem", "ntfs"]) == 0
        out = capsys.readouterr().out
        assert "user_device" in out and "Bottleneck 4" in out

    def test_slow_line_cached_file_is_staged(self, capsys):
        assert main(["odr", "http://host/f", "--popularity", "3",
                     "--cached", "--bandwidth", "0.5",
                     "--ap", "hiwifi"]) == 0
        out = capsys.readouterr().out
        assert "cloud+ap" in out

    def test_uncached_cold_file_waits_for_the_cloud(self, capsys):
        assert main(["odr", "ed2k://origin/f", "--popularity", "2",
                     "--bandwidth", "8"]) == 0
        assert "cloud" in capsys.readouterr().out

    def test_unknown_scheme_fails_loudly(self):
        with pytest.raises(ValueError):
            main(["odr", "gopher://host/f"])


class TestPipelineCommands:
    def test_generate_then_cloud_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["generate", "--scale", "0.0008", "--seed", "5",
                     "--out", str(trace)]) == 0
        assert (trace / "requests.jsonl").exists()
        capsys.readouterr()
        assert main(["cloud", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cache hit ratio" in out
        assert "impeded fetches" in out

    def test_cloud_metrics_table_to_stdout(self, capsys):
        assert main(["cloud", "--scale", "0.0008",
                     "--metrics-format", "table"]) == 0
        out = capsys.readouterr().out
        assert "repro_cloud_cache_hits_total" in out
        assert "repro_sim_events_fired_total" in out

    def test_ap_command(self, tmp_path, capsys):
        assert main(["ap", "--scale", "0.0015", "--sample", "30"]) == 0
        out = capsys.readouterr().out
        assert "failure ratio" in out
        assert "failure causes" in out

    def test_figures_command(self, tmp_path, capsys):
        assert main(["figures", "--scale", "0.0015",
                     "--outdir", str(tmp_path / "figs")]) == 0
        assert (tmp_path / "figs" / "fig11.svg").exists()

    def test_experiments_command_writes_document(self, tmp_path,
                                                 capsys):
        output = tmp_path / "EXP.md"
        assert main(["experiments", "--scale", "0.0015",
                     "--output", str(output)]) == 0
        document = output.read_text()
        assert "paper vs measured" in document
        assert "fig17" in document


class TestShardedCommands:
    def test_generate_jobs_writes_gzipped_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["generate", "--scale", "0.0008", "--jobs", "1",
                     "--shards", "4", "--gzip",
                     "--out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "sharded generate" in out
        assert (trace / "requests.jsonl.gz").exists()
        from repro.workload import load_workload
        workload = load_workload(trace)
        assert workload.requests

    def test_cloud_jobs_runs_the_sharded_replay(self, capsys):
        assert main(["cloud", "--scale", "0.0008", "--jobs", "1",
                     "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "sharded replay" in out
        assert "cache hit ratio" in out

    def test_cloud_jobs_refuses_ablations(self, capsys):
        assert main(["cloud", "--scale", "0.0008", "--jobs", "1",
                     "--no-cache"]) == 2
        assert "event-driven engine" in capsys.readouterr().err

    def test_cloud_jobs_refuses_trace_replay(self, tmp_path, capsys):
        assert main(["cloud", "--jobs", "1",
                     "--trace", str(tmp_path)]) == 2
        assert "drop --trace" in capsys.readouterr().err

    def test_ap_jobs_replay(self, capsys):
        assert main(["ap", "--scale", "0.0015", "--sample", "30",
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "parallel replay" in out
        assert "failure ratio" in out

    def test_experiments_jobs_writes_document(self, tmp_path, capsys):
        output = tmp_path / "EXP.md"
        assert main(["experiments", "--scale", "0.0008", "--jobs", "1",
                     "--output", str(output)]) == 0
        document = output.read_text()
        assert "paper vs measured" in document
        assert "Reproduction scorecard" in document


class TestDurableCommands:
    def test_cloud_run_dir_then_resume_reuses_all_shards(
            self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        base = ["cloud", "--scale", "0.0008", "--shards", "2"]
        assert main(base + ["--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert "reused shards:    0/2" in first
        assert "merged digest:" in first

        assert main(base + ["--resume", str(run_dir)]) == 0
        second = capsys.readouterr().out
        assert "reused shards:    2/2" in second

        digest = [line for line in first.splitlines()
                  if "merged digest" in line]
        assert digest == [line for line in second.splitlines()
                          if "merged digest" in line]

    def test_generate_run_dir_prints_workload_digest(
            self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["generate", "--scale", "0.0008", "--shards", "2",
                     "--out", str(trace),
                     "--run-dir", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "merged digest:" in out
        assert (trace / "requests.jsonl").exists()

    def test_recovery_knobs_require_a_run_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cloud", "--scale", "0.0008",
                  "--shard-timeout", "5"])
        assert excinfo.value.code == 2
        assert "--run-dir or --resume" in capsys.readouterr().err

    def test_resume_of_missing_run_dir_exits_2(self, tmp_path, capsys):
        assert main(["cloud", "--scale", "0.0008",
                     "--resume", str(tmp_path / "nope")]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_reused_run_dir_without_resume_exits_2(
            self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        base = ["cloud", "--scale", "0.0008", "--shards", "2"]
        assert main(base + ["--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(base + ["--run-dir", str(run_dir)]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_ap_run_dir_then_resume(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        base = ["ap", "--scale", "0.0015", "--sample", "30"]
        assert main(base + ["--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert "reused AP shards:  0/" in first
        assert main(base + ["--resume", str(run_dir)]) == 0
        second = capsys.readouterr().out
        assert "reused AP shards:" in second
        assert "0/" not in second.split("reused AP shards:")[1] \
            .splitlines()[0]
