"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig8"])
        assert args.experiment == "fig8"
        assert args.duration == 0.25
        assert args.seed == 2024
        assert args.out is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["table5", "--duration", "0.5", "--seed", "7", "--batch", "8",
             "--functional-rate", "0.01", "--out", "x.txt"]
        )
        assert args.duration == 0.5
        assert args.seed == 7
        assert args.batch == 8
        assert args.functional_rate == 0.01
        assert args.out == "x.txt"


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table5" in out and "validation" in out

    def test_run_costs(self, capsys):
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "13861" in out or "13,861" in out

    def test_run_table1_with_out_file(self, tmp_path, capsys):
        target = tmp_path / "t1.txt"
        assert main(["table1", "--out", str(target)]) == 0
        assert "Deflate" in target.read_text()

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["fig99"])

    def test_fig8_quick(self, capsys):
        assert main(["fig8", "--duration", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "hadoop" in out


class TestArtifactMode:
    def test_artifact_writes_results(self, tmp_path, capsys, monkeypatch):
        import repro.exp.artifact as artifact_mod

        monkeypatch.setattr(
            artifact_mod, "DEFAULT_EXPERIMENTS", ("table1", "costs")
        )
        assert main(
            ["artifact", "--results-dir", str(tmp_path), "--run-name", "t",
             "--duration", "0.02"]
        ) == 0
        out = capsys.readouterr().out
        assert "MANIFEST" in out
        assert (tmp_path / "t" / "table1.txt").exists()
        assert (tmp_path / "t" / "costs.txt").exists()


class TestRunnerFlags:
    def test_defaults_sequential_uncached(self):
        from repro.cli import make_runner

        args = build_parser().parse_args(["fig8"])
        assert args.jobs == 1
        assert args.cache is None
        runner = make_runner(args)
        assert runner.jobs == 1
        assert runner.cache is None

    def test_artifact_caches_by_default(self):
        from repro.cli import make_runner

        args = build_parser().parse_args(["artifact"])
        runner = make_runner(args)
        assert runner.cache is not None

    def test_no_cache_overrides_artifact_default(self):
        from repro.cli import make_runner

        args = build_parser().parse_args(["artifact", "--no-cache"])
        assert make_runner(args).cache is None

    def test_cache_dir_and_jobs(self, tmp_path):
        from repro.cli import make_runner

        args = build_parser().parse_args(
            ["fig4", "--jobs", "3", "--cache", "--cache-dir", str(tmp_path)]
        )
        runner = make_runner(args)
        assert runner.jobs == 3
        assert runner.cache.root == str(tmp_path)

    def test_jobs_zero_means_all_cores(self):
        import os

        from repro.cli import make_runner

        args = build_parser().parse_args(["fig4", "--jobs", "0"])
        assert make_runner(args).jobs == (os.cpu_count() or 1)

    def test_cached_rerun_prints_identical_table(self, tmp_path, capsys):
        flags = ["costs", "--cache", "--cache-dir", str(tmp_path / "c")]
        assert main(flags) == 0
        first = capsys.readouterr().out
        assert main(flags) == 0
        second = capsys.readouterr().out

        def table(text):  # strip the wall-clock line, which always differs
            return [l for l in text.splitlines() if "s wall" not in l]

        assert table(first) == table(second)


class TestTraceMode:
    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace", "fig9"])
        assert args.experiment == "trace"
        assert args.target == "fig9"
        assert args.trace_out == "trace.json"
        assert args.probes is None
        assert args.capture == 0

    def test_trace_requires_target(self, capsys):
        assert main(["trace"]) == 2
        assert "trace mode needs a target" in capsys.readouterr().err

    def test_trace_rejects_unknown_target(self, capsys):
        assert main(["trace", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trace_writes_valid_trace_and_result(self, tmp_path, capsys):
        import json

        from repro.obs.export import trace_tracks, validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        probes_path = tmp_path / "probes.csv"
        assert (
            main(
                ["trace", "fig5", "--duration", "0.02",
                 "--trace-out", str(trace_path), "--probes", str(probes_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fig5" in out  # the result table still prints
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        assert len(trace_tracks(trace)) >= 4
        assert trace["otherData"]["flight"]["runs"]
        assert probes_path.read_text().startswith("series,time_s,value")

    def test_probes_flag_on_normal_experiment(self, tmp_path, capsys):
        import json

        probes_path = tmp_path / "probes.json"
        assert (
            main(["costs", "--probes", str(probes_path), "-q"]) == 0
        )
        # costs runs no simulations, so the registry is empty but valid
        snapshot = json.loads(probes_path.read_text())
        assert set(snapshot) == {"counters", "gauges", "series"}

    def test_capture_flag_records_invariants(self, capsys):
        from repro import cli as cli_mod
        from repro.obs import log as obs_log

        captured = {}
        original = cli_mod._export_session

        def spy(session, args):
            captured["session"] = session
            return original(session, args)

        cli_mod._export_session, cleanup = spy, original
        try:
            assert main(["fig5", "--duration", "0.02", "--capture", "16", "-q"]) == 0
        finally:
            cli_mod._export_session = cleanup
            obs_log.set_level("info")
        session = captured["session"]
        assert session.capture_packets == 16
        runs = session.flight.runs
        assert runs and all("captures" in r for r in runs)


class TestVerbosityFlags:
    def test_verbose_and_quiet_set_levels(self):
        from repro.obs import log as obs_log

        old = obs_log.get_level()
        try:
            main(["list", "-v"])
            assert obs_log.get_level() == obs_log.DEBUG
            main(["list", "-q"])
            assert obs_log.get_level() == obs_log.WARNING
        finally:
            obs_log.set_level(old)

    def test_runner_progress_is_structured(self, capsys):
        import io

        from repro.obs import log as obs_log
        from repro.runner import JobSpec, Runner
        from repro.exp.server import RunConfig

        stream = io.StringIO()
        obs_log.set_stream(stream)
        try:
            runner = Runner(jobs=1, progress=True)
            spec = JobSpec.at_rate("snic", "nat", 5.0, RunConfig(duration_s=0.01))
            runner.run([spec])
        finally:
            import sys

            obs_log.set_stream(sys.stderr)
        line = stream.getvalue().strip()
        assert line.startswith("runner job ")
        assert "status=ok" in line and "n=1 total=1" in line


class TestClusterFlags:
    def test_parser_accepts_rack_flags(self):
        args = build_parser().parse_args(
            ["cluster", "--servers", "8", "--policy", "p2c", "--trace", "cache"]
        )
        assert args.servers == 8
        assert args.policy == "p2c"
        assert args.trace == "cache"

    def test_rack_flags_default_to_none(self):
        args = build_parser().parse_args(["cluster"])
        assert args.servers is None and args.policy is None and args.trace is None

    def test_focused_cluster_run(self, capsys, tmp_path):
        out_file = tmp_path / "rack.txt"
        rc = main(
            ["cluster", "--servers", "2", "--policy", "roundrobin",
             "--trace", "web", "--duration", "0.02", "--out", str(out_file), "-q"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for kind in ("hal", "host", "slb"):
            assert kind in out
        assert "roundrobin" in out
        assert out_file.read_text().strip()

    def test_flow_mode_cluster_run(self, capsys):
        rc = main(
            ["cluster", "--servers", "2", "--policy", "packing",
             "--trace", "web", "--duration", "0.05", "--sim-mode", "flow"]
        )
        assert rc == 0
        rows = [
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.split()[:3] == ["2", "packing", "web"]
        ]
        assert [row[3] for row in rows] == ["hal", "host", "slb"]


class TestFabricCheckpointFlags:
    ARGS = ["fabric", "--racks", "2", "--servers", "2", "--duration", "0.1"]

    def test_pause_then_resume_identical_output(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ck.json")
        baseline = tmp_path / "base.txt"
        assert main(self.ARGS + ["--out", str(baseline)]) == 0
        capsys.readouterr()

        rc = main(self.ARGS + ["--checkpoint", ckpt, "--pause-at-epoch", "2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "resumable" in err and ckpt in err

        resumed = tmp_path / "resumed.txt"
        rc = main(["fabric", "--resume", ckpt, "--shard-jobs", "2",
                   "--out", str(resumed)])
        assert rc == 0
        assert resumed.read_text() == baseline.read_text()

    def test_journal_continues_across_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        ckpt = str(tmp_path / "ck.json")
        baseline = tmp_path / "base.txt"
        assert main(self.ARGS + ["--out", str(baseline)]) == 0
        rc = main(self.ARGS + ["--journal", journal, "--checkpoint", ckpt,
                               "--pause-at-epoch", "2"])
        assert rc == 3
        resumed = tmp_path / "resumed.txt"
        rc = main(["fabric", "--resume", ckpt, "--journal", journal,
                   "--out", str(resumed)])
        assert rc == 0
        capsys.readouterr()

        with open(journal) as fh:
            records = [json.loads(line) for line in fh]
        kinds = [r["kind"] for r in records]
        cut = kinds.index("interrupt") + 1
        paused, appended = records[:cut], records[cut:]
        # the paused run's meta, its epochs and its interrupt record ...
        assert kinds[:cut] == ["meta", "epoch", "epoch", "interrupt"]
        assert paused[-1]["resumable"] is True
        # ... then the resumed run appends its own meta, the later
        # epochs and a finish, with no second interrupt
        label = paused[0]["label"]
        assert "interrupt" not in kinds[cut:]
        finish = kinds.index("finish", cut) - cut
        assert appended[0]["label"] == appended[finish]["label"] == label
        later = kinds[cut + 1:cut + finish]
        assert kinds[cut:cut + finish + 1] == ["meta"] + later + ["finish"]
        assert set(later) == {"epoch"}
        # the resumed epochs continue the paused ones: no gap, no repeat
        epochs = [
            r["epoch"] for r in paused + appended[:finish]
            if r["kind"] == "epoch"
        ]
        assert epochs == list(range(paused[0]["epochs"]))
        assert resumed.read_text() == baseline.read_text()

    def test_pause_without_checkpoint_is_usage_error(self, capsys):
        assert main(self.ARGS + ["--pause-at-epoch", "2"]) == 2

    def test_scaling_conflicts_with_checkpoint(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ck.json")
        assert main(self.ARGS + ["--scaling", "--checkpoint", ckpt]) == 2

    def test_resume_from_garbage_checkpoint(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fabric", "--resume", str(bad)]) == 2
        assert "checkpoint" in capsys.readouterr().err.lower()


class TestCacheMode:
    def test_stats_on_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "0 entries" in out and "none recorded" in out

    def test_stats_after_a_run(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        assert main(["fig5", "--cache", "--cache-dir", cache_dir,
                     "--duration", "0.02"]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out and "0 entries" not in out

    def test_gc_evicts_everything_with_zero_budget(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        assert main(["fig5", "--cache", "--cache-dir", cache_dir,
                     "--duration", "0.02"]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache_dir, "--gc",
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_gc_knobs_require_gc_flag(self, tmp_path, capsys):
        assert main(["cache", "--cache-dir", str(tmp_path / "c"),
                     "--max-age", "7"]) == 2
