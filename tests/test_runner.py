"""Tests for the orchestration subsystem: job specs, cache, runner."""

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exp.experiments import run_experiment, run_experiment_via
from repro.exp import fig3, validation
from repro.exp.server import RunConfig, run_at_rate
from repro.exp.sweeps import rate_sweep
from repro.runner import (
    JobSpec,
    ResultCache,
    Runner,
    RunnerError,
    code_salt,
    use_runner,
)
from repro.runner import executor

FAST = RunConfig(duration_s=0.02)
RATES = [5.0, 20.0]


def sweep_specs(config=FAST, kind="host", function="rem", rates=RATES):
    return [JobSpec.at_rate(kind, function, r, config) for r in rates]


class TestJobSpec:
    def test_hash_is_deterministic(self):
        a = JobSpec.at_rate("snic", "nat", 10.0, FAST)
        b = JobSpec.at_rate("snic", "nat", 10.0, FAST)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_hash_covers_everything(self):
        base = JobSpec.at_rate("snic", "nat", 10.0, FAST)
        variants = [
            JobSpec.at_rate("host", "nat", 10.0, FAST),
            JobSpec.at_rate("snic", "rem", 10.0, FAST),
            JobSpec.at_rate("snic", "nat", 20.0, FAST),
            JobSpec.at_rate("snic", "nat", 10.0, RunConfig(duration_s=0.02, seed=7)),
            JobSpec.at_rate("snic", "nat", 10.0, FAST, slb_cores=4),
            JobSpec.for_trace("snic", "nat", "web", FAST),
            JobSpec.experiment("fig4", FAST),
        ]
        hashes = {v.content_hash() for v in variants}
        assert base.content_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_params_sorted_for_determinism(self):
        a = JobSpec.at_rate("slb", "nat", 10.0, FAST, slb_cores=4, fwd_threshold_gbps=20.0)
        b = JobSpec.at_rate("slb", "nat", 10.0, FAST, fwd_threshold_gbps=20.0, slb_cores=4)
        assert a.content_hash() == b.content_hash()

    def test_canonical_is_json_safe(self):
        spec = JobSpec.for_trace("hal", "count", "web", FAST)
        assert json.loads(json.dumps(spec.canonical())) == spec.canonical()

    def test_unhashable_param_rejected(self):
        with pytest.raises(TypeError):
            JobSpec.at_rate("snic", "nat", 10.0, FAST, bad=[1, 2])

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(op="teleport", config=FAST)


class TestParallelMatchesSequential:
    def test_fig4_style_sweep_byte_identical(self):
        with use_runner(Runner(jobs=1)):
            seq = rate_sweep("host", "rem", RATES, FAST)
        with use_runner(Runner(jobs=2)):
            par = rate_sweep("host", "rem", RATES, FAST)
        for a, b in zip(seq, par):
            assert json.dumps(a.metrics.to_dict(), sort_keys=True) == json.dumps(
                b.metrics.to_dict(), sort_keys=True
            )

    def test_pool_preserves_input_order(self):
        specs = sweep_specs(rates=[20.0, 5.0, 10.0])
        metrics = Runner(jobs=2).map_metrics(specs)
        assert [m.offered_gbps for m in metrics] == [20.0, 5.0, 10.0]


class TestFreshInterpreter:
    """The runner imports on its own: a spawn-started worker (the default
    start method on macOS and Windows) begins from a bare interpreter and
    unpickles ``execute_job`` before anything else is loaded."""

    @pytest.mark.parametrize(
        "module",
        [
            "repro.runner",
            "repro.runner.spec",
            "repro.runner.cache",
            "repro.runner.executor",
            "repro.runner.runner",
            "repro.runner.context",
            "repro.runner.sharded",
        ],
    )
    def test_module_imports_first(self, module):
        repo_src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 0, done.stderr

    def test_spawn_worker_runs_an_at_rate_job(self):
        spec = JobSpec.at_rate("host", "nat", 5.0, RunConfig(duration_s=0.005))
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            payload = pool.submit(executor.execute_job, spec).result(timeout=300)
        assert payload == executor.execute_job(spec)


class TestCache:
    def test_hit_skips_execution(self, tmp_path):
        runner = Runner(jobs=1, cache=ResultCache(str(tmp_path)))
        first = runner.map_metrics(sweep_specs())
        executed = executor.EXECUTION_COUNT
        again = runner.map_metrics(sweep_specs())
        assert executor.EXECUTION_COUNT == executed  # all served from cache
        for a, b in zip(first, again):
            assert a.to_dict() == b.to_dict()

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        runner = Runner(jobs=1, cache=cache)
        spec = sweep_specs()[0]
        runner.map_metrics([spec])
        with open(cache.path_for(spec), "w") as fh:
            fh.write("{ not json !")
        executed = executor.EXECUTION_COUNT
        (m,) = runner.map_metrics([spec])
        assert executor.EXECUTION_COUNT == executed + 1  # recomputed
        assert m.delivered_packets > 0
        # and the entry was rewritten, so the next read hits again
        assert cache.get(spec) is not None

    def test_stale_spec_echo_treated_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = sweep_specs()[0]
        Runner(jobs=1, cache=cache).map_metrics([spec])
        path = cache.path_for(spec)
        with open(path) as fh:
            entry = json.load(fh)
        entry["spec"]["rate_gbps"] = 999.0  # hand-edited / colliding entry
        with open(path, "w") as fh:
            json.dump(entry, fh)
        assert cache.get(spec) is None

    def test_salt_partitions_by_code_version(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = sweep_specs()[0]
        assert code_salt() in cache.path_for(spec)


class TestFailureHandling:
    def test_failed_job_recorded_not_fatal(self):
        specs = [
            sweep_specs()[0],
            JobSpec.at_rate("tpu", "nat", 10.0, FAST),  # unknown system kind
            sweep_specs()[1],
        ]
        report = Runner(jobs=1, retries=0).run(specs, strict=False)
        assert len(report.failures) == 1
        assert "tpu" in report.failures[0].error
        results = report.results()
        assert results[0] is not None and results[2] is not None
        assert results[1] is None

    def test_strict_batch_raises_after_siblings_finish(self):
        specs = [sweep_specs()[0], JobSpec.at_rate("tpu", "nat", 10.0, FAST)]
        runner = Runner(jobs=1, retries=0)
        with pytest.raises(RunnerError) as err:
            runner.run(specs, strict=True)
        assert len(err.value.failures) == 1

    def test_run_one_passes_the_cells_own_error(self):
        # a single cell has no siblings to protect: no retry, no wrapper
        executed = executor.EXECUTION_COUNT
        spec = JobSpec.at_rate("tpu", "nat", 10.0, FAST)
        with pytest.raises(ValueError, match="unknown system kind 'tpu'"):
            Runner(jobs=1, retries=2).run_one(spec)
        assert executor.EXECUTION_COUNT == executed + 1

    def test_failed_job_retried(self):
        spec = JobSpec.at_rate("tpu", "nat", 10.0, FAST)
        report = Runner(jobs=1, retries=2).run([spec], strict=False)
        assert report.outcomes[0].attempts == 3

    def test_parallel_failure_does_not_kill_siblings(self):
        specs = [
            sweep_specs()[0],
            JobSpec.at_rate("tpu", "nat", 10.0, FAST),
            sweep_specs()[1],
        ]
        report = Runner(jobs=2, retries=0).run(specs, strict=False)
        assert len(report.failures) == 1
        assert report.executed_count == 2


class TestExperimentJobs:
    def test_run_experiment_via_caches_whole_experiment(self, tmp_path):
        runner = Runner(jobs=1, cache=ResultCache(str(tmp_path)))
        cold = run_experiment_via(runner, "costs", FAST)
        executed = executor.EXECUTION_COUNT
        warm = run_experiment_via(runner, "costs", FAST)
        assert executor.EXECUTION_COUNT == executed
        assert warm.to_text() == cold.to_text()

    def test_run_experiment_via_matches_direct(self):
        direct = run_experiment("costs", FAST)
        via = run_experiment_via(Runner(jobs=1), "costs", FAST)
        assert via.to_text() == direct.to_text()

    def test_unknown_experiment_raises_keyerror(self):
        with pytest.raises(KeyError):
            run_experiment_via(Runner(jobs=1), "fig99", FAST)


class TestArtifactIntegration:
    def test_artifact_resumes_from_cache(self, tmp_path):
        from repro.exp.artifact import run_all

        cache = ResultCache(str(tmp_path / "cache"))
        run_all(
            "cold", results_dir=str(tmp_path), experiments=("costs", "table1"),
            config=FAST, runner=Runner(jobs=1, cache=cache),
        )
        executed = executor.EXECUTION_COUNT
        warm = run_all(
            "warm", results_dir=str(tmp_path), experiments=("costs", "table1"),
            config=FAST, runner=Runner(jobs=1, cache=cache),
        )
        assert executor.EXECUTION_COUNT == executed
        assert warm.cached == {"costs": True, "table1": True}
        cold_text = open(os.path.join(tmp_path, "cold", "costs.txt")).read()
        warm_text = open(os.path.join(tmp_path, "warm", "costs.txt")).read()
        assert warm_text == cold_text

    def test_artifact_failure_in_manifest(self, tmp_path, monkeypatch):
        import repro.exp.artifact as artifact_mod
        import repro.exp.experiments as experiments_mod

        def boom(_config):
            raise RuntimeError("synthetic experiment failure")

        monkeypatch.setitem(experiments_mod.EXPERIMENTS, "costs", boom)
        run = artifact_mod.run_all(
            "f", results_dir=str(tmp_path), experiments=("costs", "table1"),
            config=FAST, runner=Runner(jobs=1, retries=0),
        )
        assert "costs" in run.failures
        assert "table1" in run.results  # sibling survived
        manifest = open(os.path.join(run.run_dir, "MANIFEST.txt")).read()
        assert "FAILED" in manifest and "synthetic experiment failure" in manifest


class TestPoolSizing:
    """The pool must never spawn more workers than there are pending
    jobs, and a batch with at most one pending job must not pay for a
    pool at all."""

    def test_pool_capped_by_pending_count(self, monkeypatch):
        from repro.runner import runner as runner_mod

        captured = {}
        real = runner_mod.ProcessPoolExecutor

        class SpyPool(real):
            def __init__(self, max_workers=None, **kwargs):
                captured["max_workers"] = max_workers
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", SpyPool)
        report = Runner(jobs=8).run(sweep_specs())  # 2 pending jobs
        assert captured["max_workers"] == 2
        assert not report.failures

    def test_single_pending_job_skips_pool(self, monkeypatch):
        from repro.runner import runner as runner_mod

        def no_pool(*args, **kwargs):
            raise AssertionError("a single-job batch must run in-process")

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", no_pool)
        report = Runner(jobs=8).run(sweep_specs()[:1])
        assert not report.failures

    def test_all_cached_batch_skips_pool(self, monkeypatch, tmp_path):
        from repro.runner import runner as runner_mod

        specs = sweep_specs()
        cache = ResultCache(str(tmp_path))
        Runner(jobs=1, cache=cache).run(specs)  # warm the cache

        def no_pool(*args, **kwargs):
            raise AssertionError("a fully cached batch must not fork")

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", no_pool)
        report = Runner(jobs=8, cache=cache).run(specs)
        assert all(outcome.cached for outcome in report.outcomes)


class TestCacheMaintenance:
    def test_stats_counts_entries_and_last_batch(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["last_batch"] is None
        Runner(jobs=1, cache=cache).run(sweep_specs())
        stats = cache.stats()
        assert stats["entries"] == len(RATES)
        assert stats["bytes"] > 0
        assert stats["last_batch"]["executed"] == len(RATES)
        assert stats["last_batch"]["hit_rate"] == 0.0
        Runner(jobs=1, cache=cache).run(sweep_specs())
        assert cache.stats()["last_batch"]["hit_rate"] == 1.0

    def test_last_run_counts_every_job_of_the_runner(self, tmp_path):
        # a batch, a cached single cell and an executed one: the record
        # is the runner's whole run, not its final one-job batch
        cache = ResultCache(str(tmp_path))
        runner = Runner(jobs=1, cache=cache)
        runner.map_metrics(sweep_specs())
        with use_runner(runner):
            run_at_rate("host", "rem", RATES[0], FAST)
            run_at_rate("host", "rem", 10.0, FAST)
        last = cache.stats()["last_batch"]
        assert (last["jobs"], last["cached"], last["executed"]) == (
            len(RATES) + 2, 1, len(RATES) + 1
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_last_run_counts_the_cells_inside_experiment_jobs(self, tmp_path, jobs):
        # an artifact batch runs experiment jobs whose cells go through
        # nested runners; the record counts those cells too, so it
        # agrees with the entries the run left behind
        from repro.exp.artifact import run_all

        cache = ResultCache(str(tmp_path / "cache"))
        run_all(
            "counts",
            results_dir=str(tmp_path / "results"),
            experiments=["fig3", "validation"],
            config=RunConfig(duration_s=0.005),
            runner=Runner(jobs=jobs, cache=cache),
        )
        stats = cache.stats()
        last = stats["last_batch"]
        assert stats["entries"] > 2
        assert (last["jobs"], last["cached"], last["executed"]) == (
            stats["entries"], 0, stats["entries"]
        )
        run_all(
            "counts",
            results_dir=str(tmp_path / "results"),
            experiments=["fig3", "validation"],
            config=RunConfig(duration_s=0.005),
            runner=Runner(jobs=jobs, cache=cache),
        )
        last = cache.stats()["last_batch"]
        assert (last["jobs"], last["cached"], last["executed"]) == (2, 2, 0)

    def test_gc_by_age(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        Runner(jobs=1, cache=cache).run(sweep_specs())
        untouched = cache.gc(max_age_s=3600)
        assert untouched["removed"] == 0
        swept = cache.gc(max_age_s=0.0, now=os.path.getmtime(str(tmp_path)) + 10)
        assert swept["removed"] == len(RATES)
        assert cache.stats()["entries"] == 0

    def test_gc_by_bytes_keeps_newest(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        specs = sweep_specs()
        Runner(jobs=1, cache=cache).run(specs[:1])
        os.utime(cache.path_for(specs[0]), (1, 1))  # make it the oldest
        Runner(jobs=1, cache=cache).run(specs[1:])
        one_entry = os.path.getsize(cache.path_for(specs[1]))
        report = cache.gc(max_bytes=one_entry)
        assert report["removed"] == 1
        assert not os.path.exists(cache.path_for(specs[0]))  # the oldest went
        assert os.path.exists(cache.path_for(specs[1]))

    def test_gc_always_removes_stale_salt(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        Runner(jobs=1, cache=cache).run(sweep_specs())
        stale_dir = tmp_path / "0123456789abcdef" / "aa"
        stale_dir.mkdir(parents=True)
        (stale_dir / "deadbeef.json").write_text("{}")
        assert cache.stats()["stale_entries"] == 1
        report = cache.gc()
        assert report["removed"] == 1
        assert cache.stats()["stale_entries"] == 0
        assert not (tmp_path / "0123456789abcdef").exists()  # dir pruned
        assert cache.stats()["entries"] == len(RATES)  # live tier kept


class TestEveryCellGoesThroughTheRunner:
    def test_warm_cache_rerun_builds_no_system(self, tmp_path, monkeypatch):
        # every cell of these experiments is a runner job, so a warm cache
        # answers all of them and a rerun never builds a server
        config = RunConfig(duration_s=0.005)

        def payloads():
            runner = Runner(jobs=1, cache=ResultCache(str(tmp_path)))
            with use_runner(runner):
                results = [
                    fig3.run(config, functions=("nat", "kvs")),
                    validation.run(config),
                ]
            return json.dumps([r.to_dict() for r in results], sort_keys=True)

        first = payloads()

        def no_build(*args, **kwargs):
            raise AssertionError("a cell was simulated beside the runner")

        monkeypatch.setattr("repro.exp.server.build_system", no_build)
        assert payloads() == first
