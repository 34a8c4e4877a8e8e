"""Command-line entry point.

Usage::

    python -m repro list
    python -m repro fig9 [--duration 0.5] [--seed 7] [--out results.txt]
    python -m repro fig5 --jobs 4            # fan runs out over 4 processes
    python -m repro all --cache              # content-addressed result cache
    python -m repro artifact --jobs 0        # batch mode, one worker per core
    python -m repro trace fig9 --trace-out trace.json   # Perfetto trace
    python -m repro fig5 --probes probes.csv --capture 256
    python -m repro fabric --racks 8 --shard-jobs 4 --journal fleet.jsonl \\
        --slo "power_w<=900" --slo-strict --live --fleet-trace fleet.json
    python -m repro journal fleet.jsonl                 # summarize a journal
    python -m repro fabric --racks 8 --checkpoint run.ckpt   # interruptible
    python -m repro fabric --resume run.ckpt            # continue, any -K
    python -m repro serve --state-dir .repro-serve      # local job daemon
    python -m repro cache --gc --max-age 7              # cache stats / GC

Each experiment prints the reproduced table/figure series; ``--out``
additionally writes it to a file (like the artifact's per-figure .txt
outputs).  ``--jobs N`` runs the experiment's independent simulations
through a process pool (``0`` = one worker per CPU core; the default
``1`` keeps the historical sequential, in-process execution).
``--cache``/``--no-cache`` control the on-disk result cache under
``--cache-dir`` (default ``.repro-cache``); artifact mode caches by
default so interrupted batches resume and re-runs are near-free.

``trace <exp>`` re-runs an experiment under the :mod:`repro.obs`
telemetry session and writes a Chrome/Perfetto trace (``--trace-out``),
optionally a probes CSV (``--probes``) and packet-capture windows
(``--capture N``).  Traced (and probed/captured) runs are forced
sequential and uncached: tracing adds sampler events to the simulation,
so traced results must never be served to — or from — untraced runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.exp.experiments import available_experiments, run_experiment_via
from repro.exp.server import RunConfig
from repro.obs import log as obs_log
from repro.runner import DEFAULT_CACHE_DIR, ResultCache, Runner, use_runner


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hal-repro",
        description="HAL (ISCA 2024) reproduction: run paper experiments",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (fig2..fig10, table1/2/5, costs, ...), 'all', "
        "'list', 'artifact' "
        "(batch-run the default set into --results-dir), 'trace' "
        "(run one experiment under telemetry; see the 'target' argument), "
        "'journal' (summarize a fabric run journal; see the 'target' "
        "argument), or 'lint' (determinism/invariant static analysis; "
        "`hal-repro lint --help`), or 'validate-flow' (flow-mode "
        "cross-validation against packet-mode ground truth; see --grid), "
        "or 'serve' (the local job daemon; `hal-repro serve --help`), or "
        "'cache' (result-cache stats and GC; `hal-repro cache --help`)",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="trace mode: the experiment id to run traced (e.g. fig9); "
        "journal mode: the journal file to summarize",
    )
    parser.add_argument(
        "--trace-out", type=str, default="trace.json", metavar="FILE",
        help="trace mode: Chrome/Perfetto trace-event JSON output "
        "(default trace.json; open at https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--probes", type=str, default=None, metavar="FILE",
        help="write probe time-series as CSV (.csv) or JSON (any other "
        "suffix); implies a telemetry session (sequential, uncached)",
    )
    parser.add_argument(
        "--capture", type=int, default=0, metavar="N",
        help="capture up to N packets per tap at the eSwitch ports and "
        "client egress; invariant verdicts land in the flight record",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="structured debug logging on stderr",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress informational logging (warnings and errors only)",
    )
    parser.add_argument(
        "--grid", type=str, default="smoke", choices=("smoke", "full"),
        help="validate-flow mode: cell grid to sweep (smoke = the CI "
        "gate at 0.05 simulated s; full = the nightly grid at 0.25 s)",
    )
    parser.add_argument(
        "--sim-mode", type=str, default=None, choices=("packet", "flow"),
        metavar="MODE",
        help="simulation granularity for experiment runs: 'packet' "
        "(per-train events, identity-hashed ground truth; default) or "
        "'flow' (fluid fast path, validated by validate-flow)",
    )
    parser.add_argument(
        "--run-name", type=str, default="run0",
        help="artifact mode: name of the results subdirectory",
    )
    parser.add_argument(
        "--results-dir", type=str, default="results",
        help="artifact mode: base directory for per-experiment .txt files",
    )
    parser.add_argument(
        "--duration", type=float, default=0.25,
        help="simulated seconds per run (default 0.25)",
    )
    parser.add_argument("--seed", type=int, default=2024, help="root RNG seed")
    parser.add_argument(
        "--batch", type=int, default=None,
        help="wire packets per simulation event (default: auto-scaled to "
        "the offered rate)",
    )
    parser.add_argument(
        "--functional-rate", type=float, default=0.0,
        help="fraction of packets that run the real NF computation",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent simulation runs "
        "(default 1 = sequential in-process; 0 = one per CPU core)",
    )
    parser.add_argument(
        "--cache", dest="cache", action="store_true", default=None,
        help="reuse/store results in the content-addressed cache "
        "(default: on for artifact mode, off otherwise)",
    )
    parser.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="disable the result cache",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--servers", type=int, default=None, metavar="N",
        help="cluster mode: rack size (with any of --servers/--policy/"
        "--trace, 'cluster' runs one focused rack comparison instead of "
        "the full policy x size grid; default 4)",
    )
    parser.add_argument(
        "--policy", type=str, default=None,
        help="cluster mode: front-tier dispatch policy "
        "(flowhash, roundrobin, p2c, packing; default packing)",
    )
    parser.add_argument(
        "--trace", type=str, default=None, metavar="NAME",
        help="cluster mode: Meta trace driving the rack "
        "(web, cache, hadoop; default web)",
    )
    parser.add_argument(
        "--racks", type=int, default=None, metavar="N",
        help="fabric mode: rack count (any of --racks/--shard-jobs/--hours/"
        "--dispatch/--power-cap/--scaling switches 'fabric' from the "
        "registered grid to one focused sharded run; default 8)",
    )
    parser.add_argument(
        "--shard-jobs", type=int, default=None, metavar="K",
        help="fabric mode: worker processes sharding ONE fabric simulation, "
        "one rack per worker (default 1 = in-process; results are "
        "byte-identical at any K). Distinct from --jobs, which fans out "
        "INDEPENDENT runs — combining them multiplies process counts "
        "(--jobs N x --shard-jobs K workers), so the CLI refuses "
        "combinations that exceed the machine's cores",
    )
    parser.add_argument(
        "--hours", type=float, default=None, metavar="H",
        help="fabric mode: model-clock hours of diurnal traffic stitched "
        "onto the simulated --duration (default 24)",
    )
    parser.add_argument(
        "--dispatch", type=str, default=None,
        help="fabric mode: cross-rack dispatch policy "
        "(spread, packing, headroom; default packing)",
    )
    parser.add_argument(
        "--power-cap", type=float, default=None, metavar="W",
        help="fabric mode: fleet power cap in watts (default 0 = uncapped)",
    )
    parser.add_argument(
        "--scaling", action="store_true",
        help="fabric mode: run the focused fabric at shard-jobs "
        "1, 2, ... K, assert byte-identical payloads across worker "
        "counts, and report the wall-clock speedup",
    )
    parser.add_argument(
        "--checkpoint", type=str, default=None, metavar="FILE",
        help="fabric mode: enable pause/resume — SIGINT/SIGTERM (or "
        "--pause-at-epoch) drain to the next epoch barrier, write a "
        "versioned checkpoint here, and exit 3 with a resume hint; "
        "without it an interrupt still drains cleanly but persists "
        "nothing",
    )
    parser.add_argument(
        "--resume", type=str, default=None, metavar="FILE",
        help="fabric mode: continue a checkpointed run (the checkpoint "
        "carries the whole job, so shape flags like --racks are ignored; "
        "--shard-jobs is free to differ from the pausing run). Further "
        "interrupts re-checkpoint to the same file unless --checkpoint "
        "names another",
    )
    parser.add_argument(
        "--pause-at-epoch", type=int, default=None, metavar="N",
        help="fabric mode: checkpoint the first system once it completes "
        "N epochs and exit 3 (the deterministic test/CI pause knob; "
        "requires --checkpoint)",
    )
    parser.add_argument(
        "--journal", type=str, default=None, metavar="FILE",
        help="fabric mode: stream an epoch-stamped JSONL run journal "
        "(flushed per record; read back with 'repro journal FILE')",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="fabric mode: live progress ticker on stderr "
        "(epoch, offered/shed Gbps, watts, awake servers, p99)",
    )
    parser.add_argument(
        "--prom-out", type=str, default=None, metavar="FILE",
        help="fabric mode: periodically (re)write a Prometheus "
        "text-format snapshot of the latest fleet epoch record",
    )
    parser.add_argument(
        "--slo", action="append", default=None, metavar="RULE",
        help="fabric mode: declarative SLO rule over the fleet epoch "
        "record, e.g. 'power_w<=900', 'shed_gbps<=0.5', 'p99_us<=2000', "
        "'rack_flaps<=4' (repeatable); verdicts land in the flight "
        "record and the journal. Journal mode: re-check rules against "
        "a journal's epoch records",
    )
    parser.add_argument(
        "--slo-strict", action="store_true",
        help="exit non-zero when any --slo rule is violated",
    )
    parser.add_argument(
        "--fleet-trace", type=str, default=None, metavar="FILE",
        help="fabric mode: write a multi-process Perfetto trace of the "
        "fleet telemetry (one process per rack plus the control plane)",
    )
    parser.add_argument("--out", type=str, default=None, help="also write to file")
    parser.add_argument(
        "--plot", type=str, default=None, metavar="YCOL",
        help="for sweep experiments: also render an ASCII chart of the "
        "given column against offered_gbps (e.g. --plot p99_us)",
    )
    return parser


def write_out(path: str, text: str) -> None:
    """Write ``--out`` content, creating parent directories so routed
    paths like ``results/all.txt`` work on a fresh checkout."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def make_runner(args: argparse.Namespace) -> Runner:
    """Translate --jobs/--cache/--cache-dir into a Runner."""
    cache_on = args.cache if args.cache is not None else args.experiment == "artifact"
    return Runner(
        jobs=args.jobs,
        cache=ResultCache(args.cache_dir) if cache_on else None,
        progress=args.jobs != 1,
    )


def _export_session(session, args: argparse.Namespace) -> None:
    """Write trace/probe artifacts for a finished telemetry session."""
    from repro.obs.export import (
        write_chrome_trace,
        write_probes_csv,
        write_probes_json,
    )

    log = obs_log.get_logger("cli")
    if args.experiment == "trace":
        trace = write_chrome_trace(session, args.trace_out)
        log.info(
            "trace_written",
            path=args.trace_out,
            events=len(trace["traceEvents"]),
            runs=len(session.runs),
            dropped=session.total_dropped(),
        )
    if args.probes:
        if args.probes.endswith(".csv"):
            write_probes_csv(session.probes, args.probes)
        else:
            write_probes_json(session.probes, args.probes)
        log.info(
            "probes_written",
            path=args.probes,
            series=len(session.probes.series_names()),
        )
    for line in session.flight.summary_lines():
        log.info("flight", run=line)


def check_process_budget(
    jobs: int, shard_jobs: int, cores: Optional[int] = None
) -> Optional[str]:
    """Refuse silent oversubscription: ``--jobs N`` fans out N independent
    runs and ``--shard-jobs K`` puts K shard workers inside *each* run,
    so both together ask for N*K processes.  Returns an error message
    when both are > 1 and the product exceeds the core count."""
    if cores is None:
        cores = os.cpu_count() or 1
    if jobs <= 0:
        jobs = cores
    if jobs > 1 and shard_jobs > 1 and jobs * shard_jobs > cores:
        return (
            f"--jobs {jobs} x --shard-jobs {shard_jobs} = "
            f"{jobs * shard_jobs} worker processes, but this machine has "
            f"{cores} cores; lower one of them (--jobs fans out "
            "independent runs, --shard-jobs shards one fabric run)"
        )
    return None


def _fabric_focused(args: argparse.Namespace) -> bool:
    """Any fabric-shape or telemetry flag switches 'fabric' from the
    registered grid to one focused (optionally sharded) run."""
    return (
        args.scaling
        or args.live
        or args.slo_strict
        or any(
            value is not None
            for value in (
                args.racks,
                args.shard_jobs,
                args.hours,
                args.dispatch,
                args.power_cap,
                args.journal,
                args.prom_out,
                args.slo,
                args.fleet_trace,
                args.checkpoint,
                args.resume,
                args.pause_at_epoch,
            )
        )
    )


def _fabric_kwargs(args: argparse.Namespace) -> dict:
    return {
        "racks": args.racks if args.racks is not None else 8,
        "servers": args.servers if args.servers is not None else 2,
        "dispatch": args.dispatch or "packing",
        "model_hours": args.hours if args.hours is not None else 24.0,
        "policy": args.policy or "packing",
        "power_cap_w": args.power_cap if args.power_cap is not None else 0.0,
    }


def _fabric_telemetry(args: argparse.Namespace):
    """Build the fleet telemetry plane when any telemetry flag is set
    (None otherwise — the zero-overhead default)."""
    wanted = (
        args.journal
        or args.live
        or args.prom_out
        or args.slo
        or args.fleet_trace
        or args.slo_strict
    )
    if not wanted:
        return None
    from repro.obs.fleet import FleetTelemetry
    from repro.obs.slo import parse_slo_rule

    rules = [parse_slo_rule(text) for text in (args.slo or [])]
    return FleetTelemetry(
        journal_path=args.journal,
        rules=rules,
        live=args.live,
        prom_path=args.prom_out,
        # resumed runs append so the paused run's journal survives
        journal_append=bool(getattr(args, "resume", None)),
    )


def _run_fabric_resumable(args: argparse.Namespace, config: RunConfig, telemetry) -> int:
    """The checkpoint-aware focused fabric path: run through
    :func:`repro.serve.checkpoint.run_resumable` under a
    :class:`~repro.runner.sharded.DrainSignal`, so SIGINT/SIGTERM (and
    ``--pause-at-epoch``) drain to the next epoch barrier instead of
    killing workers mid-epoch.  Exit 3 = paused (resumable when a
    checkpoint file was written)."""
    from repro.runner.sharded import DrainSignal
    from repro.serve.checkpoint import (
        EXPERIMENT_KIND,
        FabricJobParams,
        load_checkpoint_job,
        pause_at_epoch,
        run_resumable,
    )
    from repro.serve.snapshot import CheckpointError, read_checkpoint

    resume_body = None
    if args.resume:
        try:
            resume_body = read_checkpoint(args.resume, EXPERIMENT_KIND)
            run_config, params = load_checkpoint_job(resume_body)
        except CheckpointError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        run_config = config
        params = FabricJobParams(**_fabric_kwargs(args))
    checkpoint_path = args.checkpoint or args.resume
    epoch_hook = (
        pause_at_epoch(args.pause_at_epoch)
        if args.pause_at_epoch is not None
        else None
    )
    drain = DrainSignal()

    def should_pause(system: str, epoch: int) -> bool:
        if drain.triggered:
            return True
        return epoch_hook is not None and epoch_hook(system, epoch)

    shard_jobs = args.shard_jobs if args.shard_jobs is not None else 1
    with drain:
        try:
            outcome = run_resumable(
                run_config,
                params,
                shard_jobs=shard_jobs,
                checkpoint_path=checkpoint_path,
                should_pause=should_pause,
                resume_body=resume_body,
                telemetry=telemetry,
            )
        except CheckpointError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if outcome.paused:
        resumable = checkpoint_path is not None
        if telemetry is not None:
            telemetry.interrupt(
                epoch=outcome.paused_epoch or 0,
                signame=drain.signame,
                resumable=resumable,
            )
        cause = drain.signame or "--pause-at-epoch"
        print(
            f"{cause}: drained mid-{outcome.paused_system} at epoch "
            f"{outcome.paused_epoch} "
            + (
                f"— resumable from epoch {outcome.paused_epoch}: "
                f"repro fabric --resume {checkpoint_path}"
                if resumable
                else "— nothing persisted (re-run with --checkpoint FILE "
                "to make interruptions resumable)"
            ),
            file=sys.stderr,
        )
        return 3
    text = outcome.result.to_text()
    print(text)
    if args.out:
        write_out(args.out, text + "\n")
    return 0


def run_fabric_focused(args: argparse.Namespace, config: RunConfig) -> int:
    """``repro fabric --racks N --shard-jobs K --hours H [--scaling]``."""
    import hashlib
    import json

    from repro.exp.fabric import run_focused

    checkpointing = bool(
        args.checkpoint or args.resume or args.pause_at_epoch is not None
    )
    if args.scaling and checkpointing:
        print(
            "--scaling re-runs the same job at several worker counts; it "
            "cannot be combined with --checkpoint/--resume/--pause-at-epoch",
            file=sys.stderr,
        )
        return 2
    if args.pause_at_epoch is not None and not (args.checkpoint or args.resume):
        print("--pause-at-epoch requires --checkpoint (or --resume)", file=sys.stderr)
        return 2
    try:
        telemetry = _fabric_telemetry(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not args.scaling:
        exit_code = _run_fabric_resumable(args, config, telemetry)
        return _fabric_telemetry_epilogue(args, telemetry, exit_code)
    kwargs = _fabric_kwargs(args)
    shard_jobs = args.shard_jobs if args.shard_jobs is not None else 1
    counts = [1]
    while counts[-1] * 2 <= max(shard_jobs, 2):
        counts.append(counts[-1] * 2)
    if shard_jobs not in counts and shard_jobs > 1:
        counts.append(shard_jobs)
    digests = []
    lines = []
    result = None
    base_step_wall_s = None
    for count in counts:
        wall_out: dict = {}
        started = time.time()
        result = run_focused(
            config,
            shard_jobs=count,
            wall_out=wall_out,
            telemetry=telemetry,
            **kwargs,
        )
        elapsed_s = time.time() - started
        step_wall_s = sum(wall_out.values())
        if base_step_wall_s is None:
            base_step_wall_s = step_wall_s
        blob = json.dumps(
            result.to_dict(), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(blob.encode()).hexdigest()
        digests.append(digest)
        speedup = base_step_wall_s / step_wall_s if step_wall_s > 0 else 0.0
        lines.append(
            f"  K={count}: {elapsed_s:6.1f}s wall, {step_wall_s:6.1f}s in "
            f"epoch barriers ({speedup:4.2f}x vs K=1, efficiency "
            f"{speedup / count:.0%}), payload {digest[:16]}…"
        )
    text = result.to_text()
    text += "\n\nscaling (wall-clock lives outside the payload):\n"
    text += "\n".join(lines)
    identical = len(set(digests)) == 1
    text += (
        "\n  payloads byte-identical across worker counts: "
        f"{'yes' if identical else 'NO — DETERMINISM BUG'}"
    )
    print(text)
    if args.out:
        write_out(args.out, text + "\n")
    exit_code = 0
    if len(set(digests)) != 1:
        exit_code = 1
    return _fabric_telemetry_epilogue(args, telemetry, exit_code)


def _fabric_telemetry_epilogue(
    args: argparse.Namespace, telemetry, exit_code: int
) -> int:
    if telemetry is not None:
        log = obs_log.get_logger("cli")
        for line in telemetry.flight.summary_lines():
            log.info("flight", run=line)
        if args.fleet_trace:
            from repro.obs.export import write_chrome_trace

            trace = write_chrome_trace(
                telemetry.to_trace_session(), args.fleet_trace
            )
            log.info(
                "fleet_trace_written",
                path=args.fleet_trace,
                events=len(trace["traceEvents"]),
                processes=len(telemetry.runs)
                * (1 + (telemetry.runs[0].racks if telemetry.runs else 0)),
            )
        telemetry.close()
        if args.journal and telemetry.journal is not None:
            log.info(
                "journal_written",
                path=args.journal,
                records=telemetry.journal.records_written,
            )
        if telemetry.slo_failed:
            for verdict in telemetry.verdicts():
                if not verdict["passed"]:
                    log.warning(
                        "slo_failed",
                        run=verdict["run"],
                        rule=verdict["rule"],
                        violations=verdict["violations"],
                        epochs=verdict["epochs"],
                        worst=verdict["worst"],
                    )
            if args.slo_strict:
                # don't mask a paused run's exit 3 (its verdicts are
                # interim — the run has not seen every epoch yet)
                exit_code = exit_code or 1
    return exit_code


def run_journal(args: argparse.Namespace) -> int:
    """``repro journal FILE [--slo RULE ... [--slo-strict]]``: summarize
    a fabric run journal, optionally re-checking SLO rules against the
    journaled epoch records."""
    from repro.obs.journal import read_journal, summarize_journal
    from repro.obs.slo import evaluate_rules, parse_slo_rule

    if not args.target:
        print(
            "journal mode needs a file, e.g.: repro journal fleet.jsonl",
            file=sys.stderr,
        )
        return 2
    try:
        records, truncated = read_journal(args.target)
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"corrupt journal: {exc}", file=sys.stderr)
        return 2
    lines = summarize_journal(records, truncated)
    failed = False
    if args.slo:
        try:
            rules = [parse_slo_rule(text) for text in args.slo]
            epochs = [r for r in records if r.get("kind") == "epoch"]
            verdicts = evaluate_rules(rules, epochs)
        except (KeyError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        lines.append("re-checked rules:")
        for verdict in verdicts:
            status = "ok" if verdict["passed"] else "FAIL"
            failed = failed or not verdict["passed"]
            lines.append(
                f"  slo {verdict['rule']}: {status} "
                f"({verdict['violations']}/{verdict['epochs']} epochs "
                f"violated, worst {verdict['worst']:.4g})"
            )
    text = "\n".join(lines)
    print(text)
    if args.out:
        write_out(args.out, text + "\n")
    return 1 if failed and args.slo_strict else 0


def _cluster_focused(args: argparse.Namespace) -> bool:
    """Any rack-shape flag switches 'cluster' from the full grid to one
    focused rack comparison."""
    return (
        args.servers is not None
        or args.policy is not None
        or args.trace is not None
    )


def _cluster_kwargs(args: argparse.Namespace) -> dict:
    return {
        "servers": args.servers if args.servers is not None else 4,
        "policy": args.policy or "packing",
        "trace": args.trace or "web",
    }


def run_traced(args: argparse.Namespace, config: RunConfig) -> int:
    """``repro trace <exp>``: one experiment under a telemetry session."""
    from repro.exp.experiments import run_experiment
    from repro.obs import TraceSession, use_session

    name = args.target
    if not name:
        print("trace mode needs a target, e.g.: repro trace fig9", file=sys.stderr)
        return 2
    if name not in available_experiments():
        print(
            f"unknown experiment {name!r}; known: {available_experiments()}",
            file=sys.stderr,
        )
        return 2
    session = TraceSession(capture_packets=args.capture)
    # sequential + uncached: the sampler events make traced runs
    # reproducible but not bit-identical to untraced ones, and tracing
    # is in-process only (worker processes would trace into the void)
    runner = Runner(jobs=1, cache=None, progress=False)
    started = time.time()
    with use_runner(runner), use_session(session):
        if name == "cluster" and _cluster_focused(args):
            from repro.exp.rack import run_focused

            result = run_focused(config, **_cluster_kwargs(args))
        else:
            result = run_experiment(name, config)
    result.obs = session.flight.to_dict()
    text = result.to_text()
    text += f"\n({time.time() - started:.1f}s wall)"
    print(text)
    _export_session(session, args)
    if args.out:
        write_out(args.out, text + "\n")
    return 0


def run_cache_mode(argv: List[str]) -> int:
    """``repro cache [--gc] [--max-age D] [--max-bytes N]``: stats and
    eviction for the content-addressed result cache."""
    from repro.runner.cache import ResultCache

    parser = argparse.ArgumentParser(
        prog="hal-repro cache",
        description="result-cache stats and garbage collection",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--gc", action="store_true",
        help="evict entries (stale code-salt tiers always go; add "
        "--max-age/--max-bytes for age/size limits)",
    )
    parser.add_argument(
        "--max-age", type=float, default=None, metavar="DAYS",
        help="with --gc: evict entries older than DAYS (fractional ok)",
    )
    parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="with --gc: evict oldest-first until the cache fits in N bytes",
    )
    args = parser.parse_args(argv)
    if (args.max_age is not None or args.max_bytes is not None) and not args.gc:
        print("--max-age/--max-bytes only apply with --gc", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    if args.gc:
        summary = cache.gc(
            max_age_s=None if args.max_age is None else args.max_age * 86400.0,
            max_bytes=args.max_bytes,
        )
        print(
            f"gc: removed {summary['removed']} entries "
            f"({summary['freed_bytes']:,} bytes); "
            f"{summary['remaining_entries']} entries "
            f"({summary['remaining_bytes']:,} bytes) remain"
        )
        return 0
    stats = cache.stats()
    print(f"cache {stats['root']} (code salt {stats['code_salt']})")
    print(
        f"  {stats['entries']} entries, {stats['bytes']:,} bytes "
        f"({stats['stale_entries']} stale — unreachable until --gc)"
    )
    last = stats["last_batch"]
    if last:
        print(
            f"  last run: {last['jobs']} jobs, {last['cached']} cached, "
            f"{last['executed']} executed "
            f"(hit rate {last['hit_rate']:.0%})"
        )
    else:
        print("  last run: none recorded")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # `hal-repro lint [paths...]` has its own flag set (baselines,
        # --format=json, --select); hand the rest of the line to it
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "serve":
        # `hal-repro serve` likewise owns its flags (--state-dir, --port)
        from repro.serve.daemon import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "cache":
        return run_cache_mode(argv[1:])
    args = build_parser().parse_args(argv)
    if args.verbose:
        obs_log.set_level("debug")
    elif args.quiet:
        obs_log.set_level("warning")
    budget_error = check_process_budget(
        args.jobs, args.shard_jobs if args.shard_jobs is not None else 1
    )
    if budget_error:
        print(budget_error, file=sys.stderr)
        return 2
    if args.experiment == "list":
        for name in available_experiments():
            print(name)
        return 0
    if args.experiment == "journal":
        return run_journal(args)
    if args.experiment == "validate-flow":
        # the grid declares its own duration; --seed still applies
        from repro.exp.flow_validation import GRID_DURATIONS, validate_flow

        grid_config = RunConfig(
            duration_s=GRID_DURATIONS[args.grid], seed=args.seed
        )
        with use_runner(make_runner(args)):
            report, ok = validate_flow(args.grid, grid_config)
        text = report.to_text()
        print(text)
        if args.out:
            write_out(args.out, text + "\n")
        return 0 if ok else 1

    config = RunConfig(
        duration_s=args.duration,
        seed=args.seed,
        batch=args.batch,
        functional_rate=args.functional_rate,
        sim_mode=args.sim_mode or "packet",
    )
    if args.experiment == "trace":
        return run_traced(args, config)
    runner = make_runner(args)
    if args.experiment == "artifact":
        from repro.exp.artifact import run_all

        run = run_all(
            args.run_name,
            results_dir=args.results_dir,
            config=config,
            runner=runner,
        )
        for name, wall in run.wall_times_s.items():
            status = " (cached)" if run.cached.get(name) else ""
            if name in run.failures:
                status = " FAILED"
            print(f"{name:20s} {wall:7.1f}s -> {run.run_dir}/{name}.txt{status}")
        print(f"manifest: {run.run_dir}/MANIFEST.txt")
        return 1 if run.failures else 0

    if args.experiment == "fabric" and _fabric_focused(args):
        return run_fabric_focused(args, config)

    if args.experiment == "cluster" and _cluster_focused(args):
        from repro.exp.rack import run_focused

        started = time.time()
        with use_runner(runner):
            result = run_focused(config, **_cluster_kwargs(args))
        text = result.to_text()
        text += f"\n({time.time() - started:.1f}s wall)"
        print(text)
        if args.out:
            write_out(args.out, text + "\n")
        return 0

    names = (
        available_experiments() if args.experiment == "all" else [args.experiment]
    )
    session = None
    if args.probes or args.capture:
        # probes/capture need an ambient telemetry session; same
        # sequential-and-uncached rule as trace mode
        from repro.obs import TraceSession, use_session

        session = TraceSession(capture_packets=args.capture)
        runner = Runner(jobs=1, cache=None, progress=False)
        session_cm = use_session(session)
    else:
        from contextlib import nullcontext

        session_cm = nullcontext()
    outputs: List[str] = []
    with use_runner(runner), session_cm:
        for name in names:
            started = time.time()
            result = run_experiment_via(runner, name, config)
            text = result.to_text()
            if args.plot and "offered_gbps" in result.columns:
                from repro.exp.plots import chart_experiment

                text += "\n\n" + chart_experiment(result, "offered_gbps", args.plot)
            text += f"\n({time.time() - started:.1f}s wall)"
            print(text)
            print()
            outputs.append(text)
    if session is not None:
        _export_session(session, args)
    if args.out:
        write_out(args.out, "\n\n".join(outputs) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
