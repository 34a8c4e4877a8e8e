"""The orchestrator: fan jobs out, stream progress, collect a report.

A :class:`Runner` executes a batch of :class:`JobSpec`\\ s either
in-process (``jobs=1``, the default — bit-identical to the historical
serial loops) or across a ``ProcessPoolExecutor``.  Either way each job
flows through the same pipeline:

    cache get? → execute (with retries) → cache put → outcome

Failed jobs of a batch are retried ``retries`` times and then
*recorded*, not propagated mid-batch: sibling jobs always run to
completion.  With ``strict=True`` (the default for experiment code that
has no use for a partial sweep) the batch raises :class:`RunnerError` at
the end; batch drivers like ``exp.artifact`` pass ``strict=False`` and
render the failures in their report instead.  A single cell submitted
with :meth:`Runner.run_one` has no siblings: it is neither retried nor
wrapped, so its own exception reaches the caller unchanged.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.log import get_logger
from repro.runner.cache import ResultCache
from repro.runner.executor import decode_payload, execute_counted
from repro.runner.spec import JobSpec

log = get_logger("runner")


class RunnerError(RuntimeError):
    """A strict batch had at least one job fail after retries."""

    def __init__(self, message: str, failures: List["JobOutcome"]) -> None:
        super().__init__(message)
        self.failures = failures


@dataclass
class JobOutcome:
    """What happened to one job of a batch."""

    spec: JobSpec
    payload: Optional[Dict[str, Any]] = None
    wall_s: float = 0.0
    cached: bool = False
    attempts: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.payload is not None

    def decoded(self) -> Any:
        if self.payload is None:
            raise RunnerError(f"job {self.spec.label()} failed", [self])
        return decode_payload(self.payload)


@dataclass
class BatchReport:
    """Ordered outcomes of one :meth:`Runner.run` call."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def failures(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def cached_count(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.ok and not o.cached)

    def results(self) -> List[Any]:
        """Decoded results, ``None`` holes where jobs failed."""
        return [o.decoded() if o.ok else None for o in self.outcomes]

    def summary(self) -> str:
        return (
            f"{len(self.outcomes)} jobs: {self.executed_count} executed, "
            f"{self.cached_count} cached, {len(self.failures)} failed "
            f"({self.wall_s:.1f}s)"
        )


class Runner:
    """Parallel/cached executor for simulation jobs.

    ``jobs=1`` runs everything in-process; ``jobs=N`` fans out over N
    worker processes; ``jobs=0``/``None`` means one per CPU core.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        retries: int = 1,
        progress: bool = False,
    ) -> None:
        if jobs is None or jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs
        self.cache = cache
        self.retries = max(0, retries)
        self.progress = progress
        self._done = 0
        self._total = 0
        #: jobs, cached and executed over every batch this runner ran,
        #: and over the nested runs of its jobs: the whole run, as the
        #: cache's stats file records it
        self.counts: Tuple[int, int, int] = (0, 0, 0)

    # -- public API -----------------------------------------------------

    def run(
        self, specs: Sequence[JobSpec], strict: bool = True, *, raises: bool = False
    ) -> BatchReport:
        """Execute a batch; outcomes are ordered like ``specs``.  With
        ``raises`` (:meth:`run_one`'s mode) an in-process job's own
        exception propagates at once, without a retry."""
        started = time.time()
        report = BatchReport(outcomes=[JobOutcome(spec=s) for s in specs])
        self._done, self._total = 0, len(specs)

        pending: List[int] = []
        for index, spec in enumerate(specs):
            payload = self.cache.get(spec) if self.cache else None
            if payload is not None:
                outcome = report.outcomes[index]
                outcome.payload, outcome.cached = payload, True
                self._note(outcome)
            else:
                pending.append(index)

        if self.jobs <= 1 or len(pending) <= 1:
            self._run_sequential(report, specs, pending, raises)
        else:
            self._run_pool(report, specs, pending)

        report.wall_s = time.time() - started
        self._count((len(specs), report.cached_count, report.executed_count))
        if self.cache is not None:
            # persisted next to the entries so `repro cache` can report
            # the run's hit rate after the process is gone
            self.cache.record_run(*self.counts)
        if strict and report.failures:
            first = report.failures[0]
            raise RunnerError(
                f"{len(report.failures)} of {len(specs)} jobs failed; first: "
                f"{first.spec.label()}\n{first.error}",
                report.failures,
            )
        return report

    def map_metrics(self, specs: Sequence[JobSpec]) -> List[Any]:
        """Run a strict batch of run-level jobs → list of RunMetrics."""
        return self.run(specs, strict=True).results()

    def run_one(self, spec: JobSpec) -> Any:
        """Run a single job in-process and decode its result; the job's
        own exception propagates unchanged, without a retry."""
        return self.run([spec], raises=True).outcomes[0].decoded()

    # -- execution paths ------------------------------------------------

    @property
    def _cache_dir(self) -> Optional[str]:
        return self.cache.root if self.cache else None

    def _run_sequential(
        self,
        report: BatchReport,
        specs: Sequence[JobSpec],
        pending: List[int],
        raises: bool,
    ) -> None:
        for index in pending:
            outcome = report.outcomes[index]
            started = time.time()
            for attempt in range(self.retries + 1):
                outcome.attempts = attempt + 1
                try:
                    outcome.payload, nested = execute_counted(
                        specs[index], self._cache_dir
                    )
                    outcome.error = None
                    self._count(nested)
                    break
                except Exception:
                    if raises:
                        raise
                    outcome.error = traceback.format_exc()
            outcome.wall_s = time.time() - started
            self._store(outcome)
            self._note(outcome)

    def _run_pool(
        self, report: BatchReport, specs: Sequence[JobSpec], pending: List[int]
    ) -> None:
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            submitted = {}
            for index in pending:
                future = pool.submit(execute_counted, specs[index], self._cache_dir)
                report.outcomes[index].attempts = 1
                submitted[future] = (index, time.time())
            while submitted:
                done, _ = wait(submitted, return_when=FIRST_COMPLETED)
                for future in done:
                    index, started = submitted.pop(future)
                    outcome = report.outcomes[index]
                    outcome.wall_s += time.time() - started
                    error = future.exception()
                    if error is None:
                        outcome.payload, nested = future.result()
                        outcome.error = None
                        self._count(nested)
                    elif outcome.attempts <= self.retries:
                        # retry in a fresh worker slot
                        retry = pool.submit(
                            execute_counted, specs[index], self._cache_dir
                        )
                        outcome.attempts += 1
                        submitted[retry] = (index, time.time())
                        continue
                    else:
                        outcome.error = "".join(
                            traceback.format_exception(
                                type(error), error, error.__traceback__
                            )
                        )
                    self._store(outcome)
                    self._note(outcome)

    # -- bookkeeping ----------------------------------------------------

    def _count(self, counts: Tuple[int, int, int]) -> None:
        jobs, cached, executed = self.counts
        self.counts = (jobs + counts[0], cached + counts[1], executed + counts[2])

    def _store(self, outcome: JobOutcome) -> None:
        if self.cache and outcome.ok:
            self.cache.put(outcome.spec, outcome.payload)

    def _note(self, outcome: JobOutcome) -> None:
        self._done += 1
        status = "cached" if outcome.cached else ("ok" if outcome.ok else "failed")
        # with progress off the line still exists at debug level, so -v
        # surfaces per-job timings without re-running anything
        emit = log.info if self.progress else log.debug
        if not outcome.ok:
            emit = log.error
        emit(
            "job",
            n=self._done,
            total=self._total,
            spec=outcome.spec.label(),
            wall_s=round(outcome.wall_s, 3),
            status=status,
            attempts=outcome.attempts,
        )
