"""Determinism & invariant static analysis for the HAL reproduction.

Every load-bearing guarantee in this repo — the runner's
content-addressed cache, the fig5/rack/fabric payload-identity gates,
the "untraced runs are bit-identical" obs contract, the byte-identical
checkpoint/resume promise, and the crc32-salted RNG spawn tree — holds
only while the code never leaks nondeterminism.  :mod:`repro.lint`
turns those rules from code comments into an enforced analysis: a
**two-phase engine** whose phase 1 runs per-file AST rules, and whose
phase 2 merges per-file symbol summaries into a project-wide
:class:`~repro.lint.index.SymbolIndex` for the cross-module rules.

========  ==========================================================
rule id   protects
========  ==========================================================
DET01     no wall clock in sim-domain packages (cache keys & payload
          shas must not depend on when a run happened)
DET02     no randomized ``builtins.hash()`` / unordered-set iteration
          feeding placement or scheduling (PYTHONHASHSEED must not
          change results)
DET03     no global/unseeded ``random`` outside ``sim.rng`` (all
          stochastic draws come from named ``RngRegistry`` streams)
DET04     no float accumulation (``sum``/``+=``) over sets or
          ``.values()`` views in sim-domain code (float addition is
          not associative; iteration order becomes part of the
          payload)
MUT01     no mutable or config-object default arguments (the exact
          shared-``LbpConfig``/``PowerConfig`` bug class PR 4 fixed)
OBS01     tracer emission in hot paths guarded by ``is not None``
          (the PR 3 zero-overhead-untraced contract)
UNIT01    unit-suffix consistency (``*_s`` vs ``*_us`` vs ``*_w``)
          in assignments, so latency/power math cannot silently mix
          scales
SNAP01    snapshot completeness: every mutable field of a component
          walked by ``serve/state.py`` is captured by each of its
          walkers (byte-identical checkpoint resume)  [project]
BAR01     fabric fleet-control state only accessed from epoch-barrier
          hooks (lockstep cross-rack determinism)  [project]
========  ==========================================================

Run it as ``hal-repro lint [paths]`` or ``python -m repro.lint``: it
prints ``file:line:col RULE-ID message`` per finding and exits 0 when
clean, 1 on findings, 2 on a usage error.  ``--explain RULE-ID`` prints
a rule's long-form rationale.  The only way to carry a deliberate
exception is inline, ``# lint: disable=RULE-ID reason`` (for project
rules, at the line the finding points at).
"""

from repro.lint.engine import (
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.index import SymbolIndex, summarize_module
from repro.lint.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "ProjectRule",
    "Rule",
    "SymbolIndex",
    "lint_file",
    "lint_paths",
    "lint_source",
    "summarize_module",
]
