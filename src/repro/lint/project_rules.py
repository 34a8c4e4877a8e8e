"""Cross-module rule families (phase 2): SNAP01, BAR01.

These rules consume the merged :class:`~repro.lint.index.SymbolIndex`
instead of a single file's AST, because the invariants they protect
span modules by construction:

* a snapshot walker in ``serve/state.py`` captures fields of classes
  defined in ``flow/``, ``cluster/``, ``fabric/``;
* fleet-control state lives in ``fabric/control.py`` but is only legal
  to touch from the epoch loop in ``fabric/system.py`` (and the
  checkpoint resume path), which the index's call edges identify.

Like the per-file rules, each one over-approximates syntactically and
leaves ``# lint: disable=RULE-ID reason`` as the justified escape
hatch — placed at the line the finding points at (the field definition
for SNAP01, the access site for BAR01).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.engine import Finding, ProjectRule
from repro.lint.index import (
    ClassKey,
    FunctionSummary,
    ModuleParts,
    SymbolIndex,
    dotted_key,
)

# ---------------------------------------------------------------------------
# SNAP01 — snapshot completeness
# ---------------------------------------------------------------------------

#: the module whose walkers define the checkpoint wire format
_WALKER_MODULE: ModuleParts = ("serve", "state")


def _is_walker(fn: FunctionSummary) -> bool:
    """Walker naming convention: ``*_state`` captures, ``restore_*`` /
    ``_restore_*`` replays.  Helpers like ``_collect_timers`` fall
    outside it on purpose — they visit *parts* of a component and must
    not be mistaken for its capture set."""
    return (
        fn.name.endswith("_state")
        or fn.name.startswith("restore_")
        or fn.name.startswith("_restore_")
    )


class SnapshotCompletenessRule(ProjectRule):
    """SNAP01: every mutable field of a walked component is captured.

    ``serve/state.py`` promises byte-identical resume: a checkpoint
    holds *all* evolving state of every shard component.  The promise
    breaks silently — a field added to ``FlowStation`` or
    ``RackAutoscaler`` and forgotten in its walker produces a
    checkpoint that restores to a subtly different simulation, which
    the identity gate only catches if a smoke test happens to cross a
    checkpoint at the right epoch.

    The rule finds every walker (a ``serve.state`` function named
    ``*_state``/``restore_*`` whose first parameter is annotated with
    an index-resolvable class), unions the attributes each walker
    touches on that parameter, and then requires every *mutable*
    attribute of the walked class (written anywhere outside
    ``__init__`` — plain stores, ``+=``, ``d[k] =``, and in-place
    mutator calls all count) to appear in that union.  A miss is
    reported **at the field's definition line** in the component's own
    file, which is where the exemption belongs when state is carried by
    another mechanism (e.g. wake timers re-armed via the timer
    walkers): ``# lint: disable=SNAP01 reason``.
    """

    rule_id = "SNAP01"
    summary = (
        "mutable fields of serve/state.py-walked components must be captured "
        "by their walker"
    )

    def check_project(self, index: SymbolIndex) -> Iterator[Finding]:
        # each walker's own capture set: the state and restore halves are
        # symmetric by design, so a field present in capture but missing
        # from restore (or vice versa) is exactly the resume-divergence
        # bug — per-walker coverage, not the union, is what is checked
        captured: Dict[ClassKey, Dict[str, Set[str]]] = {}
        for fn in index.iter_functions():
            if fn.module != _WALKER_MODULE or fn.cls is not None:
                continue
            if not _is_walker(fn):
                continue
            first = fn.first_param()
            if first is None:
                continue
            param, annotation = first
            key = index.resolve_type(fn.module, annotation)
            if index.get_class(key) is None:
                continue  # Any / unresolvable — nothing to check against
            assert key is not None
            captured.setdefault(key, {})[fn.name] = {
                a.attr for a in fn.accesses if a.root == param
            }

        for key in sorted(captured):
            cls = index.get_class(key)
            assert cls is not None
            walkers = captured[key]
            for attr_name in sorted(cls.attrs):
                attr = cls.attrs[attr_name]
                if not attr.mutable:
                    continue
                missing = sorted(
                    name
                    for name, touched in walkers.items()
                    if attr_name not in touched
                )
                if not missing:
                    continue
                yield Finding(
                    path=cls.path,
                    line=attr.line,
                    col=attr.col,
                    rule=self.rule_id,
                    message=(
                        f"mutable attribute {cls.name}.{attr_name} is not "
                        f"captured by serve/state walker(s) "
                        f"[{', '.join(missing)}]; a checkpointed run would "
                        "resume without it and diverge from the "
                        "uninterrupted payload — capture it, or exempt the "
                        "field here with a reason"
                    ),
                )


# ---------------------------------------------------------------------------
# BAR01 — barrier protocol for fleet-control state
# ---------------------------------------------------------------------------

_RUNNER_KEY: ClassKey = (("runner", "sharded"), "ShardedRunner")
_BARRIER_VERBS = frozenset({"step", "finish", "describe", "apply"})
_STATE_MODULE: ModuleParts = ("fabric", "control")
#: interprocedural budget: a helper called (transitively, this deep)
#: from a barrier function is part of the epoch loop
_CALL_BUDGET = 2


def _resolve_call(
    index: SymbolIndex, fn: FunctionSummary, call: str
) -> Optional[Tuple[ModuleParts, str]]:
    if call.startswith("self."):
        if fn.cls is None:
            return None
        return (fn.module, f"{fn.cls}.{call[len('self.'):]}")
    if "." in call:
        return None  # obj.method on a non-self receiver: not an edge we track
    summary = index.modules.get(fn.module)
    if summary is None:
        return None
    if call in summary.functions:
        return (fn.module, call)
    origin = summary.imports.get(call)
    if origin is not None:
        key = dotted_key(origin)
        if key is not None:
            return key
    return None


class BarrierProtocolRule(ProjectRule):
    """BAR01: fleet-control state is only touched inside barrier hooks.

    The fabric's determinism story (PR 8) is lockstep: every rack
    advances one epoch, the barrier collects summaries, and only then
    does the :class:`FleetBalancer` observe and re-split.  Touching
    balancer state from anywhere else — a telemetry callback, say —
    reads mid-epoch garbage or, worse, steers racks
    that have not reached the barrier, and the divergence depends on
    shard scheduling (exactly what ``--shard-jobs`` identity forbids).

    Mechanically: mutable classes defined in ``fabric/control.py`` are
    the protected state; a *barrier hook* is any function that calls a
    barrier verb (``step``/``finish``/``describe``/``apply``) on a
    ``ShardedRunner``-typed name, plus helpers reachable from one
    through the index's call edges within a small budget (the epoch
    loop's aggregation helpers).  Any other function that reads,
    writes, or calls methods on a ``FleetBalancer``-typed name is
    flagged at the access site.
    """

    rule_id = "BAR01"
    summary = (
        "fabric fleet-control state may only be accessed from epoch-barrier "
        "hooks"
    )

    def check_project(self, index: SymbolIndex) -> Iterator[Finding]:
        state_keys = {
            (cls.module, cls.name)
            for cls in index.iter_classes()
            if cls.module == _STATE_MODULE and not cls.frozen
        }
        if not state_keys:
            return

        hooks: Set[Tuple[ModuleParts, str]] = set()
        for fn in index.iter_functions():
            for access in fn.accesses:
                if (
                    access.kind == "call"
                    and access.attr in _BARRIER_VERBS
                    and index.resolve_local(fn, access.root) == _RUNNER_KEY
                ):
                    hooks.add((fn.module, fn.qualname))
                    break
        frontier = set(hooks)
        for _ in range(_CALL_BUDGET):
            grown: Set[Tuple[ModuleParts, str]] = set()
            for module, qualname in frontier:
                fn = index.get_function(module, qualname)
                if fn is None:
                    continue
                for call in fn.calls:
                    callee = _resolve_call(index, fn, call)
                    if callee is not None and callee not in hooks:
                        grown.add(callee)
            hooks |= grown
            frontier = grown

        for fn in index.iter_functions():
            if (fn.module, fn.qualname) in hooks:
                continue
            if fn.cls is not None and (fn.module, fn.cls) in state_keys:
                continue  # the state class manages itself
            for access in fn.accesses:
                key = index.resolve_local(fn, access.root)
                if key not in state_keys:
                    continue
                cls = index.get_class(key)
                yield Finding(
                    path=fn.path,
                    line=access.line,
                    col=access.col,
                    rule=self.rule_id,
                    message=(
                        f"fleet-control state {cls.name if cls else key[1]}."
                        f"{access.attr} accessed in {fn.qualname}, which is "
                        "not an epoch-barrier hook (no ShardedRunner "
                        "step/finish/describe/apply on its call path); "
                        "cross-rack state is only coherent at the barrier"
                    ),
                )


#: phase-2 registry, consumed by repro.lint.rules.ALL_RULES
PROJECT_RULES: Tuple[ProjectRule, ...] = (
    SnapshotCompletenessRule(),
    BarrierProtocolRule(),
)
