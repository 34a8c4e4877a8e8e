"""The repo-specific rule set.

Each rule is a small class with a stable ``rule_id``, a one-line
``summary`` (shown by ``--list-rules``), an ``applies(ctx)`` domain
predicate, and a ``check(ctx)`` generator of findings.  Rules are
deliberately syntactic: they over-approximate the invariant just enough
to be cheap and predictable, and the escape hatch for a justified
exception is an inline ``# lint: disable=RULE-ID`` with a comment
explaining *why* the invariant holds anyway.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import FileContext, Finding, ProjectRule, Rule
from repro.lint.project_rules import PROJECT_RULES

__all__ = ["ALL_RULES", "RULES_BY_ID", "Rule", "ProjectRule"]

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin for every import in the module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def _call_origin(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted origin of a call target, resolved through import aliases.

    ``perf_counter()`` with ``from time import perf_counter`` resolves
    to ``time.perf_counter``; ``t.monotonic()`` with ``import time as
    t`` resolves to ``time.monotonic``; ``datetime.datetime.now()``
    resolves through the two-level attribute chain.  Returns None for
    anything not reachable from an import (locals, methods on self).
    """
    func = node.func
    if isinstance(func, ast.Name):
        return aliases.get(func.id)
    parts: List[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name) and func.id in aliases:
        return ".".join([aliases[func.id]] + parts[::-1])
    return None


def _terminal_name(node: ast.expr) -> Optional[str]:
    """Rightmost identifier of a Name/Attribute chain (``self._tracer``
    -> ``_tracer``); None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _expr_key(node: ast.expr) -> str:
    """Structural key for comparing receiver expressions textually."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all exprs we meet
        return ast.dump(node)


# ---------------------------------------------------------------------------
# DET01 — wall clock in the simulated domain
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    """DET01: the simulated domain must not read the wall clock.

    Simulated results flow into payload sha256s and runner cache keys;
    a wall-clock read anywhere in ``sim/hw/core/net/nf/cluster/exp``
    makes two identical specs produce different bytes.  Orchestration
    zones (``runner``, ``obs``, ``cli``, ``bench``) report wall time
    legitimately and are allowlisted.
    """

    rule_id = "DET01"
    summary = "no wall-clock reads (time.*, datetime.now) in sim-domain packages"

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_sim_domain and not ctx.in_wall_clock_zone

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = _call_origin(node, aliases)
            if origin in _WALL_CLOCK_CALLS:
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"wall-clock read {origin}() in sim-domain package "
                    f"'{ctx.package}'; simulated results must depend only on "
                    "the spec (use sim.now, or move reporting into "
                    "runner/obs)",
                )


# ---------------------------------------------------------------------------
# DET02 — randomized hash() / unordered-set iteration
# ---------------------------------------------------------------------------

_SET_CONSTRUCTORS = {"set", "frozenset"}


class RandomizedHashRule(Rule):
    """DET02: no ``builtins.hash()`` and no direct iteration over sets.

    ``hash(str)`` is salted per interpreter invocation (PYTHONHASHSEED)
    and ``hash(object)`` is id-based, so any placement or scheduling
    decision derived from them differs between two runs of the same
    spec.  Set iteration order is likewise unordered.  Use
    ``zlib.crc32`` over a canonical encoding, and ``sorted(...)``
    before iterating a set.
    """

    rule_id = "DET02"
    summary = "no builtins.hash() or unordered-set iteration in sim-domain code"

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_sim_domain and not ctx.in_wall_clock_zone

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id == "hash"
                    and func.id not in aliases
                ):
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        "builtins.hash() is randomized per interpreter "
                        "invocation (PYTHONHASHSEED) and id-based for "
                        "objects; use zlib.crc32 over a canonical encoding",
                    )
            elif isinstance(node, ast.For):
                yield from self._check_iter(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    yield from self._check_iter(ctx, gen.iter)

    def _check_iter(self, ctx: FileContext, it: ast.expr) -> Iterator[Finding]:
        unordered = isinstance(it, (ast.Set, ast.SetComp)) or (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id in _SET_CONSTRUCTORS
        )
        if unordered:
            yield ctx.finding(
                it,
                self.rule_id,
                "iteration over an unordered set; wrap in sorted(...) so "
                "visit order (and anything scheduled from it) is "
                "deterministic",
            )


# ---------------------------------------------------------------------------
# DET03 — global / unseeded randomness outside sim.rng
# ---------------------------------------------------------------------------

_GLOBAL_RANDOM_FNS: Set[str] = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate", "seed",
    "getrandbits", "randbytes", "binomialvariate",
}


class GlobalRandomRule(Rule):
    """DET03: stochastic draws come from seeded streams, never the
    process-global ``random`` state or an unseeded ``Random()``.

    The module-level ``random.*`` functions share one hidden global
    generator: any library or test that also draws from it perturbs
    every subsequent simulated draw.  ``random.Random()`` without a
    seed keys off the OS entropy pool.  ``sim.rng`` is the one module
    allowed to construct streams; everything else takes a
    ``RngRegistry`` stream (or an explicit seeded ``Random(seed)``).
    """

    rule_id = "DET03"
    summary = "no global random.* or unseeded Random() outside sim.rng"

    def applies(self, ctx: FileContext) -> bool:
        return (
            ctx.in_sim_domain
            and not ctx.in_wall_clock_zone
            and not ctx.is_rng_home
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = _call_origin(node, aliases)
            if origin is None:
                continue
            if origin == "random.Random":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        "unseeded random.Random() draws from OS entropy; "
                        "pass an explicit seed (ideally via a "
                        "sim.rng.RngRegistry stream)",
                    )
            elif origin == "random.SystemRandom":
                yield ctx.finding(
                    node,
                    self.rule_id,
                    "random.SystemRandom is OS entropy by design and can "
                    "never be reproduced; use a seeded RngRegistry stream",
                )
            elif (
                origin.startswith("random.")
                and origin.split(".", 1)[1] in _GLOBAL_RANDOM_FNS
            ):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"{origin}() uses the process-global RNG shared with "
                    "every other caller; draw from a named "
                    "sim.rng.RngRegistry stream instead",
                )


# ---------------------------------------------------------------------------
# DET04 — float-accumulation order over unordered iterables
# ---------------------------------------------------------------------------


class FloatAccumulationRule(Rule):
    """DET04: folds must run in a stated order, not a container's.

    Float addition is not associative: ``sum()`` over a ``set`` (order
    depends on PYTHONHASHSEED and insertion history) or a ``+=`` loop
    over one can differ in the last ulp between runs — which the
    payload-identity gates amplify into a full sha mismatch.  PR 9
    documented the power-integrator case: its per-station sums are
    float-order-sensitive, so the *insertion order* of the dicts being
    summed is part of the snapshot contract.

    The rule flags ``sum(...)`` and ``for ...: acc += ...`` whose
    iterable is a set (literal, comprehension, ``set()``/
    ``frozenset()``) or a ``.values()`` view, in sim-domain packages.
    ``dict.values()`` *is* insertion-ordered — the rule still flags it
    because the order is an implicit contract the reader cannot see at
    the fold; the fix is ``sorted(...)`` / ``math.fsum`` where the
    order is incidental, and a ``# lint: disable=DET04`` exemption
    stating the contract where it is load-bearing (integer counters,
    or an order the snapshot format pins).
    """

    rule_id = "DET04"
    summary = (
        "no float accumulation (sum/+=) over sets or .values() views in "
        "sim-domain code"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_sim_domain and not ctx.in_wall_clock_zone

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id == "sum"
                    and func.id not in aliases
                    and node.args
                ):
                    reason = self._unordered(node.args[0])
                    if reason is not None:
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            f"sum() over {reason}: float addition is not "
                            "associative, so the container's iteration "
                            "order becomes part of the result — iterate "
                            "sorted(...) (or state the order contract with "
                            "an exemption)",
                        )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                reason = self._unordered(node.iter)
                if reason is None:
                    continue
                if any(
                    isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.Add)
                    for body_stmt in node.body
                    for sub in ast.walk(body_stmt)
                ):
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"+= accumulation over {reason}: float addition is "
                        "not associative, so the container's iteration "
                        "order becomes part of the result — iterate "
                        "sorted(...) (or state the order contract with an "
                        "exemption)",
                    )

    def _unordered(self, it: ast.expr) -> Optional[str]:
        """Describe why the iterable's order is a hidden input, if so."""
        if isinstance(it, (ast.Set, ast.SetComp)):
            return "a set"
        if isinstance(it, ast.Call):
            if isinstance(it.func, ast.Name) and it.func.id in _SET_CONSTRUCTORS:
                return f"{it.func.id}(...)"
            if isinstance(it.func, ast.Attribute) and it.func.attr == "values":
                return "a .values() view"
        if isinstance(it, ast.GeneratorExp) and it.generators:
            return self._unordered(it.generators[0].iter)
        return None


# ---------------------------------------------------------------------------
# MUT01 — mutable / config-object default arguments
# ---------------------------------------------------------------------------

_IMMUTABLE_DEFAULT_FACTORIES = {"tuple", "frozenset"}


class MutableDefaultRule(Rule):
    """MUT01: default arguments are evaluated once at ``def`` time.

    A mutable literal (``[]``, ``{}``) is shared by every call; a call
    default (``LbpConfig()``) builds one shared instance — exactly the
    bug PR 4 hot-fixed twice when two systems in one rack mutated the
    same ``LbpConfig``/``PowerConfig``.  Use ``None`` and construct in
    the body.
    """

    rule_id = "MUT01"
    summary = "no mutable or config-object (call) default arguments"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                defaults = list(args.defaults) + [
                    d for d in args.kw_defaults if d is not None
                ]
                for default in defaults:
                    message = self._diagnose(default)
                    if message is not None:
                        yield ctx.finding(default, self.rule_id, message)

    def _diagnose(self, default: ast.expr) -> Optional[str]:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            kind = type(default).__name__.lower()
            return (
                f"mutable {kind} literal default is shared across calls; "
                "use None and construct in the body"
            )
        if isinstance(default, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return (
                "comprehension default is evaluated once and shared across "
                "calls; use None and construct in the body"
            )
        if isinstance(default, ast.Call):
            func = default.func
            if (
                isinstance(func, ast.Name)
                and func.id in _IMMUTABLE_DEFAULT_FACTORIES
            ):
                return None
            name = _terminal_name(func) or "<call>"
            return (
                f"call default {name}(...) builds one shared instance at "
                "def time (the shared-LbpConfig/PowerConfig bug class); "
                "use None and construct in the body"
            )
        return None


# ---------------------------------------------------------------------------
# OBS01 — unguarded tracer emission in hot paths
# ---------------------------------------------------------------------------

_EMISSION_METHODS = {"instant", "counter", "span"}


class UnguardedTracerRule(Rule):
    """OBS01: tracer emission must sit behind an ``is not None`` guard.

    The PR 3 contract: untraced runs carry ``tracer = None`` and every
    hot-path emission costs exactly one pointer comparison.  An
    unguarded ``tracer.counter(...)`` either crashes untraced runs or
    (worse) tempts someone to install a do-nothing tracer object, which
    the bench gate would charge for on every event.
    """

    rule_id = "OBS01"
    summary = "tracer emission (.instant/.counter/.span) needs an `is not None` guard"

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_sim_domain and not ctx.in_wall_clock_zone

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # _check_block recurses into nested functions/classes itself, so
        # one walk from the module body visits every statement once
        yield from self._check_block(ctx, ctx.tree.body, set())

    # -- guard-aware statement walk ---------------------------------
    def _check_block(
        self,
        ctx: FileContext,
        statements: Sequence[ast.stmt],
        guarded: Set[str],
    ) -> Iterator[Finding]:
        guarded = set(guarded)
        for stmt in statements:
            if isinstance(stmt, ast.If):
                pos, neg = self._guard_targets(stmt.test)
                yield from self._check_block(ctx, stmt.body, guarded | pos)
                yield from self._check_block(ctx, stmt.orelse, guarded | neg)
                # `if tracer is None: return` guards the rest of the block
                if neg and not stmt.orelse and self._diverges(stmt.body):
                    guarded |= neg
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_block(ctx, list(stmt.body), set())
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._check_block(ctx, list(stmt.body), set())
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                yield from self._check_block(ctx, list(stmt.body) + list(stmt.orelse), guarded)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                yield from self._check_block(ctx, stmt.body, guarded)
                continue
            if isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    yield from self._check_block(ctx, block, guarded)
                for handler in stmt.handlers:
                    yield from self._check_block(ctx, handler.body, guarded)
                continue
            yield from self._check_statement(ctx, stmt, guarded)

    def _check_statement(
        self, ctx: FileContext, stmt: ast.stmt, guarded: Set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _EMISSION_METHODS:
                continue
            receiver = func.value
            name = _terminal_name(receiver)
            if name is None or "tracer" not in name.lower():
                continue
            if _expr_key(receiver) in guarded:
                continue
            yield ctx.finding(
                node,
                self.rule_id,
                f"tracer emission {_expr_key(receiver)}.{func.attr}(...) "
                "is not behind an `is not None` guard; untraced runs keep "
                "tracer=None and must pay exactly one branch here",
            )

    @staticmethod
    def _guard_targets(test: ast.expr) -> Tuple[Set[str], Set[str]]:
        """(guarded-in-body, guarded-in-orelse) receiver keys of a test.

        ``x is not None`` guards the body; ``x is None`` guards the
        orelse (and, when the body diverges, the rest of the block).
        ``and``-conjunctions contribute each clause's body guards.
        """
        pos: Set[str] = set()
        neg: Set[str] = set()
        clauses = (
            test.values
            if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And)
            else [test]
        )
        for clause in clauses:
            if (
                isinstance(clause, ast.Compare)
                and len(clause.ops) == 1
                and isinstance(clause.comparators[0], ast.Constant)
                and clause.comparators[0].value is None
            ):
                key = _expr_key(clause.left)
                if isinstance(clause.ops[0], ast.IsNot):
                    pos.add(key)
                elif isinstance(clause.ops[0], ast.Is):
                    neg.add(key)
        return pos, neg

    @staticmethod
    def _diverges(body: Sequence[ast.stmt]) -> bool:
        return bool(body) and isinstance(
            body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
        )


# ---------------------------------------------------------------------------
# UNIT01 — unit-suffix consistency
# ---------------------------------------------------------------------------

_UNIT_FAMILIES: Dict[str, str] = {
    # time
    "s": "time", "ms": "time", "us": "time", "ns": "time",
    # power
    "w": "power", "mw": "power", "kw": "power",
}

_UNIT_RE = re.compile(r"^[A-Za-z0-9_]*[A-Za-z0-9]_([A-Za-z]{1,2})$")

#: power-of-ten constants that signal a deliberate unit conversion
_CONVERSION_CONSTANTS = {
    1e3, 1e6, 1e9, 1e-3, 1e-6, 1e-9,
    1000.0, 1_000_000.0, 1_000_000_000.0,
}


def _unit_of(identifier: Optional[str]) -> Optional[Tuple[str, str]]:
    """(family, unit) for a suffixed identifier, else None."""
    if not identifier:
        return None
    match = _UNIT_RE.match(identifier)
    if not match:
        return None
    unit = match.group(1).lower()
    family = _UNIT_FAMILIES.get(unit)
    return (family, unit) if family else None


class UnitSuffixRule(Rule):
    """UNIT01: assignments must not silently mix unit suffixes.

    ``latency_us = base_s + overhead_us`` is a 10^6 error the type
    system cannot see; the suffix convention (``*_s``, ``*_us``,
    ``*_w``) is the only unit annotation this codebase has.  A
    differing suffix is allowed when the expression visibly converts
    (multiplies/divides by a power of ten such as 1e6).
    """

    rule_id = "UNIT01"
    summary = "assignments must not mix *_s/*_us/*_w-style unit suffixes unconverted"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            yield from self._check_mixing(ctx, node, value)
            for target in targets:
                yield from self._check_target(ctx, node, target, value)

    def _rhs_units(self, value: ast.expr) -> Set[Tuple[str, str]]:
        units: Set[Tuple[str, str]] = set()
        for node in ast.walk(value):
            if isinstance(node, (ast.Name, ast.Attribute)):
                unit = _unit_of(_terminal_name(node))
                if unit:
                    units.add(unit)
        return units

    def _has_conversion(self, value: ast.expr) -> bool:
        for node in ast.walk(value):
            if isinstance(node, ast.Constant) and isinstance(
                node.value, (int, float)
            ):
                if float(node.value) in _CONVERSION_CONSTANTS:
                    return True
        return False

    def _check_target(
        self,
        ctx: FileContext,
        stmt: ast.stmt,
        target: ast.expr,
        value: ast.expr,
    ) -> Iterator[Finding]:
        target_unit = _unit_of(_terminal_name(target))
        if target_unit is None:
            return
        family, unit = target_unit
        rhs = {u for u in self._rhs_units(value) if u[0] == family}
        mismatched = {u for f, u in rhs if u != unit}
        if mismatched and not self._has_conversion(value):
            yield ctx.finding(
                stmt,
                self.rule_id,
                f"assignment to *_{unit} mixes *_{'/*_'.join(sorted(mismatched))} "
                "on the right-hand side without a visible power-of-ten "
                "conversion (e.g. * 1e6)",
            )

    def _check_mixing(
        self, ctx: FileContext, stmt: ast.stmt, value: ast.expr
    ) -> Iterator[Finding]:
        """Adding/subtracting two different suffixes of one family is
        wrong regardless of the target's name."""
        for node in ast.walk(value):
            if not isinstance(node, ast.BinOp) or not isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                continue
            left = {
                u for u in self._rhs_units(node.left) if u[0] in ("time", "power")
            }
            right = {
                u for u in self._rhs_units(node.right) if u[0] in ("time", "power")
            }
            for family in ("time", "power"):
                lu = {u for f, u in left if f == family}
                ru = {u for f, u in right if f == family}
                if lu and ru and lu != ru and not self._has_conversion(node):
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"adding/subtracting mixed {family} units "
                        f"(*_{'/*_'.join(sorted(lu))} vs "
                        f"*_{'/*_'.join(sorted(ru))}) without a conversion",
                    )
                    return


#: registry, in reporting order: per-file families, then the phase-2
#: project families (SNAP01/BAR01) from project_rules
ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    RandomizedHashRule(),
    GlobalRandomRule(),
    FloatAccumulationRule(),
    MutableDefaultRule(),
    UnguardedTracerRule(),
    UnitSuffixRule(),
) + PROJECT_RULES

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
