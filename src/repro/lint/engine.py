"""Lint driver: file contexts, suppression comments, two-phase dispatch.

The engine owns everything that is not rule logic: discovering files,
parsing, mapping paths onto the repo's package domains (sim-domain vs
allowlisted wall-clock zones), collecting ``# lint: disable=RULE-ID``
comments, and filtering findings through them.

The run is **two-phase**.  Phase 1 visits every file once: it runs
the per-file rules (each receives a :class:`FileContext`) and
summarises the file into an AST-free
:class:`~repro.lint.index.ModuleSummary`.  Phase 2 merges the
summaries into a :class:`~repro.lint.index.SymbolIndex` and runs the
*project* rules (:class:`ProjectRule`), which see the whole tree at
once: snapshot completeness and the barrier protocol.  A project
finding is filtered through the suppression map of the file it *points
at*, so an exemption lives next to the field or access it excuses.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.index import ModuleSummary, SymbolIndex, summarize_module

#: first path component after ``repro`` that puts a module in the
#: simulated domain, where wall clock / randomized hashing / global
#: randomness are forbidden (they would leak into payload bytes and
#: therefore into cache keys and identity shas)
SIM_DOMAIN_PACKAGES: FrozenSet[str] = frozenset(
    {
        "sim", "hw", "core", "net", "nf", "cluster", "exp", "flow", "fabric",
        "bench", "serve",
    }
)

#: packages/modules allowed to read the wall clock: orchestration and
#: telemetry code that reports wall time but never feeds it back into
#: simulated results
WALL_CLOCK_ZONES: FrozenSet[str] = frozenset(
    {"runner", "obs", "cli", "__main__", "lint"}
)

#: the one module allowed to construct raw ``random`` streams — it is
#: the seed-derivation root everything else draws through
RNG_HOME: Tuple[str, ...] = ("sim", "rng")

_DISABLE_MARKER = "lint:"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class Rule:
    """Per-file rule: ``applies(ctx)`` + ``check(ctx)`` over one file."""

    rule_id: str = ""
    summary: str = ""
    #: project rules run in phase 2 against the merged index
    is_project: bool = False

    def applies(self, ctx: "FileContext") -> bool:
        return True

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def explain(self) -> str:
        """Long-form rationale shown by ``--explain`` (the docstring)."""
        import inspect

        doc = inspect.getdoc(self) or self.summary
        return doc


class ProjectRule(Rule):
    """Cross-module rule: consumes the phase-2 :class:`SymbolIndex`.

    ``check_project`` may yield findings located in *any* analyzed
    file; the engine applies that file's suppression map, so
    ``# lint: disable=`` works at the field definition or access site
    the finding points at, exactly like a per-file finding.
    """

    is_project = True

    def check(self, ctx: "FileContext") -> Iterator[Finding]:  # pragma: no cover
        return iter(())

    def check_project(self, index: SymbolIndex) -> Iterator[Finding]:
        raise NotImplementedError


class FileContext:
    """Everything a per-file rule may ask about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path.replace(os.sep, "/")
        self.source = source
        self.tree = tree
        self.module_parts = _module_parts(self.path)

    # -- package-domain queries -------------------------------------
    @property
    def package(self) -> str:
        """First path component under ``repro`` ('' when not in repro)."""
        return self.module_parts[0] if self.module_parts else ""

    @property
    def in_sim_domain(self) -> bool:
        return self.package in SIM_DOMAIN_PACKAGES

    @property
    def in_wall_clock_zone(self) -> bool:
        return self.package in WALL_CLOCK_ZONES or not self.module_parts

    @property
    def is_rng_home(self) -> bool:
        return self.module_parts == RNG_HOME

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


def _module_parts(path: str) -> Tuple[str, ...]:
    """Path components below the innermost ``repro`` package, module
    name last and without extension; empty when not under ``repro``."""
    parts = path.split("/")
    if "repro" not in parts:
        return ()
    below = parts[len(parts) - 1 - parts[::-1].index("repro"):][1:]
    if not below:
        return ()
    module = below[-1]
    if module.endswith(".py"):
        module = module[:-3]
    return tuple(below[:-1]) + (module,)


def suppressed_rules(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids disabled on that line.

    Recognises ``# lint: disable=RULE-ID[,RULE-ID...]`` (and
    ``disable=all``) anywhere in a comment, via :mod:`tokenize` so
    string literals that merely *contain* the marker are ignored.
    Unreadable sources yield no suppressions rather than an error.
    """
    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith(_DISABLE_MARKER):
                continue
            directive = text[len(_DISABLE_MARKER):].strip()
            if not directive.startswith("disable="):
                continue
            spec = directive[len("disable="):].split()[0]
            rules = {r.strip().upper() for r in spec.split(",") if r.strip()}
            if rules:
                out.setdefault(tok.start[0], set()).update(rules)
                # a comment-only line suppresses the *next* line, so a
                # justification can sit above a long statement instead
                # of stretching it past the line-length limit
                if tok.line.strip().startswith("#"):
                    out.setdefault(tok.start[0] + 1, set()).update(rules)
    except tokenize.TokenError:
        pass
    return out


def _expand_scoped(
    tree: ast.Module, suppressions: Dict[int, Set[str]]
) -> Dict[int, Set[str]]:
    """A suppression on a ``def``/``class`` line covers the whole body.

    Per-line suppression is right for one deliberate call, but a
    tracer-only helper (e.g. a probe pump installed behind the single
    ``is not None`` branch) is exempt as a unit — annotating each
    emission line would drown the justification in noise.
    """
    if not suppressions:
        return suppressions
    expanded: Dict[int, Set[str]] = {k: set(v) for k, v in suppressions.items()}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        rules = suppressions.get(node.lineno)
        if not rules:
            continue
        end = getattr(node, "end_lineno", node.lineno) or node.lineno
        for line in range(node.lineno, end + 1):
            expanded.setdefault(line, set()).update(rules)
    return expanded


def _is_suppressed(finding: Finding, suppressions: Dict[int, Set[str]]) -> bool:
    rules = suppressions.get(finding.line)
    if not rules:
        return False
    return "ALL" in rules or finding.rule in rules


# ---------------------------------------------------------------------------
# phase 1: per-file analysis
# ---------------------------------------------------------------------------


@dataclass
class FileAnalysis:
    """Everything phase 1 learns about one file — AST-free."""

    path: str
    #: per-file rule findings, already suppression-filtered
    findings: List[Finding] = field(default_factory=list)
    #: expanded line -> disabled-rule-ids map, for phase-2 filtering
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    summary: Optional[ModuleSummary] = None


def _split_rules(
    rules: Optional[Sequence[Rule]],
) -> Tuple[List[Rule], List[Rule]]:
    from repro.lint.rules import ALL_RULES

    selected = list(ALL_RULES if rules is None else rules)
    return (
        [r for r in selected if not r.is_project],
        [r for r in selected if r.is_project],
    )


def analyze_source(
    source: str,
    path: str,
    per_file_rules: Sequence[Rule],
) -> FileAnalysis:
    """Run phase 1 on one source string: per-file rules + summary."""
    tree = ast.parse(source, filename=path)
    ctx = FileContext(path, source, tree)
    suppressions = _expand_scoped(tree, suppressed_rules(source))
    findings: List[Finding] = []
    for rule in per_file_rules:
        if not rule.applies(ctx):
            continue
        findings.extend(rule.check(ctx))
    findings = [f for f in findings if not _is_suppressed(f, suppressions)]
    return FileAnalysis(
        path=ctx.path,
        findings=findings,
        suppressions=suppressions,
        summary=summarize_module(tree, ctx.path, ctx.module_parts),
    )


def _read_and_analyze(
    path: str, root: str, per_file_rules: Sequence[Rule]
) -> FileAnalysis:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    return analyze_source(source, rel, per_file_rules)


# ---------------------------------------------------------------------------
# phase 2: project rules over the merged index
# ---------------------------------------------------------------------------


def _project_findings(
    analyses: Sequence[FileAnalysis],
    project_rules: Sequence[Rule],
) -> List[Finding]:
    if not project_rules:
        return []
    index = SymbolIndex([a.summary for a in analyses if a.summary is not None])
    by_path = {a.path: a.suppressions for a in analyses}
    findings: List[Finding] = []
    for rule in project_rules:
        assert isinstance(rule, ProjectRule)
        for finding in rule.check_project(index):
            if not _is_suppressed(finding, by_path.get(finding.path, {})):
                findings.append(finding)
    return findings


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one source string as if it lived at ``path``.

    ``path`` drives the domain logic (sim-domain vs wall-clock zone),
    which is what makes the fixture corpus in the test suite able to
    exercise allowlist boundaries without touching the real tree.
    Project rules run against an index built from this one file, so a
    self-contained fixture (walker + component class in one module)
    exercises them too.
    """
    per_file, project = _split_rules(rules)
    analysis = analyze_source(source, path, per_file)
    findings = list(analysis.findings)
    findings.extend(_project_findings([analysis], project))
    findings.sort(key=Finding.sort_key)
    return findings


def lint_file(
    path: str,
    root: str = ".",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one file; finding paths are relative to ``root``."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    return lint_source(source, rel, rules=rules)


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                    and not d.endswith(".egg-info")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            found.append(path)
    return found


def lint_paths(
    paths: Sequence[str],
    root: str = ".",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    per_file, project = _split_rules(rules)
    analyses = [
        _read_and_analyze(path, root, per_file) for path in discover_files(paths)
    ]
    findings: List[Finding] = []
    for analysis in analyses:
        findings.extend(analysis.findings)
    findings.extend(_project_findings(analyses, project))
    findings.sort(key=Finding.sort_key)
    return findings
