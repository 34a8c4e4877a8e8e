"""Project-wide symbol index: phase 1 of the two-phase lint engine.

The per-file rules (DET01..UNIT01) are deliberately local — one file in,
findings out.  The bug classes PRs 7–9 introduced are not local: a
snapshot walker in ``serve/state.py`` that misses a field *defined in
another module*, fleet-control state touched outside the epoch barrier.
Seeing those requires a model of the whole tree.

This module builds that model.  :func:`summarize_module` walks one
parsed file and produces a :class:`ModuleSummary` — classes with their
attribute inventories (definition site, mutated-outside-``__init__``
evidence), functions with parameter annotations, attribute accesses
(read/write/call) and intraclass call edges.  Everything in a summary
is plain data.  The summaries merge into a :class:`SymbolIndex`, which
phase-2 project rules query; no AST survives into phase 2.

The index is an over-approximation on the same terms as the rules: it
resolves types through explicit annotations, ``Optional[...]``
unwrapping, and ``x = ClassName(...)`` constructor assignments — never
through inference.  What it cannot resolve it omits, and the rules stay
silent rather than guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ModuleParts = Tuple[str, ...]
ClassKey = Tuple[ModuleParts, str]

#: method names that mutate their receiver in place; a call
#: ``self.attr.append(x)`` is a *write* to ``attr`` for every rule that
#: cares about mutation (snapshot completeness)
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "discard", "add", "pop",
        "popitem", "clear", "update", "setdefault", "sort", "reverse",
        "popleft", "appendleft",
    }
)


def import_aliases(tree: ast.Module) -> Dict[str, str]:
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


def normalize_type(annotation: Optional[str]) -> Optional[str]:
    """Reduce an annotation string to its payload class name.

    ``Optional[FlowStation]`` / ``typing.Optional[FlowStation]`` /
    ``'FlowStation'`` / ``FlowStation | None`` all become
    ``FlowStation``; genuinely generic or unknown shapes pass through
    unchanged (resolution will simply fail for them).
    """
    if annotation is None:
        return None
    text = annotation.strip().strip("'\"").strip()
    for prefix in ("typing.Optional[", "Optional["):
        if text.startswith(prefix) and text.endswith("]"):
            return normalize_type(text[len(prefix):-1])
    if "|" in text:
        arms = [a.strip() for a in text.split("|") if a.strip() != "None"]
        if len(arms) == 1:
            return normalize_type(arms[0])
        return text
    return text or None


@dataclass(frozen=True)
class AttrAccess:
    """One ``<root>.<attr>`` touch inside a function body.

    ``root`` is ``self`` or a parameter/local name; ``kind`` is
    ``read``/``write``/``call``.
    """

    root: str
    attr: str
    line: int
    col: int
    kind: str


@dataclass(frozen=True)
class AttrDef:
    """Where a class attribute is defined, and whether it is mutable
    state (written anywhere outside ``__init__``)."""

    name: str
    line: int
    col: int
    mutable: bool


@dataclass
class FunctionSummary:
    """Picklable digest of one function or method body."""

    name: str
    qualname: str
    module: ModuleParts
    path: str
    line: int
    cls: Optional[str] = None
    #: (param name, annotation source text or None), ``self``/``cls`` kept
    params: Tuple[Tuple[str, Optional[str]], ...] = ()
    #: local/param name -> annotation or constructor class text
    typed_locals: Dict[str, str] = field(default_factory=dict)
    accesses: Tuple[AttrAccess, ...] = ()
    #: ``self.meth`` intraclass edges and bare-name module-level calls
    calls: Tuple[str, ...] = ()

    def first_param(self) -> Optional[Tuple[str, Optional[str]]]:
        for name, annotation in self.params:
            if name not in ("self", "cls"):
                return (name, annotation)
        return None


@dataclass
class ClassSummary:
    """Picklable digest of one class definition."""

    name: str
    module: ModuleParts
    path: str
    line: int
    frozen: bool = False
    attrs: Dict[str, AttrDef] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything phase 2 may ask about one source file."""

    module: ModuleParts
    path: str
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: qualname ("func" or "Class.method") -> summary
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# per-function body scan
# ---------------------------------------------------------------------------


class _BodyScan:
    """Collect accesses/calls from one function body.

    A hand-rolled recursive walk (mirroring OBS01's) rather than a flat
    ``ast.walk``, so each attribute chain is recorded once, at its
    first hop off the root, with the kind its position gives it.
    """

    def __init__(self) -> None:
        self.accesses: List[AttrAccess] = []
        self.calls: List[str] = []
        self.typed_locals: Dict[str, str] = {}

    # -- statements --------------------------------------------------
    def walk(self, statements: Sequence[ast.stmt]) -> None:
        for stmt in statements:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._expr(item.context_expr)
                self.walk(stmt.body)
            elif isinstance(stmt, ast.Assign):
                self._assign(stmt.targets, stmt.value)
            elif isinstance(stmt, ast.AnnAssign):
                self._ann_assign(stmt)
            elif isinstance(stmt, ast.AugAssign):
                self._store(stmt.target)
                self._expr(stmt.value)
            elif isinstance(stmt, ast.If):
                self._expr(stmt.test)
                self.walk(stmt.body)
                self.walk(stmt.orelse)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._expr(stmt.iter)
                self.walk(stmt.body)
                self.walk(stmt.orelse)
            elif isinstance(stmt, ast.While):
                self._expr(stmt.test)
                self.walk(stmt.body)
                self.walk(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                self.walk(stmt.body)
                for handler in stmt.handlers:
                    self.walk(handler.body)
                self.walk(stmt.orelse)
                self.walk(stmt.finalbody)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # a closure or local class shares the frame's names
                self.walk(stmt.body)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._expr(child)

    def _assign(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        for target in targets:
            self._store(target)
        self._expr(value)
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                self.typed_locals.setdefault(targets[0].id, value.func.id)

    def _ann_assign(self, stmt: ast.AnnAssign) -> None:
        self._store(stmt.target)
        if isinstance(stmt.target, ast.Name):
            try:
                self.typed_locals.setdefault(stmt.target.id, ast.unparse(stmt.annotation))
            except Exception:  # pragma: no cover - unparse covers real code
                pass
        if stmt.value is not None:
            self._expr(stmt.value)

    def _store(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element)
        elif isinstance(target, ast.Starred):
            self._store(target.value)
        elif isinstance(target, ast.Subscript):
            # ``root.attr[key] = v`` mutates the container held in attr
            if isinstance(target.value, ast.Attribute):
                self._record(target.value, "write")
            else:
                self._expr(target.value)
            self._expr(target.slice)
        elif isinstance(target, ast.Attribute):
            self._record(target, "write")
        # bare Name stores carry no attribute information

    # -- expressions -------------------------------------------------
    def _expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, ast.Attribute):
            self._record(node, "read")
            return
        if isinstance(node, ast.Subscript):
            self._expr(node.value)
            self._expr(node.slice)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter)
                for cond in child.ifs:
                    self._expr(cond)

    def _call(self, node: ast.Call) -> None:
        func = node.func
        chain: List[str] = []
        base = func
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        chain.reverse()
        if isinstance(base, ast.Name) and chain:
            root = base.id
            if len(chain) == 1:
                # root.method(...) — an intraclass edge for self, a
                # state touch for everything else (BAR01 cares)
                self.calls.append(f"{root}.{chain[0]}")
                self._note(root, chain[0], func, "call")
            else:
                kind = "write" if chain[1] in MUTATOR_METHODS else "read"
                self._note(root, chain[0], func, kind)
        elif isinstance(func, ast.Name):
            self.calls.append(func.id)
        else:
            self._expr(func)
        for arg in node.args:
            self._expr(arg)
        for keyword in node.keywords:
            self._expr(keyword.value)

    def _record(self, node: ast.Attribute, kind: str) -> None:
        chain: List[str] = []
        base: ast.expr = node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if not isinstance(base, ast.Name):
            self._expr(base)
            return
        # only the first hop off the root names state we can reason
        # about (``self.cfg.epoch_s`` is a read of ``cfg``)
        attr = chain[-1]
        effective = kind if len(chain) == 1 else "read"
        self._note(base.id, attr, node, effective)

    def _note(self, root: str, attr: str, node: ast.AST, kind: str) -> None:
        self.accesses.append(
            AttrAccess(
                root=root,
                attr=attr,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                kind=kind,
            )
        )


# ---------------------------------------------------------------------------
# module summarisation
# ---------------------------------------------------------------------------


def _annotation_text(node: Optional[ast.expr]) -> Optional[str]:
    if node is None:
        return None
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers real code
        return None


def _summarize_function(
    node: ast.FunctionDef,
    module: ModuleParts,
    path: str,
    cls: Optional[str],
) -> FunctionSummary:
    scan = _BodyScan()
    scan.walk(node.body)
    params: List[Tuple[str, Optional[str]]] = []
    args = node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        params.append((arg.arg, _annotation_text(arg.annotation)))
        annotation = _annotation_text(arg.annotation)
        if annotation is not None:
            scan.typed_locals.setdefault(arg.arg, annotation)
    qualname = f"{cls}.{node.name}" if cls else node.name
    return FunctionSummary(
        name=node.name,
        qualname=qualname,
        module=module,
        path=path,
        line=node.lineno,
        cls=cls,
        params=tuple(params),
        typed_locals=scan.typed_locals,
        accesses=tuple(scan.accesses),
        calls=tuple(scan.calls),
    )


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        target = decorator.func
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass" and any(
            keyword.arg == "frozen"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in decorator.keywords
        ):
            return True
    return False


def _summarize_class(
    node: ast.ClassDef,
    module: ModuleParts,
    path: str,
) -> Tuple[ClassSummary, List[FunctionSummary]]:
    summary = ClassSummary(
        name=node.name,
        module=module,
        path=path,
        line=node.lineno,
        frozen=_frozen_dataclass(node),
    )
    methods: List[FunctionSummary] = []
    attrs: Dict[str, AttrDef] = {}
    mutated: Set[str] = set()

    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            # dataclass field / annotated class attribute
            attrs.setdefault(
                item.target.id,
                AttrDef(item.target.id, item.lineno, item.col_offset + 1, False),
            )
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    attrs.setdefault(
                        target.id,
                        AttrDef(target.id, item.lineno, item.col_offset + 1, False),
                    )
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(item, ast.AsyncFunctionDef):
                continue
            fn = _summarize_function(item, module, path, node.name)
            methods.append(fn)
            for access in fn.accesses:
                if access.root != "self" or access.kind != "write":
                    continue
                if item.name != "__init__":
                    mutated.add(access.attr)
                attrs.setdefault(
                    access.attr,
                    AttrDef(access.attr, access.line, access.col, False),
                )

    summary.attrs = {
        name: AttrDef(d.name, d.line, d.col, name in mutated)
        for name, d in attrs.items()
    }
    return summary, methods


def summarize_module(
    tree: ast.Module, path: str, module: ModuleParts
) -> ModuleSummary:
    """Phase-1 digest of one parsed file (picklable, AST-free)."""
    aliases = import_aliases(tree)
    out = ModuleSummary(module=module, path=path, imports=aliases)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            fn = _summarize_function(node, module, path, None)
            out.functions[fn.qualname] = fn
        elif isinstance(node, ast.ClassDef):
            cls, methods = _summarize_class(node, module, path)
            out.classes[cls.name] = cls
            for fn in methods:
                out.functions[fn.qualname] = fn
    return out


# ---------------------------------------------------------------------------
# the merged index
# ---------------------------------------------------------------------------


class SymbolIndex:
    """Merged view over every :class:`ModuleSummary` in a lint run."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[ModuleParts, ModuleSummary] = {}
        for summary in summaries:
            if not summary.module:
                continue
            existing = self.modules.get(summary.module)
            if existing is None:
                self.modules[summary.module] = summary
            else:  # pragma: no cover - duplicate module paths are a setup bug
                existing.classes.update(summary.classes)
                existing.functions.update(summary.functions)
                existing.imports.update(summary.imports)

    # -- lookups -----------------------------------------------------
    def get_class(self, key: Optional[ClassKey]) -> Optional[ClassSummary]:
        if key is None:
            return None
        module, name = key
        summary = self.modules.get(module)
        return summary.classes.get(name) if summary else None

    def get_function(self, module: ModuleParts, qualname: str) -> Optional[FunctionSummary]:
        summary = self.modules.get(module)
        return summary.functions.get(qualname) if summary else None

    def iter_functions(self) -> Iterator[FunctionSummary]:
        for summary in self.modules.values():
            yield from summary.functions.values()

    def iter_classes(self) -> Iterator[ClassSummary]:
        for summary in self.modules.values():
            yield from summary.classes.values()

    # -- type resolution ---------------------------------------------
    def resolve_type(
        self, module: ModuleParts, annotation: Optional[str]
    ) -> Optional[ClassKey]:
        """Annotation text -> class key, via local classes and imports.

        Returns a key even when the class body is outside the analyzed
        set (rules that only need *identity* — is this a
        ``ShardedRunner``? — still work on partial trees); callers that
        need the attribute inventory check :meth:`get_class`.
        """
        name = normalize_type(annotation)
        if not name or not name[0].isalpha() and name[0] != "_":
            return None
        summary = self.modules.get(module)
        if "." in name:
            root, rest = name.split(".", 1)
            origin = summary.imports.get(root) if summary else None
            if origin is None:
                return dotted_key(name) if name.startswith("repro.") else None
            return dotted_key(f"{origin}.{rest}")
        if summary is not None:
            if name in summary.classes:
                return (module, name)
            origin = summary.imports.get(name)
            if origin is not None:
                return dotted_key(origin)
        return None

    def resolve_local(
        self, fn: FunctionSummary, local: str
    ) -> Optional[ClassKey]:
        """Type of a function-local name (param annotation or
        ``x = ClassName(...)`` constructor assignment)."""
        if local == "self" and fn.cls is not None:
            return (fn.module, fn.cls)
        return self.resolve_type(fn.module, fn.typed_locals.get(local))


def dotted_key(dotted: str) -> Optional[ClassKey]:
    parts = dotted.split(".")
    if "repro" not in parts or len(parts) < 2:
        return None
    below = parts[len(parts) - 1 - parts[::-1].index("repro"):][1:]
    if not below:
        return None
    return (tuple(below[:-1]), below[-1])
