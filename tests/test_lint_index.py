"""Unit tests for the phase-1 symbol index (repro.lint.index)."""

import ast
import pickle
import textwrap

from repro.lint.index import (
    SymbolIndex,
    normalize_type,
    summarize_module,
)


def summarize(source, path="src/repro/sim/example.py"):
    tree = ast.parse(textwrap.dedent(source))
    parts = tuple(path.split("/")[2:-1]) + (path.split("/")[-1][:-3],)
    return summarize_module(tree, path, parts)


class TestNormalizeType:
    def test_plain(self):
        assert normalize_type("FlowStation") == "FlowStation"

    def test_optional_unwrap(self):
        assert normalize_type("Optional[ShardedRunner]") == "ShardedRunner"
        assert normalize_type("typing.Optional[X]") == "X"

    def test_pep604_union_with_none(self):
        assert normalize_type("ShardedRunner | None") == "ShardedRunner"

    def test_string_annotation(self):
        assert normalize_type("'RackShard'") == "RackShard"

    def test_none_passthrough(self):
        assert normalize_type(None) is None


class TestClassSummary:
    SRC = """
    from collections import deque

    class Station:
        kind = "flow"

        def __init__(self, name):
            self.name = name
            self.backlog = 0
            self._ring = deque()

        def advance(self):
            self.backlog += 1
            self._ring.append(self.backlog)

        def reset(self):
            self.backlog = 0
    """

    def test_attr_inventory_and_mutability(self):
        cls = summarize(self.SRC).classes["Station"]
        assert set(cls.attrs) == {"kind", "name", "backlog", "_ring"}
        assert cls.attrs["backlog"].mutable          # += outside __init__
        assert cls.attrs["_ring"].mutable            # mutator .append()
        assert not cls.attrs["name"].mutable         # init-only
        assert not cls.attrs["kind"].mutable         # class-level constant

    def test_definition_site_is_init_line(self):
        src_lines = textwrap.dedent(self.SRC).splitlines()
        cls = summarize(self.SRC).classes["Station"]
        line = cls.attrs["backlog"].line
        assert "self.backlog = name" not in src_lines[line - 1]
        assert "self.backlog" in src_lines[line - 1]

    def test_frozen_dataclass_flag(self):
        src = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Config:
            rate: float = 1.0

        @dataclass
        class Mutable:
            count: int = 0
        """
        summary = summarize(src)
        assert summary.classes["Config"].frozen
        assert not summary.classes["Mutable"].frozen


class TestFunctionSummary:
    def test_param_annotations_and_accesses(self):
        summary = summarize(
            """
            def walk(station: "Station", depth=1):
                return {"backlog": station.backlog, "name": station.name}
            """
        )
        fn = summary.functions["walk"]
        assert fn.first_param() == ("station", "'Station'")
        assert {a.attr for a in fn.accesses if a.root == "station"} == {
            "backlog",
            "name",
        }

    def test_subscript_store_and_mutator_are_writes(self):
        summary = summarize(
            """
            class T:
                def m(self):
                    self.jobs["a"] = 1
                    self.order.append("a")
                    n = self.jobs.get("a")
                    return n
            """
        )
        fn = summary.functions["T.m"]
        kinds = {(a.attr, a.kind) for a in fn.accesses if a.root == "self"}
        assert ("jobs", "write") in kinds
        assert ("order", "write") in kinds
        assert ("jobs", "read") in kinds  # .get() is a read

    def test_typed_local_from_constructor(self):
        summary = summarize(
            """
            from repro.fabric.control import FleetBalancer

            def run():
                balancer = FleetBalancer()
                return balancer.split()
            """
        )
        fn = summary.functions["run"]
        assert fn.typed_locals["balancer"] == "FleetBalancer"

    def test_intraclass_call_edges(self):
        summary = summarize(
            """
            class T:
                def __init__(self):
                    self._load()

                def _load(self):
                    pass
            """
        )
        assert "self._load" in summary.functions["T.__init__"].calls


class TestSymbolIndex:
    def test_resolve_type_same_module_and_import(self):
        local = summarize(
            """
            class Here:
                pass
            """,
            path="src/repro/flow/station.py",
        )
        user = summarize(
            """
            from repro.flow.station import Here

            def walk(h: Here):
                return h
            """,
            path="src/repro/serve/state.py",
        )
        index = SymbolIndex([local, user])
        key = index.resolve_type(("serve", "state"), "Here")
        assert key == (("flow", "station"), "Here")
        assert index.get_class(key).name == "Here"
        assert index.resolve_type(("flow", "station"), "Here") == key

    def test_resolve_type_optional_of_import(self):
        user = summarize(
            """
            from repro.runner.sharded import ShardedRunner

            def run(runner: ShardedRunner):
                return runner
            """,
            path="src/repro/fabric/system.py",
        )
        index = SymbolIndex([user])
        assert index.resolve_type(
            ("fabric", "system"), "Optional[ShardedRunner]"
        ) == (("runner", "sharded"), "ShardedRunner")

    def test_resolve_unknown_is_none(self):
        index = SymbolIndex([summarize("x = 1\n")])
        assert index.resolve_type(("sim", "example"), "Dict[str, int]") is None
        assert index.resolve_type(("sim", "example"), "Any") is None

    def test_resolve_local_self(self):
        summary = summarize(
            """
            class T:
                def m(self):
                    return self.x
            """
        )
        index = SymbolIndex([summary])
        fn = summary.functions["T.m"]
        assert index.resolve_local(fn, "self") == (("sim", "example"), "T")

    def test_summaries_are_picklable(self):
        summary = summarize(
            """
            class T:
                def __init__(self):
                    self.n = 0

                def bump(self):
                    self.n += 1
            """
        )
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.classes["T"].attrs["n"].mutable
        assert clone.functions["T.bump"].accesses
