"""``hal-repro lint`` / ``python -m repro.lint`` command line.

Lints the given paths and prints one ``file:line:col RULE-ID message``
line per finding.  A deliberate exception is carried inline with
``# lint: disable=RULE-ID reason``; there is no other way to excuse a
finding.  Exit codes follow the canonical table in EXPERIMENTS.md:
0 — clean; 1 — findings; 2 — usage error (unknown rule id, missing
path, unknown ``--explain`` target).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.lint.engine import Rule, lint_paths
from repro.lint.rules import ALL_RULES, RULES_BY_ID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hal-repro lint",
        description=(
            "Determinism & invariant static analysis for the HAL "
            "reproduction (DET01..BAR01; see docs/ARCHITECTURE.md)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE-ID",
        help="print the long-form rationale for one rule and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule ids and one-line summaries, then exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.summary}")
        return 0

    if args.explain is not None:
        rule = RULES_BY_ID.get(args.explain.strip().upper())
        if rule is None:
            print(
                f"unknown rule id {args.explain!r}; known: "
                f"{' '.join(sorted(RULES_BY_ID))}",
                file=sys.stderr,
            )
            return 2
        print(f"{rule.rule_id} — {rule.summary}\n")
        print(rule.explain())
        return 0

    rules: Optional[List[Rule]] = None
    if args.select:
        wanted = {r.strip().upper() for r in args.select.split(",") if r.strip()}
        unknown = wanted - {rule.rule_id for rule in ALL_RULES}
        if unknown:
            print(f"unknown rule ids: {sorted(unknown)}", file=sys.stderr)
            return 2
        rules = [rule for rule in ALL_RULES if rule.rule_id in wanted]

    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"no such path: {missing}", file=sys.stderr)
        return 2

    findings = lint_paths(args.paths, rules=rules)
    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"{len(findings)} finding(s); suppress a justified exception "
            "with `# lint: disable=RULE-ID reason` or fix the code",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
