#!/usr/bin/env python
"""CI lint ratchet: the committed baseline may only shrink.

Usage: python benchmarks/check_lint_ratchet.py \
           [--baseline lint_baseline.json] [--paths src]

Runs ``hal-repro lint --format=json --no-baseline`` in a subprocess
(the same entry point contributors use) and diffs the per-file,
per-rule finding counts against the committed baseline:

* any count above the baseline          -> FAIL (new determinism debt);
* any count below the baseline          -> FAIL (debt was fixed but the
  baseline was not ratcheted down; run ``hal-repro lint
  --update-baseline`` and commit the shrunken file);
* counts equal everywhere               -> OK.

Failing the *stale* direction is what makes the baseline monotone: it
can never silently re-grow to its old size after a fix lands.

The report's ``rules`` list is also checked against the families the
ratchet is meant to cover (DET, MUT, OBS, UNIT, SNAP, BAR): a
refactor that silently drops a rule family from the default run would
otherwise make the ratchet vacuously green.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).parent.parent
DEFAULT_BASELINE = str(REPO_ROOT / "lint_baseline.json")

#: every rule family the ratchet must see in the default run
REQUIRED_RULES = frozenset({
    "DET01", "DET02", "DET03", "DET04", "MUT01", "OBS01", "UNIT01",
    "SNAP01", "BAR01",
})


def run_lint_json(paths):
    """Invoke the linter CLI and parse its JSON report."""
    import os

    cmd = [
        sys.executable, "-m", "repro.lint",
        *paths, "--format=json", "--no-baseline",
    ]
    src = str(REPO_ROOT / "src")
    prior = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": src + (os.pathsep + prior if prior else ""),
    }
    proc = subprocess.run(
        cmd, capture_output=True, text=True, cwd=str(REPO_ROOT), env=env
    )
    if proc.returncode not in (0, 1):
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"lint invocation failed (exit {proc.returncode})")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--paths", nargs="*", default=["src"])
    args = parser.parse_args(argv)

    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    allowed = baseline.get("counts", {})
    report = run_lint_json(args.paths)
    actual = report.get("counts", {})

    failures = []
    dropped = REQUIRED_RULES - set(report.get("rules", []))
    if dropped:
        failures.append(
            f"MISSING FAMILIES: the default lint run no longer reports "
            f"{sorted(dropped)}; the ratchet cannot vouch for rules it "
            "never ran"
        )
    keys = {
        (path, rule)
        for path, rules in list(allowed.items()) + list(actual.items())
        for rule in rules
    }
    for path, rule in sorted(keys):
        want = allowed.get(path, {}).get(rule, 0)
        have = actual.get(path, {}).get(rule, 0)
        if have > want:
            failures.append(
                f"NEW DEBT: {path} {rule}: {have} finding(s), baseline "
                f"allows {want}"
            )
        elif have < want:
            failures.append(
                f"STALE BASELINE: {path} {rule}: baselined at {want} but "
                f"only {have} remain — run `hal-repro lint "
                "--update-baseline` and commit"
            )

    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        findings = report.get("findings", [])
        if findings:
            print("\ncurrent findings:")
            for finding in findings:
                print(
                    f"  {finding['path']}:{finding['line']}:{finding['col']} "
                    f"{finding['rule']} {finding['message']}"
                )
        return 1
    total = sum(sum(rules.values()) for rules in actual.values())
    print(f"OK: lint ratchet holds ({total} baselined finding(s), 0 new)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
