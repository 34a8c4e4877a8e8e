"""Self-lint: the repo's own source must be clean modulo the baseline.

This is the in-suite mirror of the CI ``static-analysis`` job — it
fails the moment anyone reintroduces the bug classes the linter exists
for (wall clock in the sim domain, randomized hash, shared mutable
defaults, unguarded tracer emission), without waiting for the bench
identity gates to catch the symptom after the fact.
"""

import pathlib

from repro.lint import lint_paths
from repro.lint.baseline import compare_to_baseline, load_baseline

REPO_ROOT = pathlib.Path(__file__).parent.parent
BASELINE = REPO_ROOT / "lint_baseline.json"


def test_src_tree_clean_modulo_baseline():
    findings = lint_paths([str(REPO_ROOT / "src")], root=str(REPO_ROOT))
    baseline = load_baseline(str(BASELINE))
    comparison = compare_to_baseline(findings, baseline)
    rendered = "\n".join(f.render() for f in comparison.new_findings)
    assert comparison.clean, (
        f"new lint findings not covered by lint_baseline.json:\n{rendered}"
    )


def test_baseline_not_stale():
    """Fixed debt must be ratcheted out of the baseline immediately."""
    findings = lint_paths([str(REPO_ROOT / "src")], root=str(REPO_ROOT))
    baseline = load_baseline(str(BASELINE))
    comparison = compare_to_baseline(findings, baseline)
    assert comparison.ratchet_ok, "\n".join(comparison.stale)


def test_project_rule_debt_is_zero_everywhere():
    """The cross-module families (SNAP01/BAR01) and DET04
    launched with the tree already clean — their exemptions live inline
    with stated reasons, so none of them may ever appear in the
    baseline.  An empty-baseline self-lint under just these rules is
    the strongest form of the guarantee."""
    from repro.lint.rules import RULES_BY_ID

    rules = [RULES_BY_ID[r] for r in ("DET04", "SNAP01", "BAR01")]
    findings = lint_paths(
        [str(REPO_ROOT / "src")], root=str(REPO_ROOT), rules=rules
    )
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"new-family findings in src/:\n{rendered}"
    baseline = load_baseline(str(BASELINE))
    baselined = {
        path: {r: n for r, n in by_rule.items() if r in RULES_BY_ID}
        for path, by_rule in baseline.items()
        if any(r in ("DET04", "SNAP01", "BAR01") for r in by_rule)
    }
    assert baselined == {}, "new-family debt may not be baselined"


def test_parallel_self_lint_matches_serial():
    """--jobs fans phase 1 over a pool; the merged index and findings
    must be byte-identical to the serial path (same contract as the
    runner pool)."""
    serial = lint_paths([str(REPO_ROOT / "src")], root=str(REPO_ROOT))
    parallel = lint_paths([str(REPO_ROOT / "src")], root=str(REPO_ROOT), jobs=2)
    assert [f.render() for f in parallel] == [f.render() for f in serial]


def test_mut01_count_is_zero_everywhere():
    """PR 4 fixed four shared config-object defaults by hand; the MUT01
    sweep proves the class is extinct in src/ (not even baselined)."""
    from repro.lint.rules import MutableDefaultRule

    findings = lint_paths(
        [str(REPO_ROOT / "src")],
        root=str(REPO_ROOT),
        rules=[MutableDefaultRule()],
    )
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"mutable/config-object defaults remain:\n{rendered}"
    baseline = load_baseline(str(BASELINE))
    baselined_mut01 = {
        path: rules["MUT01"]
        for path, rules in baseline.items()
        if "MUT01" in rules
    }
    assert baselined_mut01 == {}, "MUT01 debt may not be baselined"
