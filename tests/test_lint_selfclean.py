"""Self-lint: the repo's own source must lint clean.

This is the one gate for the lint-clean fact — it fails the moment
anyone reintroduces the bug classes the linter exists for (wall clock
in the sim domain, randomized hash, shared mutable defaults, unguarded
tracer emission), without waiting for the bench identity gates to catch
the symptom after the fact.  ``src`` is linted once per session; each
test filters that run's findings by rule id.
"""

import pathlib

import pytest

from repro.lint import lint_paths

REPO_ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def src_findings():
    return lint_paths([str(REPO_ROOT / "src")], root=str(REPO_ROOT))


def _of_rules(findings, rule_ids):
    return [f for f in findings if f.rule in rule_ids]


def test_src_tree_clean_modulo_baseline(src_findings):
    """Any finding fails; a deliberate exception lives inline as
    ``# lint: disable=RULE-ID reason``."""
    rendered = "\n".join(f.render() for f in src_findings)
    assert src_findings == [], f"lint findings in src/:\n{rendered}"


def test_project_rule_debt_is_zero_everywhere(src_findings):
    """The cross-module families (SNAP01/BAR01) and DET04 launched with
    the tree already clean — their exemptions live inline with stated
    reasons."""
    findings = _of_rules(src_findings, {"DET04", "SNAP01", "BAR01"})
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"new-family findings in src/:\n{rendered}"


def test_mut01_count_is_zero_everywhere(src_findings):
    """Shared config-object defaults were once fixed by hand; the MUT01
    sweep proves the class is extinct in src/."""
    findings = _of_rules(src_findings, {"MUT01"})
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"mutable/config-object defaults remain:\n{rendered}"
