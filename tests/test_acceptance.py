"""Acceptance suite: runs every criterion at its stated tolerance and prints
one pass/fail line per criterion (use -s to see the lines on success)."""

import pytest

from obsim import checks, cli
from obsim.checks import (
    check_compaction_creation,
    check_csv_determinism,
    check_elastic_suite,
    check_product_choice_theorem,
    check_segment_regime_map,
    check_taxonomy_fixture,
    check_uniform_curve,
)

CRITERIA = {
    check_uniform_curve: "two-outcome curve at N=1e5 within max(0.005, 4se), endpoints exact, under 5 s",
    check_segment_regime_map: "segment regime map: oracle 1e-9, exact deterministic regime, 0.01 window, eps=1 == uniform",
    check_product_choice_theorem: "product tests: certain pair 1e4/1e4, incompatible pair a fair coin, meet not actual",
    check_elastic_suite: "elastic band: conservation 1e-9 over 1e4 breaks, fair coin at 1e5, actuality threshold, monotone sub-half",
    check_compaction_creation: "creation by observation: 100 random solids fail then pass",
    check_taxonomy_fixture: "taxonomy table equals the reference classification exactly",
    check_csv_determinism: "byte-identical CSV from flags, from a --config file and from a rerun",
}

# the CLI names its checks, so that only --check imports obsim.checks; `all` runs these
ALL_CHECKS = [getattr(checks, name) for name in cli._SCENARIOS["all"].checks]
assert set(CRITERIA) == set(ALL_CHECKS)
assert set().union(*(row.checks for row in cli._SCENARIOS.values())) == set(
    cli._SCENARIOS["all"].checks)


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_acceptance(check, capsys):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {result.name}: {CRITERIA[check]}")
    assert result.passed, f"{result.name}: {result.detail}"
