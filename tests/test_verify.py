"""The check table: every row skips an empty range and passes its first case."""

import pytest

from cube_orbits.verify import CHECKS, PASS, SKIP, run_check


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.name)
def test_empty_range_is_skipped(check):
    assert run_check(check, check.lo - 1).status == SKIP


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.name)
def test_first_case_passes(check):
    result = run_check(check, check.lo)
    assert result.status == PASS, result.detail
