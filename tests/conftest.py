"""Fixtures shared by more than one test module."""
import time

import pytest

from conecert.selftest import CaseOutcome, run_cone_equivalence

EQUIVALENCE_SEED = 20260810


@pytest.fixture(scope="session")
def equivalence_run():
    """The 200-case cone equivalence suite at the pinned seed, decided once:
    (suite result, each case's outcome, elapsed seconds)."""
    outcomes: list[CaseOutcome] = []
    started = time.perf_counter()
    result = run_cone_equivalence(EQUIVALENCE_SEED, 200, max_dim=4,
                                  collect=outcomes)
    elapsed = time.perf_counter() - started
    return result, outcomes, elapsed
