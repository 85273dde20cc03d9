"""Fixtures shared across the test modules."""

import time

import pytest

from ksm import gradcheck


@pytest.fixture(scope="session")
def seed0_gradient_report():
    """``gradcheck.run_report(seed=0)``, run once per session, as
    (results, all_passed, wall seconds)."""
    start = time.perf_counter()
    results, ok = gradcheck.run_report(seed=0)
    return results, ok, time.perf_counter() - start
