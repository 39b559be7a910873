"""Shared fixtures and the acceptance-criteria report hook."""

from __future__ import annotations

import random
import re

import pytest

from surfbound import bounds, surface_io

BASE_SEED = "surfbound-20260818"

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")
_acceptance_results: dict[str, tuple[str, bool, float]] = {}


@pytest.fixture
def rng(request) -> random.Random:
    """Deterministic per-test generator, independent of test selection."""
    return random.Random(f"{BASE_SEED}:{request.node.nodeid}")


@pytest.fixture(autouse=True)
def empty_model_cache():
    """Start every test from empty model and analysis caches, so that what
    a test counts of a model load or an analysis does not depend on the
    tests before it."""
    surface_io._model_from_text.cache_clear()
    bounds.analysis_of.cache_clear()


@pytest.fixture(scope="session")
def fixture_models():
    return {name: surface_io.load_fixture(name) for name in surface_io.fixture_names()}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if match is None:
        return
    number, slug = match.groups()
    label = slug.replace("_", " ")
    if report.when == "call":
        _acceptance_results[number] = (label, report.passed, report.duration)
    elif report.failed:
        # setup/teardown error: count the criterion as failed
        _acceptance_results[number] = (label, False, report.duration)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_acceptance_results, key=int):
        label, passed, duration = _acceptance_results[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"[{verdict}] criterion {number}: {label} ({duration:.2f}s)"
        )
