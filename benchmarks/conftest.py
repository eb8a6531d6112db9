"""Shared fixtures for the benchmark suites.

Each ``test_eNN_*.py`` module regenerates one experiment: a paper
artifact or a measured floor of a later subsystem.  Benchmarks double as correctness checks: every timed operation asserts
the paper's claim on its result, so ``pytest benchmarks/
--benchmark-only`` re-establishes the paper while measuring it.
Seeded inputs and live workloads for the floors live in
``floor_workloads.py``.
"""

from __future__ import annotations

import random

import pytest

from floor_workloads import SEED


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "artifact(name): which paper artifact a bench regenerates"
    )
