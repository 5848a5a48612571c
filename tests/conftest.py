"""Shared pytest configuration and small test helpers."""

import os

# One BLAS thread unless the caller sets a count. OpenBLAS reads the count
# once, when numpy loads it, so it is set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One deterministic profile for the whole suite: property tests must not flake
# in CI, and slow first examples (numpy warm-up) must not trip the deadline.
settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(0)
