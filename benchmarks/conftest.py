"""Shared fixtures and configuration for the paper-reproduction benchmarks.

Run with::

    pytest benchmarks/ --benchmark-only

Each file regenerates one table or figure from the paper's evaluation
(Section 6); see EXPERIMENTS.md for the experiment index and the
paper-vs-measured record.  Sizes are scaled down from the paper's where
needed to keep the suite's runtime reasonable; set REPRO_BENCH_FULL=1 for
paper-scale runs.
"""

import numpy as np
import pytest

from repro import config


def full_scale() -> bool:
    return config.get("REPRO_BENCH_FULL")


@pytest.fixture(scope="session")
def rng():
    return np.random.RandomState(12345)
