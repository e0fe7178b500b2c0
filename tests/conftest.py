"""Fixtures shared by the test modules."""

import pytest

from diagsweep.pipeline import PipelineSpec, simulate_pipeline


@pytest.fixture(scope="session")
def saturated_pipeline():
    """(spec, schedule) of the saturated 3x3x3 pipeline: 100 right-hand sides
    per step position (700) and 10 iterations.  Its simulation is the slowest
    in the suite, so it runs once for every test that reads it."""
    spec = PipelineSpec((3, 3, 3), 100 * (3 + 3 + 3 - 2), 10)
    return spec, simulate_pipeline(spec)
