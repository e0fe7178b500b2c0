"""Pipeline timing formulas and the schedule simulator."""

import math

import pytest

from diagsweep.errors import ConfigurationError
from diagsweep.pipeline import (
    PipelineSpec,
    average_time_diagonal,
    average_time_recursive,
    core_assignment,
    core_rank,
    simulate_pipeline,
)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        PipelineSpec((0, 2), 1, 1)
    with pytest.raises(ConfigurationError):
        PipelineSpec((2, 2), 0, 1)
    with pytest.raises(ConfigurationError):
        PipelineSpec((2, 2), 1, 1, t0=0.0)
    for t0, tc in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ConfigurationError):
            PipelineSpec((2, 2), 1, 1, t0=t0, transfer_cost=tc)


def test_analytic_formula_anchor_values():
    # trivial single-subdomain case: 8 T0 solve cost plus one fill slot
    assert average_time_diagonal(PipelineSpec((1, 1, 1), 1, 1)) == 9.0
    # reference overhead anchor: 0.625% at N_RHS = 2(sum N - 2), n_iter = 10
    counts = (4, 4, 4)
    spec = PipelineSpec(counts, 2 * (sum(counts) - 2), 10)
    base = 8 * 10 * spec.t0
    overhead = average_time_diagonal(spec) / base - 1.0
    assert overhead == pytest.approx(0.00625, abs=1e-12)


def test_recursive_formula_and_comparison():
    spec = PipelineSpec((10, 10, 10), 56, 6)
    assert average_time_recursive(spec) == pytest.approx(8 * 6 + 1000 / 56)
    assert average_time_diagonal(spec) == pytest.approx(8 * 6 + 28 / 56)
    # diagonal wins whenever prod(N) > sum(N) - 2
    for counts in ((2, 2), (3, 2), (2, 2, 2), (4, 3, 2)):
        s = PipelineSpec(counts, 8, 2)
        if math.prod(counts) > sum(counts) - 2:
            assert average_time_diagonal(s) < average_time_recursive(s)
    # saturation point of the recursive pipeline: overhead exactly T0
    full = PipelineSpec((3, 3, 3), 27, 2)
    assert average_time_recursive(full) == pytest.approx(8 * 2 + 1.0)


def test_single_rhs_makespan_is_sequential():
    # one RHS alone gets no pipelining: 4 sweeps x 3 steps = 12 T0
    schedule = simulate_pipeline(PipelineSpec((2, 2), 1, 1))
    assert schedule.makespan == pytest.approx(12.0)


def test_saturated_simulation_matches_formula(saturated_pipeline):
    spec, schedule = saturated_pipeline
    rel = abs(schedule.avg_per_rhs - schedule.formula_avg) / schedule.formula_avg
    assert rel < 1e-3
    # the bottleneck cores run with no internal idle time
    assert min(schedule.utilization) > 0.999
    assert len(schedule.utilization) == spec.n_cores


def test_simulated_time_bracketed_by_formula():
    """Simulation differs from the formula by at most one fill slot per RHS."""
    for counts, n_rhs, n_iter in (((2, 2), 3, 1), ((3, 2), 5, 2), ((2, 2, 2), 7, 1)):
        spec = PipelineSpec(counts, n_rhs, n_iter)
        schedule = simulate_pipeline(spec)
        assert schedule.avg_per_rhs >= schedule.formula_avg - spec.t0 / spec.n_rhs - 1e-12


def test_transfer_cost_slows_the_pipe():
    spec0 = PipelineSpec((2, 2), 4, 2)
    spec1 = PipelineSpec((2, 2), 4, 2, transfer_cost=0.5)
    assert simulate_pipeline(spec1).makespan > simulate_pipeline(spec0).makespan


def test_core_rank_row_major():
    assert core_rank((1, 1, 1), (2, 3, 4)) == 0
    assert core_rank((1, 1, 2), (2, 3, 4)) == 1
    assert core_rank((1, 2, 1), (2, 3, 4)) == 4
    assert core_rank((2, 3, 4), (2, 3, 4)) == 23


@pytest.mark.parametrize("counts", ((2, 3), (2, 2, 3)))
def test_core_assignment_covers_each_sweep(counts):
    dim = len(counts)
    maps = core_assignment(counts)
    assert len(maps) == 2**dim
    all_indices = set(maps[0].values())
    assert len(all_indices) == math.prod(counts)
    from diagsweep.partition import SWEEP_DIRECTIONS, sweep_step_of

    for sweep_map, direction in zip(maps, SWEEP_DIRECTIONS[dim]):
        # every subdomain solved exactly once per sweep
        assert set(sweep_map.values()) == all_indices
        # each core keeps its anti-diagonal step across sweeps
        for rank, index in sweep_map.items():
            base = maps[0][rank]
            assert sweep_step_of(index, direction, counts) == sweep_step_of(
                base, (1,) * dim, counts
            )

