"""Checkerboard partition geometry, cutoff families, sweep indexing."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagsweep.errors import ConfigurationError
from diagsweep.grid import make_grid
from diagsweep.partition import (
    beta_hat,
    make_partition,
    octant_region,
    steps_per_sweep,
    sweep_step_of,
)


def _part2d(cells=60, counts=(3, 2), d=4, pml=6):
    n = cells + 2 * pml + 1
    grid = make_grid(((0, 1), (0, 1)), (n, n))
    return make_partition(grid, counts, d, pml)


def test_beta_hat_shape():
    assert beta_hat(-1.0) == 1.0 and beta_hat(0.0) == 1.0
    assert beta_hat(1.0) == 0.0 and beta_hat(2.0) == 0.0
    assert beta_hat(0.5) == pytest.approx(0.5)
    t = np.linspace(0, 1, 101)
    vals = beta_hat(t)
    assert np.all(np.diff(vals) <= 0)
    # C^2 at the ends: first and second derivative vanish
    eps = 1e-4
    for t0 in (0.0, 1.0):
        d1 = (beta_hat(t0 + eps) - beta_hat(t0 - eps)) / (2 * eps)
        assert abs(d1) < 1e-6


def test_breakpoints_uniform_and_node_aligned():
    part = _part2d()
    assert part.breaks[0] == (6, 26, 46, 66)
    assert part.breaks[1] == (6, 36, 66)
    assert part.interior.lo == (6, 6) and part.interior.hi == (66, 66)


def test_divisibility_and_size_errors():
    n = 60 + 2 * 6 + 1
    grid = make_grid(((0, 1), (0, 1)), (n, n))
    with pytest.raises(ConfigurationError, match="not divisible"):
        make_partition(grid, (7, 2), 4, 6)
    with pytest.raises(ConfigurationError, match="smaller than"):
        make_partition(grid, (10, 2), 4, 6)  # subdomain 6 < reach 10


def test_windows_clip_to_global_boundary():
    part = _part2d()
    reach = part.overlap_d_points + part.pml_width_points
    first = part.window((1, 1))
    assert first.lo == (0, 0)
    assert first.hi == (26 + reach, 36 + reach)
    last = part.window((3, 2))
    assert last.hi == (72, 72)
    assert last.lo == (46 - reach, 36 - reach)


def _part3d(cells=24, counts=(3, 2, 2), d=2, pml=3):
    n = cells + 2 * pml + 1
    grid = make_grid(((0, 1),) * 3, (n,) * 3)
    return make_partition(grid, counts, d, pml)


def test_owned_slices_tile_the_grid():
    """`owned` tiles the grid (boundary subdomains also own their share of
    the collar), and its window slices hold the same nodes."""
    for part in (_part2d(), _part3d()):
        nodes = np.arange(np.prod(part.grid.counts)).reshape(part.grid.counts)
        seen = np.zeros(part.grid.counts, dtype=int)
        for index in part.subdomains():
            owned, local = part.owned(index)
            seen[owned] += 1
            # (lo, hi] of the box at interior faces: the breakpoint node
            # belongs to the lower-index neighbor
            box = part.box(index)
            for a, (sl, i) in enumerate(zip(owned, index)):
                assert sl.start == (box.lo[a] + 1 if i > 1 else 0)
                last = i == part.counts[a]
                assert sl.stop == (part.grid.counts[a] if last else box.hi[a] + 1)
            assert np.array_equal(nodes[part.window(index).slices()][local], nodes[owned])
            assert part.owned(index) is part.owned(index)  # memoized
        assert np.all(seen == 1)


def test_beta_support_confined_to_overlap():
    part = _part2d()
    d = part.overlap_d_points
    for index in ((2, 1), (1, 2), (3, 2)):
        support, values, (blend, local) = part.beta00_support(index)
        win = part.window(index)
        assert blend == support.slices() and local == win.local_slices(support)
        box = part.box(index)
        for a, i in enumerate(index):
            if i > 1:
                assert support.lo[a] == box.lo[a] - d
            else:
                assert support.lo[a] == win.lo[a]
            if i < part.counts[a]:
                assert support.hi[a] == box.hi[a] + d
            else:
                assert support.hi[a] == win.hi[a]
        assert np.all(values >= 0) and np.all(values <= 1)
        # identically 1 on the owned box interior
        inner = support.local_slices(box)
        assert np.all(values[inner] == 1.0)


def test_beta_hat_complementary_symmetry():
    """beta_hat(t) + beta_hat(1 - t) = 1: opposing ramps blend exactly."""
    t = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(beta_hat(t) + beta_hat(1.0 - t), 1.0, atol=1e-12)


def test_chi_indicator_quadrant():
    part = _part2d()
    bkx, bky = part.breaks[0][1], part.breaks[1][1]
    assert part.chi_indicator((1, 1), (1, 1), (bkx, bky)) == 1
    assert part.chi_indicator((1, 1), (1, 1), (bkx + 3, bky + 5)) == 1
    assert part.chi_indicator((1, 1), (1, 1), (bkx - 1, bky)) == 0
    assert part.chi_indicator((-1, 1), (2, 1), (bkx, bky)) == 1
    assert part.chi_indicator((-1, 1), (2, 1), (bkx + 1, bky)) == 0


@given(
    counts=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    direction=st.tuples(st.sampled_from((-1, 1)), st.sampled_from((-1, 1)),
                        st.sampled_from((-1, 1))),
)
@settings(max_examples=50, deadline=None)
def test_sweep_steps_enumerate_all_subdomains(counts, direction):
    steps = [
        sweep_step_of(index, direction, counts)
        for index in itertools.product(*(range(1, n + 1) for n in counts))
    ]
    assert min(steps) == 1
    assert max(steps) == steps_per_sweep(counts)
    # first step holds exactly the starting corner
    assert steps.count(1) == 1


@pytest.mark.parametrize(
    "part", [_part2d(48, (4, 4), 2, 3), _part3d(24, (3, 3, 3))], ids=["4x4", "3x3x3"]
)
def test_sweep_order_sorts_by_step(part):
    for direction in itertools.product((-1, 1), repeat=part.dim):
        fresh = sorted(
            (sweep_step_of(index, direction, part.counts), index)
            for index in part.subdomains()
        )
        order = part.sweep_order(direction)
        assert list(order) == fresh
        assert part.sweep_order(direction) is order  # memo hit


def test_octant_regions_tile_index_set():
    counts, origin = (3, 4), (2, 2)
    all_indices = set(itertools.product(range(1, 4), range(1, 5)))
    union = set()
    total = 0
    for direction in itertools.product((-1, 1), repeat=2):
        region = octant_region(direction, origin, counts)
        total += len(region)
        union |= region
    assert union == all_indices
    assert total == len(all_indices)
    assert origin in octant_region((1, 1), origin, counts)
