"""Diagonal sweeping solves with transferred sources."""

import itertools
import math

import numpy as np
import pytest

import diagsweep.ddm
from diagsweep.ddm import (
    additive_ddm_solve,
    build_global_operator,
    build_operators,
    content_cuts,
    diagonal_sweep_solve,
    emits,
    octant_exactness_check,
    restrict_source,
    solve_cuts,
    source_directions,
)
from diagsweep.errors import ConfigurationError, SolverError
from diagsweep.grid import make_grid
from diagsweep.media import constant_model, gaussian_source
from diagsweep.partition import SWEEP_DIRECTIONS, make_partition
from diagsweep.pml import PmlProfile, tuned_sigma_max
from diagsweep.subdomain import (
    FactorizationCache,
    SeparableFactorization,
    SparseLuFactorization,
)


def _setup_2d():
    h = 0.01
    n = 141  # 120 interior cells plus a 10-point collar per side
    grid = make_grid(((0, h * (n - 1)),) * 2, (n, n))
    part = make_partition(grid, (3, 3), overlap_d_points=5, pml_width_points=10)
    kappa = 25.0
    profile = PmlProfile(10, 5, tuned_sigma_max(kappa, 10 * h))
    ops = build_operators(part, profile, constant_model(1.0), kappa)
    gop = build_global_operator(part, profile, constant_model(1.0), kappa)
    return grid, part, ops, gop, kappa


def _setup_3d():
    cells, pml, d = 30, 6, 3
    n = cells + 2 * pml + 1
    h = 1.0 / cells
    grid = make_grid(((0, h * (n - 1)),) * 3, (n,) * 3)
    part = make_partition(grid, (3, 3, 3), overlap_d_points=d, pml_width_points=pml)
    kappa = 2 * np.pi * 5
    profile = PmlProfile(pml, d, tuned_sigma_max(kappa, pml * h))
    ops = build_operators(part, profile, constant_model(1.0), kappa)
    return grid, part, ops, kappa


def _compact_source(grid, part, index, kappa):
    """A truncated Gaussian supported strictly inside one owned region."""
    a = part.breaks[0][index[0] - 1]
    b = part.breaks[0][index[0]]
    c = grid.axis_coords(0)[(a + b) // 2]
    f = gaussian_source(grid, (c,) * grid.dim, kappa)
    mask = np.zeros(grid.counts, dtype=bool)
    inner = tuple(slice(s.start + 1, s.stop - 1) for s in part.owned_slices(index))
    mask[inner] = True
    return np.where(mask, f, 0)


@pytest.fixture(scope="module")
def prob2d():
    return _setup_2d()


def test_sweep_and_source_directions():
    # each dimension's sweep order lists every diagonal direction exactly once
    for dim in (2, 3):
        diagonals = set(itertools.product((-1, 1), repeat=dim))
        assert len(SWEEP_DIRECTIONS[dim]) == len(diagonals) == 2**dim
        assert set(SWEEP_DIRECTIONS[dim]) == diagonals
    assert len(source_directions(2)) == 8
    assert len(source_directions(3)) == 26


def test_cut_bookkeeping():
    own = solve_cuts([], True)
    assert own == frozenset()
    cuts = content_cuts((1, 0), own)
    assert cuts == frozenset({(0, -1)})
    # a transfer along axis 1 keeps the inherited axis-0 cut
    assert content_cuts((0, 1), cuts) == frozenset({(0, -1), (1, -1)})
    # replacing the cut axis drops the inherited cut
    assert content_cuts((-1, 0), cuts) == frozenset({(0, 1)})
    # emission is suppressed past an existing cut
    assert not emits((-1, 0), cuts)
    assert emits((1, 1), cuts)
    # intersection over contents, voided by an own source
    assert solve_cuts([cuts, frozenset({(0, -1)})], False) == frozenset({(0, -1)})
    assert solve_cuts([cuts], True) == frozenset()


def test_restrict_source_tiles_grid(prob2d):
    grid, part, _, _, kappa = prob2d
    rng = np.random.default_rng(0)
    f = rng.normal(size=grid.counts) + 0j
    with pytest.warns(UserWarning, match="collar"):
        pieces = restrict_source(f, part)
    rebuilt = np.zeros_like(f)
    for window, values in pieces.values():
        rebuilt[window.slices()] += values
    np.testing.assert_array_equal(rebuilt, f)
    with pytest.raises(ConfigurationError):
        restrict_source(f[:-1], part)


def test_exact_for_constant_media(prob2d):
    grid, part, ops, gop, kappa = prob2d
    f = _compact_source(grid, part, (2, 2), kappa)
    u_ref = SparseLuFactorization(gop).solve(f)
    u, report = diagonal_sweep_solve(f, part, ops, FactorizationCache())
    rel = np.linalg.norm(u.values - u_ref) / np.linalg.norm(u_ref)
    assert rel < 1e-3
    assert report.solves == 4 * 9
    assert report.nonzero_solves == 9  # every subdomain solved nonzero once
    assert report.discarded_sources == 0


def test_emission_counts_center_source(prob2d):
    grid, part, ops, gop, kappa = prob2d
    f = _compact_source(grid, part, (2, 2), kappa)
    _, report = diagonal_sweep_solve(
        f, part, ops, FactorizationCache(), record_events=True
    )
    emitted = {}
    for event in report.events:
        if event["nonzero"]:
            key = tuple(event["subdomain"])
            assert key not in emitted  # single nonzero solve per subdomain
            emitted[key] = (event["sweep"], event["sources_consumed"],
                            event["sources_emitted"])
    # the sourced center emits in all 8 directions during the first sweep;
    # edge neighbors forward 2 in-domain transfers, corners none
    assert emitted[(2, 2)] == (1, 0, 8)
    for edge in ((2, 3), (3, 2)):
        assert emitted[edge] == (1, 1, 2)
    assert emitted[(1, 2)] == (2, 1, 2)
    assert emitted[(2, 1)] == (3, 1, 2)
    for corner, sweep in (((3, 3), 1), ((1, 3), 2), ((3, 1), 3), ((1, 1), 4)):
        assert emitted[corner] == (sweep, 3, 0)


@pytest.mark.parametrize("dim, nonzero_solves", ((2, 9), (3, 27)), ids=("2d", "3d"))
def test_additive_matches_diagonal(prob2d, dim, nonzero_solves):
    if dim == 2:
        grid, part, ops, _, kappa = prob2d
    else:
        grid, part, ops, kappa = _setup_3d()
    center = (2,) * dim
    f = _compact_source(grid, part, center, kappa)
    cache = FactorizationCache()
    u_diag, _ = diagonal_sweep_solve(f, part, ops, cache)
    u_add, report = additive_ddm_solve(f, part, ops, cache)
    rel = np.linalg.norm(u_add.values - u_diag.values) / np.linalg.norm(u_diag.values)
    assert rel < 1e-12
    assert report.solves == math.prod(part.counts) * (sum(part.counts) - dim + 1)
    assert report.nonzero_solves == nonzero_solves
    assert report.first_nonzero_step[center] == 1
    # the far corner is |(1,...,1)|_1 = dim transfer steps away
    assert report.first_nonzero_step[(1,) * dim] == dim + 1


def test_octant_partials_converge_by_sweep(prob2d):
    grid, part, ops, gop, kappa = prob2d
    f = _compact_source(grid, part, (2, 2), kappa)
    u_ref = SparseLuFactorization(gop).solve(f)
    _, report = diagonal_sweep_solve(
        f, part, ops, FactorizationCache(), collect_partials=True
    )
    checks = octant_exactness_check(report.partials, u_ref, part, (2, 2))
    assert [c["subdomains"] for c in checks] == [4, 2, 2, 1]
    for c in checks:
        assert c["relative_error"] < 1e-3


def test_ddm_map_is_linear(prob2d):
    grid, part, ops, _, kappa = prob2d
    rng = np.random.default_rng(1)
    f1 = rng.normal(size=grid.counts) + 1j * rng.normal(size=grid.counts)
    f2 = rng.normal(size=grid.counts) + 1j * rng.normal(size=grid.counts)
    cache = FactorizationCache()

    def solve(f):
        return diagonal_sweep_solve(f, part, ops, cache, warn_collar=False)[0].values

    lhs = solve(2.5 * f1 + f2)
    rhs = 2.5 * solve(f1) + solve(f2)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-10


def test_bitwise_determinism(prob2d):
    grid, part, ops, _, kappa = prob2d
    rng = np.random.default_rng(2)
    f = rng.normal(size=grid.counts) + 1j * rng.normal(size=grid.counts)
    cache = FactorizationCache()
    u1, _ = diagonal_sweep_solve(f, part, ops, cache, warn_collar=False)
    u2, _ = diagonal_sweep_solve(f, part, ops, cache, warn_collar=False)
    assert np.array_equal(u1.values, u2.values)


def test_source_left_unconsumed_raises(prob2d, monkeypatch):
    grid, part, ops, _, kappa = prob2d
    real = diagsweep.ddm.next_usable_sweep
    calls = []

    def misroute(direction, sweep):
        calls.append(direction)
        if len(calls) == 1:
            return len(SWEEP_DIRECTIONS[2]) + 1  # past the last sweep, which never runs
        return real(direction, sweep)

    monkeypatch.setattr(diagsweep.ddm, "next_usable_sweep", misroute)
    f = _compact_source(grid, part, (1, 1), kappa)
    with pytest.raises(SolverError, match="pending transferred sources"):
        diagonal_sweep_solve(f, part, ops, FactorizationCache())


def test_3d_sweep_matches_global_solve():
    h = 1 / 32
    n = 45  # 32 interior cells plus a 6-point collar per side
    grid = make_grid(((0, h * (n - 1)),) * 3, (n,) * 3)
    part = make_partition(grid, (2, 2, 2), overlap_d_points=3, pml_width_points=6)
    kappa = 8.0
    profile = PmlProfile(6, 3, tuned_sigma_max(kappa, 6 * h, 4, 30), exponent=4)
    ops = build_operators(part, profile, constant_model(1.0), kappa)
    gop = build_global_operator(part, profile, constant_model(1.0), kappa)
    f = _compact_source(grid, part, (1, 1, 1), kappa)
    u_ref = SeparableFactorization(gop).solve(f)
    u, report = diagonal_sweep_solve(f, part, ops, FactorizationCache())
    rel = np.linalg.norm(u.values - u_ref) / np.linalg.norm(u_ref)
    assert rel < 5e-3
    assert report.nonzero_solves == 8


def test_event_log_roundtrip(tmp_path, prob2d):
    grid, part, ops, _, kappa = prob2d
    f = _compact_source(grid, part, (2, 2), kappa)
    _, report = diagonal_sweep_solve(
        f, part, ops, FactorizationCache(), record_events=True
    )
    path = tmp_path / "events.jsonl"
    report.write_event_log(path)
    import json

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == report.solves
    assert {tuple(e["subdomain"]) for e in lines} == set(part.subdomains())
    # per-solve seconds: zero for an unsolved zero right-hand side, and they
    # add up to the report's total
    assert all(e["solve_s"] >= 0 for e in lines)
    assert all(e["solve_s"] == 0.0 for e in lines if not e["nonzero"])
    assert any(e["solve_s"] > 0 for e in lines)
    assert math.isclose(sum(e["solve_s"] for e in lines), report.solve_s, rel_tol=1e-9)
