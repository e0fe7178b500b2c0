"""Diagonal sweeping solves with transferred sources."""

import numpy as np
import pytest

import diagsweep.ddm
from diagsweep.ddm import (
    SweepPlan,
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
from diagsweep.partition import make_partition
from diagsweep.pml import PmlProfile, tuned_sigma_max
from diagsweep.subdomain import FactorizationCache, factorize


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


def test_sweep_plan_validation():
    assert len(SweepPlan.default(2).directions) == 4
    assert len(SweepPlan.alternate_3d().directions) == 8
    with pytest.raises(ConfigurationError):
        SweepPlan(((1, 1), (1, 1), (-1, 1), (-1, -1)))
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
    u_ref = factorize(gop, "splu").solve(f)
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


def test_additive_matches_diagonal(prob2d):
    grid, part, ops, _, kappa = prob2d
    f = _compact_source(grid, part, (2, 2), kappa)
    cache = FactorizationCache()
    u_diag, _ = diagonal_sweep_solve(f, part, ops, cache)
    u_add, report = additive_ddm_solve(f, part, ops, cache)
    rel = np.linalg.norm(u_add.values - u_diag.values) / np.linalg.norm(u_diag.values)
    assert rel < 1e-12
    assert report.first_nonzero_step[(2, 2)] == 1
    assert report.first_nonzero_step[(1, 1)] == 3


def test_octant_partials_converge_by_sweep(prob2d):
    grid, part, ops, gop, kappa = prob2d
    f = _compact_source(grid, part, (2, 2), kappa)
    u_ref = factorize(gop, "splu").solve(f)
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

    def misroute(direction, sweep, directions):
        calls.append(direction)
        if len(calls) == 1:
            return len(directions) + 1  # a sweep past the last, which never runs
        return real(direction, sweep, directions)

    monkeypatch.setattr(diagsweep.ddm, "next_usable_sweep", misroute)
    f = _compact_source(grid, part, (1, 1), kappa)
    with pytest.raises(SolverError, match="pending transferred sources"):
        diagonal_sweep_solve(f, part, ops, FactorizationCache())


def test_3d_plans_agree():
    h = 1 / 32
    n = 45  # 32 interior cells plus a 6-point collar per side
    grid = make_grid(((0, h * (n - 1)),) * 3, (n,) * 3)
    part = make_partition(grid, (2, 2, 2), overlap_d_points=3, pml_width_points=6)
    kappa = 8.0
    profile = PmlProfile(6, 3, tuned_sigma_max(kappa, 6 * h, 4, 30), exponent=4)
    ops = build_operators(part, profile, constant_model(1.0), kappa)
    gop = build_global_operator(part, profile, constant_model(1.0), kappa)
    f = _compact_source(grid, part, (1, 1, 1), kappa)
    u_ref = factorize(gop, "separable").solve(f)
    cache = FactorizationCache()
    results = []
    for plan in (SweepPlan.default(3), SweepPlan.alternate_3d()):
        u, report = diagonal_sweep_solve(f, part, ops, cache, plan=plan)
        rel = np.linalg.norm(u.values - u_ref) / np.linalg.norm(u_ref)
        assert rel < 5e-3
        assert report.nonzero_solves == 8
        results.append(u.values)
    # both sweep orders visit an equivalent transfer schedule
    assert np.linalg.norm(results[0] - results[1]) < 1e-12 * np.linalg.norm(results[0])


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
