"""Diagonal sweeping solves with transferred sources."""

import itertools
import json
import math

import numpy as np
import pytest

import diagsweep.ddm
from diagsweep.ddm import (
    additive_ddm_solve,
    build_global_operator,
    build_operators,
    check_source,
    content_cuts,
    diagonal_sweep_solve,
    emits,
    octant_exactness_check,
    solve_cuts,
)
from diagsweep.errors import ConfigurationError, SolverError
from diagsweep.grid import make_grid
from diagsweep.media import constant_model, gaussian_source
from diagsweep.partition import SWEEP_DIRECTIONS, make_partition, source_directions
from diagsweep.pml import PmlProfile, tuned_sigma_max
from diagsweep.subdomain import (
    FactorizationCache,
    SeparableFactorization,
    SparseLuFactorization,
)
from diagsweep.transfer import next_usable_sweep


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
    # the owned nodes inside the interior, less their outer layer
    inner = tuple(
        slice(max(s.start, lo) + 1, min(s.stop - 1, hi))
        for s, lo, hi in zip(part.owned(index)[0], part.interior.lo, part.interior.hi)
    )
    mask[inner] = True
    return np.where(mask, f, 0)


@pytest.fixture(scope="module")
def prob2d():
    return _setup_2d()


@pytest.fixture(scope="module")
def prob3d():
    return _setup_3d()


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


def test_owned_pieces_tile_grid(prob2d):
    grid, part, _, _, kappa = prob2d
    rng = np.random.default_rng(0)
    f = rng.normal(size=grid.counts) + 0j
    with pytest.warns(UserWarning, match="collar"):
        check_source(f, part, True)
    rebuilt = np.zeros_like(f)
    for index in part.subdomains():
        owned, _ = part.owned(index)
        rebuilt[owned] += f[owned]
    np.testing.assert_array_equal(rebuilt, f)
    with pytest.raises(ConfigurationError):
        check_source(f[:-1], part, True)


def _reachable_solves(dim):
    """Every (sweep, cut set) a local solve can reach, on any partition and
    for any source.  The own pieces solve in sweep 1 with no cut; each
    content a solve emits reaches its routed sweep with its `content_cuts`;
    a solve's cut set is the intersection of its arrivals' sets.  Closing
    the sets under intersection and ignoring geometry over-approximates
    every run."""
    directions = source_directions(dim)
    states = {(1, frozenset())}
    while True:
        grown = states | {(next_usable_sweep(d, sweep), content_cuts(d, cuts))
                          for sweep, cuts in states for d in directions
                          if emits(d, cuts) and next_usable_sweep(d, sweep) is not None}
        grown |= {(s, a & b) for (s, a), (t, b) in itertools.product(grown, repeat=2)
                  if s == t}
        if grown == states:
            return states
        states = grown


@pytest.mark.parametrize("dim, n_states, n_unrouted", ((2, 9, 10), (3, 27, 76)),
                         ids=("2d", "3d"))
def test_every_emitted_source_has_a_sweep(dim, n_states, n_unrouted):
    """The diagonal sweep discards nothing: no reachable solve emits along a
    direction that no later sweep accepts, although such (direction, sweep)
    pairs exist.  `ddm._run` relies on this to queue every source."""
    states = _reachable_solves(dim)
    directions = source_directions(dim)
    for sweep, cuts in states:
        for d in directions:
            if emits(d, cuts):
                assert next_usable_sweep(d, sweep) is not None, (sweep, cuts, d)
    assert len(states) == n_states
    unrouted = [(d, sweep) for d in directions for sweep in range(1, 2**dim + 1)
                if next_usable_sweep(d, sweep) is None]
    assert len(unrouted) == n_unrouted


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


def test_exact_for_constant_media_with_unequal_spacing():
    """As above on a mesh whose spacing differs per axis, where each axis's
    band couplings are 1/h^2 of its own spacing."""
    h, n = (0.01, 0.014), 141
    grid = make_grid(tuple((0, step * (n - 1)) for step in h), (n, n))
    part = make_partition(grid, (3, 3), overlap_d_points=5, pml_width_points=10)
    kappa, model = 25.0, constant_model(1.0)
    profile = PmlProfile(10, 5, tuned_sigma_max(kappa, 10 * min(h)))
    ops = build_operators(part, profile, model, kappa)
    gop = build_global_operator(part, profile, model, kappa)
    owned = part.owned((2, 2))[0]
    center = tuple(grid.axis_coords(a)[(s.start + s.stop) // 2] for a, s in enumerate(owned))
    f = np.zeros(grid.counts, dtype=np.complex128)
    f[owned] = gaussian_source(grid, center, kappa)[owned]
    u_ref = SparseLuFactorization(gop).solve(f)
    u, report = diagonal_sweep_solve(f, part, ops, FactorizationCache())
    rel = np.linalg.norm(u.values - u_ref) / np.linalg.norm(u_ref)
    assert rel < 1e-3
    assert report.nonzero_solves == 9


def test_emission_counts_center_source(prob2d):
    grid, part, ops, gop, kappa = prob2d
    f = _compact_source(grid, part, (2, 2), kappa)
    _, report = diagonal_sweep_solve(f, part, ops, FactorizationCache())
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


def test_psi_called_only_inside_partition(prob2d, monkeypatch):
    """With psi re-bound in the engine module, as the benchmark's tracer does,
    a sweep calls it only for directions whose target is in the partition,
    and every call yields a source that is queued."""
    grid, part, ops, _, kappa = prob2d
    real = diagsweep.ddm.psi
    calls = []

    def recording_psi(partition, index, direction, v, rhs):
        calls.append((index, direction))
        ts = real(partition, index, direction, v, rhs)
        assert ts is not None, (index, direction)
        return ts

    monkeypatch.setattr(diagsweep.ddm, "psi", recording_psi)
    rng = np.random.default_rng(6)
    f = rng.normal(size=grid.counts) + 1j * rng.normal(size=grid.counts)
    _, report = diagonal_sweep_solve(
        f, part, ops, FactorizationCache(), warn_collar=False
    )
    for index, direction in calls:
        target = tuple(i + c for i, c in zip(index, direction))
        assert all(1 <= t <= n for t, n in zip(target, part.counts)), (index, direction)
        assert direction in part.transfer_directions(index)
    queued = sum(e["sources_emitted"] for e in report.events)
    assert calls and len(calls) == queued
    # the corner (1, 1) solves with its own source in the first sweep and
    # transfers towards its 3 in-partition neighbors only
    assert sum(1 for index, _ in calls if index == (1, 1)) >= 3
    assert part.transfer_directions((1, 1)) == ((0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize("engine", (diagonal_sweep_solve, additive_ddm_solve),
                         ids=("diagonal", "additive"))
@pytest.mark.parametrize("dim", (2, 3), ids=("2d", "3d"))
def test_engines_record_consistent_events(prob2d, prob3d, monkeypatch, engine, dim):
    """Every scheduled task of either engine records one event: its psi calls
    are its emitted sources, a zero task spends no seconds, and the report's
    counters are sums over the events."""
    if dim == 2:
        grid, part, ops, _, kappa = prob2d
    else:
        grid, part, ops, kappa = prob3d
    real, calls, last_rhs = diagsweep.ddm.psi, [], [None]

    def counting_psi(*args, **kwargs):  # re-bound as the benchmark's tracer does
        # a task's calls share its right-hand side; holding the last one
        # keeps a later task from getting the same object
        if args[4] is not last_rhs[0]:
            last_rhs[0] = args[4]
            calls.append([args[1], 0])
        calls[-1][1] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(diagsweep.ddm, "psi", counting_psi)
    f = _compact_source(grid, part, (2,) * dim, kappa)
    _, report = engine(f, part, ops, FactorizationCache())
    events = report.events
    sent = [e["sources_emitted"] for e in events]
    assert calls and calls == [[tuple(e["subdomain"]), n] for e, n in zip(events, sent) if n]
    assert sum(sent) == sum(e["sources_consumed"] for e in events)  # none is dropped
    zero = [e for e in events if not e["nonzero"]]
    assert zero and all(e["solve_s"] == e["blend_s"] == e["transfer_s"] == 0.0 for e in zero)
    assert report.solves == len(events)
    for name, key in (("nonzero_solves", "nonzero"), ("solve_s", "solve_s"),
                      ("blend_s", "blend_s"), ("transfer_s", "transfer_s")):
        assert getattr(report, name) == sum(e[key] for e in events), name


@pytest.mark.parametrize("dim, nonzero_solves", ((2, 9), (3, 27)), ids=("2d", "3d"))
def test_additive_matches_diagonal(prob2d, prob3d, dim, nonzero_solves):
    if dim == 2:
        grid, part, ops, _, kappa = prob2d
    else:
        grid, part, ops, kappa = prob3d
    center = (2,) * dim
    f = _compact_source(grid, part, center, kappa)
    cache = FactorizationCache()
    u_diag, _ = diagonal_sweep_solve(f, part, ops, cache)
    u_add, report = additive_ddm_solve(f, part, ops, cache)
    rel = np.linalg.norm(u_add.values - u_diag.values) / np.linalg.norm(u_diag.values)
    assert rel < 1e-12
    assert report.solves == math.prod(part.counts) * (sum(part.counts) - dim + 1)
    assert report.nonzero_solves == nonzero_solves
    first_nonzero_step = {}
    for event in report.events:
        if event["nonzero"]:
            first_nonzero_step.setdefault(tuple(event["subdomain"]), event["step"])
    assert first_nonzero_step[center] == 1
    # the far corner is |(1,...,1)|_1 = dim transfer steps away
    assert first_nonzero_step[(1,) * dim] == dim + 1


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


def test_source_routed_nowhere_raises(prob2d, monkeypatch):
    """A source that no sweep accepts is never consumed, so the run refuses
    it instead of dropping it."""
    grid, part, ops, _, kappa = prob2d
    monkeypatch.setattr(diagsweep.ddm, "next_usable_sweep", lambda direction, sweep: None)
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


def test_event_log_roundtrip(prob2d):
    grid, part, ops, _, kappa = prob2d
    f = _compact_source(grid, part, (2, 2), kappa)
    _, report = diagonal_sweep_solve(f, part, ops, FactorizationCache())
    # the events are what `solve` writes to events.jsonl, one JSON line each
    lines = [json.loads(json.dumps(event)) for event in report.events]
    assert lines == report.events
    assert len(lines) == report.solves
    assert {tuple(e["subdomain"]) for e in lines} == set(part.subdomains())
    # per-solve seconds: zero for an unsolved zero right-hand side, and they
    # add up to the report's total
    assert all(e["solve_s"] >= 0 for e in lines)
    assert all(e["solve_s"] == 0.0 for e in lines if not e["nonzero"])
    assert any(e["solve_s"] > 0 for e in lines)
    assert math.isclose(sum(e["solve_s"] for e in lines), report.solve_s, rel_tol=1e-9)
