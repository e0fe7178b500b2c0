"""Source-transfer operator geometry and the sweep-admissibility rules."""

import csv
import itertools
from pathlib import Path

import numpy as np
import pytest

from diagsweep.ddm import build_operators
from diagsweep.grid import Window, make_grid
from diagsweep.media import RasterModel, constant_model, layered_model
from diagsweep.partition import SWEEP_DIRECTIONS, make_partition
from diagsweep.pml import PmlProfile, tuned_sigma_max
from diagsweep.subdomain import factorize
from diagsweep.transfer import (
    next_usable_sweep,
    psi,
    rule_allows,
    similar_direction,
)

DATA = Path(__file__).parent / "data"


def _parse(s):
    return tuple(int(t) for t in s.split())


@pytest.mark.parametrize("dim", (2, 3))
def test_rule_engine_matches_golden_table(dim):
    rows = list(csv.DictReader(open(DATA / f"rule_table_{dim}d.csv")))
    assert len(rows) == (8 * 4 * 4 if dim == 2 else 26 * 8 * 8)
    for row in rows:
        src = _parse(row["src_dir"])
        gen = _parse(row["gen_sweep_dir"])
        use = _parse(row["use_sweep_dir"])
        assert rule_allows(src, gen, use, dim) == bool(int(row["allowed"])), (
            src, gen, use)


def test_known_exclusion_cases():
    # 2D: leftward source from sweep (-1,+1) may not feed sweep (+1,-1)
    assert not rule_allows((-1, 0), (-1, 1), (1, -1), 2)
    # same source direction is fine for a non-opposite later sweep
    assert rule_allows((-1, 0), (1, -1), (-1, -1), 2)
    # 3D: (0,1,-1) source is barred when the x-z projection of the
    # generating sweep opposes the x-z projection of the using sweep
    assert not rule_allows((0, 1, -1), (1, 1, 1), (-1, 1, -1), 3)
    assert rule_allows((0, 1, -1), (1, 1, -1), (1, 1, -1), 3)


def test_similar_direction_definitions():
    assert similar_direction((1, 0), (1, 1))
    assert similar_direction((1, -1), (1, -1))
    # 2D needs a strictly positive dot product
    assert not similar_direction((1, -1), (1, 1))
    # the no-sign-conflict requirement bites in 3D: positive dot is not enough
    assert not similar_direction((1, 1, -1), (1, 1, 1))
    assert similar_direction((1, 0, 0), (1, 1, 1))


def test_next_usable_sweep_default_2d_plan():
    # forward source generated in sweep 1 is usable immediately
    assert next_usable_sweep((1, 0), 1) == 1
    # backward diagonal source from sweep 1 waits for the last sweep
    assert next_usable_sweep((-1, -1), 1) == 4
    # axis source whose only similar remaining sweep opposes its generator
    # is dropped entirely
    assert next_usable_sweep((1, 0), 2) is None
    # the final sweep can still consume its own leftward sources
    assert next_usable_sweep((-1, 0), 4) == 4


@pytest.mark.parametrize("dim", (2, 3))
def test_cached_routing_matches_the_rules(dim):
    """The cached `next_usable_sweep` equals a fresh scan of `rule_allows`
    for every (source direction, generating sweep) pair."""
    directions = SWEEP_DIRECTIONS[dim]
    n = len(directions)
    for src in itertools.product((-1, 0, 1), repeat=dim):
        if not any(src):
            continue
        for gen in range(1, n + 1):
            expected = next(
                (use for use in range(gen, n + 1)
                 if rule_allows(src, directions[gen - 1], directions[use - 1], dim)),
                None,
            )
            assert next_usable_sweep(src, gen) == expected
            hits = next_usable_sweep.cache_info().hits
            assert next_usable_sweep(src, gen) == expected
            assert next_usable_sweep.cache_info().hits == hits + 1


def _setup2d():
    pml, d = 8, 3
    cells = 48
    n = cells + 2 * pml + 1
    grid = make_grid(((0, 1), (0, 1)), (n, n))
    part = make_partition(grid, (2, 2), d, pml)
    kappa = 12.0
    profile = PmlProfile(pml, d, tuned_sigma_max(kappa, pml / cells))
    ops = build_operators(part, profile, constant_model(1.0), kappa)
    return part, ops


def test_psi_band_geometry():
    part, ops = _setup2d()
    win = part.window((1, 1))
    rng = np.random.default_rng(0)
    v = rng.normal(size=win.shape) + 0j
    rhs = rng.normal(size=win.shape) + 0j
    d = part.overlap_d_points
    bk = part.breaks[0][1]
    ts = psi(part, (1, 1), (1, 0), v, rhs)
    assert ts.target == (2, 1)
    band = part.transfer_geometry((1, 1), (1, 0))[1]
    assert band.lo[0] == bk and band.hi[0] == bk + d
    nb = part.window((2, 1))
    assert band.lo[1] == max(win.lo[1], nb.lo[1])
    assert band.hi[1] == min(win.hi[1], nb.hi[1])
    assert ts.slices == nb.local_slices(band) and ts.values.shape == band.shape
    # no transfer across the global boundary
    assert part.transfer_geometry((1, 1), (-1, 0)) is None
    assert part.transfer_geometry((2, 1), (1, 0)) is None
    assert (1, 0) in part.transfer_directions((1, 1))
    assert (-1, 0) not in part.transfer_directions((1, 1))


def test_psi_outside_band_content_zero():
    """A solution supported away from the interface transfers nothing."""
    part, ops = _setup2d()
    win = part.window((1, 1))
    d = part.overlap_d_points
    bk = part.breaks[0][1]
    v = np.zeros(win.shape, dtype=np.complex128)
    v[: bk - win.lo[0] - d - 2, :] = 1.0  # vanishes well before the cutoff ramp
    rhs = np.zeros(win.shape, dtype=np.complex128)
    ts = psi(part, (1, 1), (1, 0), v, rhs)
    np.testing.assert_allclose(ts.values, 0.0, atol=1e-12)


def test_psi_reproduces_cutoff_solution_on_neighbor():
    """Solving only the transferred source yields (1 - beta) u_donor.

    The identity holds on the rows where the donor operator is still
    absorption-free (up to bk + d); past its own onset the donor field is a
    decayed PML continuation and the comparison is meaningless.  Accuracy is
    limited by the donor's local PML truncation.
    """
    part, ops = _setup2d()
    src_idx, nb_idx = (1, 1), (2, 1)
    win = part.window(src_idx)
    rhs = np.zeros(win.shape, dtype=np.complex128)
    box = part.box(src_idx)
    rhs[(box.lo[0] + box.hi[0]) // 2 - win.lo[0],
        (box.lo[1] + box.hi[1]) // 2 - win.lo[1]] = 1.0
    u_src = factorize(ops[src_idx]).solve(rhs)
    ts = psi(part, src_idx, (1, 0), u_src, rhs)
    nb_win = part.window(nb_idx)
    nb_rhs = np.zeros(nb_win.shape, dtype=np.complex128)
    nb_rhs[ts.slices] = ts.values
    u_nb = factorize(ops[nb_idx]).solve(nb_rhs)
    bk = part.breaks[0][1]
    d = part.overlap_d_points
    nodes = np.arange(nb_win.lo[0], bk + d + 1)
    beta = part.beta_1d_nodes(0, 1, 1, nodes)
    a = u_src[nodes[0] - win.lo[0] : nodes[-1] + 1 - win.lo[0], :]
    want = (1.0 - beta)[:, None] * a
    got = u_nb[: nodes.size, :]
    rel = np.linalg.norm(got - want) / np.linalg.norm(a)
    assert rel < 1e-3



def _reference_band(part, index, direction):
    """Target, band, ext (the band grown by one node, inside both windows),
    sign and prod_a (1 - beta_a) on ext, all from scratch."""
    target = tuple(i + c for i, c in zip(index, direction))
    if any(not 1 <= i <= n for i, n in zip(target, part.counts)):
        return None
    d = part.overlap_d_points
    src_win, nb_win = part.window(index), part.window(target)
    lo, hi = [], []
    for a, comp in enumerate(direction):
        bk = part.breaks[a]
        i = index[a]
        if comp == 1:
            lo.append(bk[i])
            hi.append(bk[i] + d)
        elif comp == -1:
            lo.append(bk[i - 1] - d)
            hi.append(bk[i - 1])
        else:
            lo.append(max(src_win.lo[a], nb_win.lo[a]))
            hi.append(min(src_win.hi[a], nb_win.hi[a]))
    band = Window(tuple(lo), tuple(hi))
    ext = band.grow(1).intersect(src_win).intersect(nb_win)
    weight = np.ones(ext.shape)
    for a, comp in enumerate(direction):
        if comp:
            shape = [1] * part.dim
            shape[a] = -1
            nodes = np.arange(ext.lo[a], ext.hi[a] + 1)
            weight = weight * (1.0 - part.beta_1d_nodes(a, comp, index[a], nodes).reshape(shape))
    sign = 1.0 if sum(map(abs, direction)) % 2 == 1 else -1.0
    return target, band, ext, sign, weight


def _reference_psi(part, ops, index, direction, v, rhs):
    """Psi from per-call geometry in the band-term form: s prod(1 - beta) r
    plus, per crossed axis and side, s (w(x +- e_a) - w(x)) times the source
    operator's coupling to that neighbour, times v(x +- e_a)."""
    geometry = _reference_band(part, index, direction)
    if geometry is None:
        return None
    target, band, ext, sign, weight = geometry
    src_win = part.window(index)
    rows = src_win.local_slices(band)
    inner = ext.local_slices(band)
    payload = (sign * weight[inner]) * rhs[rows]
    for a, comp in enumerate(direction):
        if not comp:
            continue
        shape = [1] * part.dim
        shape[a] = -1
        for shift, coupling in zip((-1, 1), ops[index].coefficients[a][:2]):
            moved = list(inner)
            moved[a] = slice(inner[a].start + shift, inner[a].stop + shift)
            delta = sign * (weight[tuple(moved)] - weight[inner])
            moved = list(rows)
            moved[a] = slice(rows[a].start + shift, rows[a].stop + shift)
            payload += (delta * coupling[rows[a]].reshape(shape)) * v[tuple(moved)]
    return target, band, payload


def _stencil_psi(part, ops, index, direction, v, rhs):
    """s * (r + L_target(w v))|_band with w = prod(1 - beta) - 1 on the band
    grown by one node and zero elsewhere in the target's window."""
    target, band, ext, sign, weight = _reference_band(part, index, direction)
    src_win, nb_win = part.window(index), part.window(target)
    padded = np.zeros(nb_win.shape, dtype=np.complex128)
    padded[nb_win.local_slices(ext)] = (weight - 1.0) * v[src_win.local_slices(ext)]
    correction = ops[target].apply(padded)
    return sign * (rhs[src_win.local_slices(band)] + correction[nb_win.local_slices(band)])


def _reference_beta00(part, index):
    win = part.window(index)
    d = part.overlap_d_points
    lo = [bk[i - 1] - d if i > 1 else w for bk, i, w in zip(part.breaks, index, win.lo)]
    hi = [bk[i] + d if i < n else w
          for bk, i, n, w in zip(part.breaks, index, part.counts, win.hi)]
    support = Window(tuple(lo), tuple(hi))
    values = np.ones(support.shape)
    for a, i in enumerate(index):
        shape = [1] * part.dim
        shape[a] = -1
        nodes = np.arange(support.lo[a], support.hi[a] + 1)
        beta = part.beta_1d_nodes(a, -1, i, nodes) * part.beta_1d_nodes(a, 1, i, nodes)
        values = values * beta.reshape(shape)
    return support, values


@pytest.mark.parametrize("dim", (2, 3))
def test_psi_and_beta00_match_per_call_geometry(dim):
    """The partition's cached geometry gives bit-identical transfers and
    blends for every (index, direction), twice in a row, on a mesh of equal
    spacing and on one whose spacing differs per axis, in each medium: Psi's
    1/h_a^2 couplings are the source operator's on the band."""
    pml, d, per = 3, 2, 6
    n = 3 * per + 2 * pml + 1
    rng = np.random.default_rng(3)
    equal, unequal = ((0, 1),) * dim, ((0, 1), (0, 1.7), (0, 0.6))[:dim]
    raster = RasterModel(((0.0, 1.0),) * dim, rng.uniform(1.0, 2.0, (4,) * dim))
    layered = layered_model((0.4, 0.7), (1.0, 2.0, 1.5))
    for extents, model in ((equal, constant_model(1.0)), (unequal, constant_model(1.0)),
                           (unequal, layered), (unequal, raster)):
        grid = make_grid(extents, (n,) * dim)
        part = make_partition(grid, (3,) * dim, d, pml)
        profile = PmlProfile(pml, d, tuned_sigma_max(10.0, pml / (3 * per)))
        ops = build_operators(part, profile, model, 10.0)
        _check_cached_geometry(part, ops, rng)


def _check_cached_geometry(part, ops, rng):
    directions = [c for c in itertools.product((-1, 0, 1), repeat=part.dim) if any(c)]
    for index in part.subdomains():
        shape = part.window(index).shape
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rhs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for direction in directions:
            want = _reference_psi(part, ops, index, direction, v, rhs)
            if want is None:  # the engines never ask for it
                assert direction not in part.transfer_directions(index), (index, direction)
                continue
            for _ in range(2):
                got = psi(part, index, direction, v, rhs)
                target, band, payload = want
                assert got.target == target, (index, direction)
                assert got.slices == part.window(target).local_slices(band), (index, direction)
                assert got.direction == direction
                assert np.array_equal(got.values, payload), (index, direction)
        want_support, want_values = _reference_beta00(part, index)
        for _ in range(2):
            support, values, _ = part.beta00_support(index)
            assert support == want_support, index
            assert np.array_equal(values, want_values), index


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("medium", ("constant", "layered", "raster"))
def test_psi_matches_the_neighbour_stencil_on_solved_fields(dim, medium):
    """With v the local solve of r, the band-term Psi equals the stencil form
    s * (r + L_target(w v))|_band for every (index, direction): the two differ
    only by the rounding of L_source v = r on the band rows.  The largest
    relative difference found was 2.7e-14 (3D, constant medium)."""
    pml, d, per = 3, 2, 6
    n = 3 * per + 2 * pml + 1
    grid = make_grid(((0, 1),) * dim, (n,) * dim)
    part = make_partition(grid, (3,) * dim, d, pml)
    profile = PmlProfile(pml, d, tuned_sigma_max(10.0, pml / (3 * per)))
    rng = np.random.default_rng(5)
    model = {
        "constant": constant_model(1.0),
        "layered": layered_model((0.4, 0.7), (1.0, 2.0, 1.5)),
        "raster": RasterModel(((0.0, 1.0),) * dim, rng.uniform(1.0, 2.0, (4,) * dim)),
    }[medium]
    ops = build_operators(part, profile, model, 10.0)
    worst = 0.0
    for index in part.subdomains():
        shape = part.window(index).shape
        r = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        v = factorize(ops[index]).solve(r)
        for direction in part.transfer_directions(index):
            got = psi(part, index, direction, v, r).values
            want = _stencil_psi(part, ops, index, direction, v, r)
            worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    assert worst < 1e-12
