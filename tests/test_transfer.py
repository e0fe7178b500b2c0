"""Source-transfer operator geometry and the sweep-admissibility rules."""

import csv
import itertools
from pathlib import Path

import numpy as np
import pytest

from diagsweep.ddm import SweepPlan, build_operators
from diagsweep.grid import make_grid
from diagsweep.media import constant_model
from diagsweep.partition import make_partition
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
    assert similar_direction((1, 0), (1, 1), 2)
    assert similar_direction((1, -1), (1, -1), 2)
    # 2D needs a strictly positive dot product
    assert not similar_direction((1, -1), (1, 1), 2)
    # 3D adds the no-sign-conflict requirement: positive dot is not enough
    assert not similar_direction((1, 1, -1), (1, 1, 1), 3)
    assert similar_direction((1, 0, 0), (1, 1, 1), 3)


def test_next_usable_sweep_default_2d_plan():
    plan = SweepPlan.default(2).directions
    # forward source generated in sweep 1 is usable immediately
    assert next_usable_sweep((1, 0), 1, plan) == 1
    # backward diagonal source from sweep 1 waits for the last sweep
    assert next_usable_sweep((-1, -1), 1, plan) == 4
    # axis source whose only similar remaining sweep opposes its generator
    # is dropped entirely
    assert next_usable_sweep((1, 0), 2, plan) is None
    # the final sweep can still consume its own leftward sources
    assert next_usable_sweep((-1, 0), 4, plan) == 4


def test_sweep_plan_validation():
    with pytest.raises(Exception):
        SweepPlan(((1, 1), (1, -1), (-1, 1), (1, 1)))  # missing (-1,-1)
    assert len(SweepPlan.default(3).directions) == 8
    assert len(SweepPlan.alternate_3d().directions) == 8


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
    ts = psi(part, ops, (1, 1), (1, 0), v, rhs)
    assert ts.target == (2, 1)
    assert ts.window.lo[0] == bk and ts.window.hi[0] == bk + d
    nb = part.window((2, 1))
    assert ts.window.lo[1] == max(win.lo[1], nb.lo[1])
    assert ts.window.hi[1] == min(win.hi[1], nb.hi[1])
    # no transfer across the global boundary
    assert psi(part, ops, (1, 1), (-1, 0), v, rhs) is None
    assert psi(part, ops, (2, 1), (1, 0), v, rhs) is None


def test_psi_outside_band_content_zero():
    """A solution supported away from the interface transfers nothing."""
    part, ops = _setup2d()
    win = part.window((1, 1))
    d = part.overlap_d_points
    bk = part.breaks[0][1]
    v = np.zeros(win.shape, dtype=np.complex128)
    v[: bk - win.lo[0] - d - 2, :] = 1.0  # vanishes well before the cutoff ramp
    rhs = np.zeros(win.shape, dtype=np.complex128)
    ts = psi(part, ops, (1, 1), (1, 0), v, rhs)
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
    ts = psi(part, ops, src_idx, (1, 0), u_src, rhs)
    nb_win = part.window(nb_idx)
    nb_rhs = np.zeros(nb_win.shape, dtype=np.complex128)
    nb_rhs[nb_win.local_slices(ts.window)] = ts.values
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

