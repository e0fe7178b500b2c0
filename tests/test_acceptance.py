"""Acceptance suite: headline numerical results and model guarantees.

Each test prints one PASS/FAIL line (with its tolerance) directly to the
terminal, bypassing capture, so a full run leaves a nine-line scorecard.
"""

import csv
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from diagsweep.cli import cmd_convergence, cmd_precond_study, decay_history, fit_decay_rate
from diagsweep.config import load_config
from diagsweep.ddm import (
    additive_ddm_solve,
    build_global_operator,
    build_operators,
    diagonal_sweep_solve,
    octant_exactness_check,
)
from diagsweep.grid import Window, make_grid
from diagsweep.media import constant_model, gaussian_source
from diagsweep.partition import make_partition, source_directions
from diagsweep.pipeline import PipelineSpec, average_time_diagonal, average_time_recursive
from diagsweep.pml import PmlProfile, assemble_operator, tuned_sigma_max
from diagsweep.subdomain import FactorizationCache, SeparableFactorization, factorize
from diagsweep.transfer import rule_allows

DATA = Path(__file__).parent / "data"


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _read_convergence(path):
    rows = []
    with open(path) as fh:
        next(fh)  # config hash comment
        for row in csv.DictReader(fh):
            rows.append(row)
    return rows


def _compact_source(grid, part, index, kappa):
    """Truncated Gaussian supported strictly inside one owned region."""
    mids = [
        grid.axis_coords(a)[(part.breaks[a][i - 1] + part.breaks[a][i]) // 2]
        for a, i in enumerate(index)
    ]
    f = gaussian_source(grid, tuple(mids), kappa)
    mask = np.zeros(grid.counts, dtype=bool)
    inner = tuple(slice(s.start + 1, s.stop - 1) for s in part.owned(index)[0])
    mask[inner] = True
    return np.where(mask, f, 0)


def _exactness_setup_2d():
    cells, pml, d = 200, 15, 5
    n = cells + 2 * pml + 1
    h = 1.0 / cells
    grid = make_grid(((0, h * (n - 1)),) * 2, (n, n))
    part = make_partition(grid, (5, 5), overlap_d_points=d, pml_width_points=pml)
    kappa = 2 * np.pi * 10
    profile = PmlProfile(pml, d, tuned_sigma_max(kappa, pml * h))
    ops = build_operators(part, profile, constant_model(1.0), kappa)
    gop = build_global_operator(part, profile, constant_model(1.0), kappa)
    f = _compact_source(grid, part, (3, 3), kappa)
    return grid, part, ops, gop, f, pml


def test_criterion_1_2d_convergence(capsys):
    from diagsweep.cli import _build_problem, _solve_once
    from diagsweep.reference import radial_solution

    half = 25.0 / 56.0  # keeps the target mesh spacing h = 1/560 at 500 cells
    center = (0.09, 0.268)
    errors = []
    # the absorbing layer keeps a fixed physical width, so its point count
    # scales with the finest meshes
    for cells, pml in ((500, 30), (1000, 30), (2000, 60)):
        cfg = load_config(environ={}, overrides={
            "problem.dim": "2",
            "problem.frequency": "25",
            "problem.interior": f"-{half},{half}; -{half},{half}",
            "problem.center": "0.09, 0.268",
            "discretization.interior_cells": str(cells),
            "discretization.pml_points": str(pml),
            "discretization.overlap_points": "5",
            "partition.counts": "5, 5",
            "solver.mode": "direct-ddm",
        })
        grid, part, ops, gop = _build_problem(cfg)
        f = cfg.build_source(grid)
        u, _, _, _ = _solve_once(cfg, f, part, ops, gop)
        ref = radial_solution(grid, center, cfg.omega)
        sl = part.interior.slices()
        diff = u.values[sl] - ref.values[sl]
        cell = float(np.prod(grid.spacing))
        l2 = float(np.sqrt(np.sum(np.abs(diff) ** 2) * cell))
        h1_sq = l2**2
        for axis, h in enumerate(grid.spacing):
            h1_sq += np.sum(np.abs(np.diff(diff, axis=axis) / h) ** 2) * cell
        errors.append((l2, float(np.sqrt(h1_sq))))
    reference_l2 = (3.13e-3, 7.78e-4, 1.94e-4)
    l2 = [e[0] for e in errors]
    rates = [
        round(float(np.log2(errors[k - 1][j] / errors[k][j])), 2)
        for k in (1, 2) for j in (0, 1)
    ]
    rates_ok = all(1.8 <= r <= 2.2 for r in rates)
    l2_ok = all(ref / 3 <= e <= ref * 3 for e, ref in zip(l2, reference_l2))
    _verdict(
        capsys, 1, rates_ok and l2_ok,
        f"2D rates {rates} in [1.8, 2.2]; "
        f"L2 errors {['%.3e' % e for e in l2]} within 3x of {reference_l2}",
    )


def test_criterion_2_3d_convergence(tmp_path, capsys):
    cfg = load_config(environ={}, overrides={
        "problem.dim": "3",
        "problem.frequency": "10",
        "problem.interior": "-0.375,0.375; -0.375,0.375; -0.375,0.375",
        "problem.center": "0.12, 0.133, 0.125",
        "discretization.interior_cells": "60",
        "discretization.pml_points": "10",
        "discretization.overlap_points": "3",
        "partition.counts": "3, 3, 3",
        "solver.mode": "direct-ddm",
        "convergence.meshes": "60, 90",
    })
    assert cmd_convergence(cfg, tmp_path, np.random.default_rng(0)) == 0
    rows = _read_convergence(tmp_path / "convergence.csv")
    rates = [float(rows[1][k]) for k in ("l2_rate", "h1_rate")]
    ok = all(1.7 <= r <= 2.3 for r in rates)
    _verdict(capsys, 2, ok, f"3D rates {rates} in [1.7, 2.3]")


def test_criterion_3_preconditioner_iterations(tmp_path, capsys):
    cfg = load_config(environ={}, overrides={
        "problem.dim": "2",
        "problem.interior": "0,1; 0,1",
        "discretization.pml_points": "30",
        "discretization.overlap_points": "5",
        "solver.tol": "1e-6",
        "precond.rows": "600,2x2,55; 1200,4x4,105",
    })
    assert cmd_precond_study(cfg, tmp_path, np.random.default_rng(0)) == 0
    with open(tmp_path / "precond_study.csv") as fh:
        next(fh)
        rows = list(csv.DictReader(fh))
    iters = [int(r["n_iter"]) for r in rows]
    converged = all(r["converged"] == "True" for r in rows)
    ok = converged and all(n <= 4 for n in iters) and iters[1] <= iters[0] + 2
    _verdict(
        capsys, 3, ok,
        f"GMRES tol 1e-6 iterations {iters}: each <= 4 and "
        f"n_iter(4x4) <= n_iter(2x2) + 2",
    )


def test_criterion_4_discrete_exactness(capsys):
    results = []
    # 2D: 200^2 interior cells, 5x5 partition
    grid, part, ops, gop, f, pml = _exactness_setup_2d()
    cache = FactorizationCache()
    u, _ = diagonal_sweep_solve(f, part, ops, cache)
    u_ref = factorize(gop).solve(f)
    sl = tuple(slice(pml, -pml) for _ in range(2))
    rel2 = np.linalg.norm(u.values[sl] - u_ref[sl]) / np.linalg.norm(u_ref[sl])
    ua, _ = additive_ddm_solve(f, part, ops, cache)
    add2 = np.linalg.norm(ua.values - u.values) / np.linalg.norm(u.values)
    results.append(("2D", rel2, add2))
    # 3D: 60^3 interior cells, 3x3x3 partition
    cells, pml, d = 60, 10, 3
    n = cells + 2 * pml + 1
    h = 0.75 / cells
    grid = make_grid(((0, h * (n - 1)),) * 3, (n,) * 3)
    part = make_partition(grid, (3, 3, 3), overlap_d_points=d, pml_width_points=pml)
    kappa = 2 * np.pi * 10
    profile = PmlProfile(pml, d, tuned_sigma_max(kappa, pml * h, 4, 30), exponent=4)
    ops = build_operators(part, profile, constant_model(1.0), kappa)
    gop = build_global_operator(part, profile, constant_model(1.0), kappa)
    f = _compact_source(grid, part, (2, 2, 2), kappa)
    cache = FactorizationCache()
    u, _ = diagonal_sweep_solve(f, part, ops, cache)
    u_ref = SeparableFactorization(gop).solve(f)
    sl = tuple(slice(pml, -pml) for _ in range(3))
    rel3 = np.linalg.norm(u.values[sl] - u_ref[sl]) / np.linalg.norm(u_ref[sl])
    ua, _ = additive_ddm_solve(f, part, ops, cache)
    add3 = np.linalg.norm(ua.values - u.values) / np.linalg.norm(u.values)
    results.append(("3D", rel3, add3))
    ok = all(rel <= 1e-4 and add <= 1e-8 for _, rel, add in results)
    _verdict(
        capsys, 4, ok,
        "; ".join(f"{d} interior L2 {rel:.2e} <= 1e-4, additive-vs-diagonal "
                  f"{add:.2e} <= 1e-8" for d, rel, add in results),
    )


def test_criterion_5_octant_construction(capsys):
    grid, part, ops, gop, f, pml = _exactness_setup_2d()
    u_ref = factorize(gop).solve(f)
    _, report = diagonal_sweep_solve(
        f, part, ops, FactorizationCache(), collect_partials=True
    )
    checks = octant_exactness_check(report.partials, u_ref, part, (3, 3))
    octant_ok = all(c["relative_error"] <= 1e-4 for c in checks)
    # outside the beta supports of already-solved subdomains the partial sums
    # are exactly zero
    solved_by_sweep = {}
    for event in report.events:
        if event["nonzero"]:
            solved_by_sweep.setdefault(event["sweep"], []).append(
                tuple(event["subdomain"])
            )
    zero_ok = True
    solved = []
    for sweep, partial in enumerate(report.partials, 1):
        solved += solved_by_sweep.get(sweep, [])
        allowed = np.zeros(grid.counts, dtype=bool)
        for index in solved:
            support, _, _ = part.beta00_support(index)
            allowed[support.slices()] = True
        zero_ok = zero_ok and not np.any(partial[~allowed])
    _verdict(
        capsys, 5, octant_ok and zero_ok,
        f"per-sweep octant errors {['%.1e' % c['relative_error'] for c in checks]} "
        f"<= 1e-4; partial sums exactly zero outside solved beta supports: {zero_ok}",
    )


def test_criterion_6_rule_engine_golden_tables(capsys):
    mismatches = 0
    counts = {}
    for dim, name in ((2, "rule_table_2d.csv"), (3, "rule_table_3d.csv")):
        with open(DATA / name) as fh:
            rows = list(csv.DictReader(fh))
        counts[dim] = len(rows)
        for row in rows:
            src = tuple(int(t) for t in row["src_dir"].split())
            gen = tuple(int(t) for t in row["gen_sweep_dir"].split())
            use = tuple(int(t) for t in row["use_sweep_dir"].split())
            if rule_allows(src, gen, use, dim) != (row["allowed"] == "1"):
                mismatches += 1
    known_ok = (
        not rule_allows((-1, 0), (-1, 1), (1, -1), 2)
        and not rule_allows((0, 1, -1), (1, 1, 1), (-1, 1, -1), 3)
        and not rule_allows((0, -1, -1), (-1, 1, 1), (1, 1, -1), 3)
    )
    ok = mismatches == 0 and counts[2] == 128 and counts[3] == 1664 and known_ok
    _verdict(
        capsys, 6, ok,
        f"rule engine vs golden tables ({counts[2]} 2D + {counts[3]} 3D triples): "
        f"{mismatches} mismatches; known exclusion cases reproduced: {known_ok}",
    )


def test_criterion_7_three_layer_decay(capsys):
    cfg = load_config(environ={}, overrides={
        "problem.dim": "2",
        "problem.frequency": "8",
        "problem.interior": "0,1; 0,1",
        "problem.medium": "layered",
        "problem.depths": "0.28, 0.72",
        "problem.speeds": "1.0, 1.6, 0.9",
        "problem.source": "shots",
        "problem.shots": f"0.25, {1.0 / 3.0}",
        "discretization.interior_cells": "126",
        "discretization.pml_points": "12",
        "discretization.overlap_points": "5",
    })
    f = cfg.build_source(cfg.build_grid())
    rates = []
    for counts in ((3, 3), (1, 2)):
        variant = cfg.with_values({"partition.counts": ",".join(map(str, counts))})
        history = decay_history(variant, f, n_it=26)
        rates.append(fit_decay_rate(history, skip=2, floor=1e-13))
    rel_diff = abs(rates[0] - rates[1]) / abs(rates[1])
    ok = rel_diff <= 0.10 and all(r < 0 for r in rates)
    _verdict(
        capsys, 7, ok,
        f"log10 decay slopes 3x3 {rates[0]:.3f} vs 1x2 {rates[1]:.3f}: "
        f"relative difference {rel_diff:.1%} <= 10%",
    )


def test_criterion_8_pipeline_model(capsys, saturated_pipeline):
    counts = (4, 4, 4)
    spec = PipelineSpec(counts, 2 * (sum(counts) - 2), 10)
    overhead = average_time_diagonal(spec) / (8 * 10 * spec.t0) - 1.0
    overhead_ok = overhead == pytest.approx(0.00625, abs=1e-15)
    _, schedule = saturated_pipeline  # PipelineSpec((3, 3, 3), 100 * 7, 10)
    sim_rel = abs(schedule.avg_per_rhs - schedule.formula_avg) / schedule.formula_avg
    sim_ok = sim_rel < 1e-3
    compare_ok = True
    for nx in range(1, 5):
        for ny in range(1, 5):
            for nz in range(1, 5):
                c = (nx, ny, nz)
                if math.prod(c) > sum(c) - 2:
                    s = PipelineSpec(c, 16, 3)
                    compare_ok = compare_ok and (
                        average_time_diagonal(s) < average_time_recursive(s)
                    )
    ok = overhead_ok and sim_ok and compare_ok
    _verdict(
        capsys, 8, ok,
        f"overhead {overhead:.5%} == 0.625% exactly; saturated simulation vs "
        f"formula {sim_rel:.1e} < 0.1%; diagonal < recursive on all 4^3 specs "
        f"with prod > sum - 2: {compare_ok}",
    )


def test_criterion_9_property_suite(capsys):
    details = []
    cells, pml, d = 60, 10, 4
    n = cells + 2 * pml + 1
    h = 1.0 / cells
    grid = make_grid(((0, h * (n - 1)),) * 2, (n, n))
    part = make_partition(grid, (3, 3), overlap_d_points=d, pml_width_points=pml)
    kappa = 2 * np.pi * 5
    profile = PmlProfile(pml, d, tuned_sigma_max(kappa, pml * h))
    ops = build_operators(part, profile, constant_model(1.0), kappa)
    cache = FactorizationCache()
    rng = np.random.default_rng(0)
    f1 = rng.normal(size=grid.counts) + 1j * rng.normal(size=grid.counts)
    f2 = rng.normal(size=grid.counts) + 1j * rng.normal(size=grid.counts)

    def solve(f):
        return diagonal_sweep_solve(f, part, ops, cache, warn_collar=False)[0].values

    lin = np.linalg.norm(solve(1.7 * f1 + f2) - 1.7 * solve(f1) - solve(f2))
    lin /= np.linalg.norm(solve(f1))
    lin_ok = lin <= 1e-10
    details.append(f"linearity {lin:.1e} <= 1e-10")

    # sigma = 0 reduces the stencil to the plain five-point operator, exactly
    win = grid.full_window()
    box = Window((pml, pml), (n - 1 - pml, n - 1 - pml))
    zero = PmlProfile(pml, d, 0.0)
    A = assemble_operator(grid, win, box, zero, constant_model(1.0), kappa).to_sparse()
    import scipy.sparse as sp

    lap = sp.eye(n) * (-2.0 / h**2) + sp.diags([1.0 / h**2] * (n - 1), 1) \
        + sp.diags([1.0 / h**2] * (n - 1), -1)
    eye = sp.eye(n)
    plain = sp.kron(lap, eye) + sp.kron(eye, lap) + kappa**2 * sp.eye(n * n)
    stencil_ok = (A - plain.astype(np.complex128)).nnz == 0
    details.append(f"sigma=0 stencil identity exact: {stencil_ok}")

    # beta / chi supports, every subdomain exhaustively
    support_ok = True
    probes = sorted(
        {0, n - 1}
        | {b + off for b in part.breaks[0] for off in (-1, 0, 1) if 0 <= b + off < n}
    )
    for index in part.subdomains():
        support, beta, _ = part.beta00_support(index)
        box_w = part.box(index)
        inside = tuple(
            slice(box_w.lo[a] - support.lo[a], box_w.hi[a] - support.lo[a] + 1)
            for a in range(2)
        )
        support_ok = support_ok and np.all(beta[inside] == 1.0)
        support_ok = support_ok and np.all(beta >= 0) and np.all(beta <= 1)
        # the support extends exactly d past interior interfaces and through
        # the whole collar at the global boundary
        for a in range(2):
            want_lo = 0 if index[a] == 1 else box_w.lo[a] - d
            want_hi = n - 1 if index[a] == part.counts[a] else box_w.hi[a] + d
            support_ok = support_ok and support.lo[a] == want_lo
            support_ok = support_ok and support.hi[a] == want_hi
        # chi equals the product indicator of the octant past the breakpoints,
        # breakpoint nodes included
        for direction in source_directions(2):
            for node in itertools.product(probes, repeat=2):
                expected = 1
                for a, (comp, i, p) in enumerate(zip(direction, index, node)):
                    bk = part.breaks[a]
                    if (comp == 1 and p < bk[i]) or (comp == -1 and p > bk[i - 1]):
                        expected = 0
                if part.chi_indicator(direction, index, node) != expected:
                    support_ok = False
    details.append(f"beta/chi support invariants (all {len(list(part.subdomains()))} "
                   f"subdomains x 8 directions): {support_ok}")

    op = ops[(2, 2)]
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    u = cache.get(op).solve(rhs)
    rt = np.linalg.norm(op.apply(u) - rhs) / np.linalg.norm(rhs)
    rt_ok = rt <= 1e-10
    details.append(f"factorization round-trip {rt:.1e} <= 1e-10")

    det_ok = np.array_equal(solve(f1), solve(f1))
    details.append(f"bitwise determinism: {det_ok}")

    ok = lin_ok and stencil_ok and support_ok and rt_ok and det_ok
    _verdict(capsys, 9, ok, "; ".join(details))
