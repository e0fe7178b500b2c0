"""End-to-end runs of the command-line driver."""

import json
import warnings

import numpy as np
import pytest

from diagsweep.cli import EXIT_CONFIG, EXIT_NOCONV, fit_decay_rate, main
from diagsweep.config import load_config
from diagsweep.ddm import restrict_source
from diagsweep.errors import SolverError
from diagsweep.grid import load_field
from diagsweep.media import RasterModel, save_velocity

SMALL = """
[problem]
dim = 2
frequency = 4
interior = 0,1; 0,1
medium = constant
speed = 1.0
source = gaussian
center = 0.52, 0.47

[discretization]
interior_cells = 40
pml_points = 8
overlap_points = 4

[partition]
counts = 2,2

[solver]
mode = gmres-ddm
tol = 1e-8
restart = 30
max_iter = 50

[output]
field_dump = true
quicklook = true
residual_csv = true
event_log = false
"""


@pytest.fixture()
def small_ini(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return path


def _run(args):
    return main([str(a) for a in args])


def test_solve_gmres_artifacts(small_ini, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_ini, "--out", out]) == 0
    info = json.loads((out / "solve_report.json").read_text())
    assert info["mode"] == "gmres-ddm"
    assert info["converged"] and info["final_residual"] <= 1e-8
    assert info["residual"] <= 1e-7
    field = load_field(out / "field.f64le")
    assert field.values.shape == (57, 57)
    assert (out / "quicklook.pgm").read_bytes().startswith(b"P5")
    first = (out / "residuals.csv").read_text().splitlines()[0]
    assert first == f"# config sha256: {info['config_sha256']}"
    stdout = capsys.readouterr().out
    assert json.loads(stdout.splitlines()[-1])["mode"] == "gmres-ddm"


def test_solve_modes_agree(small_ini, tmp_path):
    fields = {}
    for mode in ("global-direct", "direct-ddm", "gmres-ddm"):
        out = tmp_path / mode
        assert _run(["solve", "--config", small_ini, "--out", out,
                     "--set", f"solver.mode={mode}"]) == 0
        fields[mode] = load_field(out / "field.f64le").values
    ref = fields["global-direct"]
    for mode in ("direct-ddm", "gmres-ddm"):
        assert np.linalg.norm(fields[mode] - ref) / np.linalg.norm(ref) < 1e-3


def test_solve_deterministic(small_ini, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run(["solve", "--config", small_ini, "--out", out]) == 0
        outs.append((out / "field.f64le").read_bytes())
    assert outs[0] == outs[1]


def test_event_log(small_ini, tmp_path):
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_ini, "--out", out,
                 "--set", "solver.mode=direct-ddm",
                 "--set", "output.event_log=true"]) == 0
    events = [json.loads(l) for l in (out / "events.jsonl").read_text().splitlines()]
    assert len(events) == 4 * 4  # sweeps x subdomains


def test_ddm_counters_in_solve_report(small_ini, tmp_path):
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_ini, "--out", out,
                 "--set", "solver.mode=direct-ddm",
                 "--set", "partition.counts=4,4",
                 "--set", "discretization.interior_cells=80"]) == 0
    info = json.loads((out / "solve_report.json").read_text())
    # interior subdomains of a constant medium share one factorization
    assert info["factorizations"] == 9
    assert info["cache_misses"] == 9 and info["cache_hits"] > 0
    assert info["factor_bytes"] > 0
    assert info["solves"] >= info["nonzero_solves"] > 0
    assert "discarded_sources" in info
    layers = [info[key] for key in ("solve_s", "transfer_s", "blend_s")]
    assert min(layers) >= 0 and info["solve_s"] > 0
    assert sum(layers) <= info["wall_time"]
    out = tmp_path / "gmres"
    assert _run(["solve", "--config", small_ini, "--out", out]) == 0
    info = json.loads((out / "solve_report.json").read_text())
    assert info["precond_s"] > 0 and info["factorizations"] == 4
    # summed over every preconditioner application
    layers = [info[key] for key in ("solve_s", "transfer_s", "blend_s")]
    assert min(layers) >= 0 and info["solve_s"] > 0
    assert sum(layers) <= info["wall_time"]


def test_collar_warning_needs_collar_mass(small_ini):
    """The SMALL Gaussian's tail in the PML collar is far below COLLAR_LEAK,
    so it does not warn; a source with real mass in the collar does."""
    cfg = load_config(small_ini)
    grid = cfg.build_grid()
    partition = cfg.build_partition(grid)
    f = cfg.build_source(grid)
    collar = f.copy()
    collar[partition.interior.slices()] = 0
    assert np.any(collar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        restrict_source(f, partition)
    f[0, 0] = 1e-3 * np.abs(f).max()
    with pytest.warns(UserWarning, match="leaks into the global PML collar"):
        restrict_source(f, partition)


def test_threads_reach_blas(small_ini, tmp_path):
    """--threads sets the thread count of the loaded OpenBLAS; the report
    says what is in effect (null only when no OpenBLAS is loaded)."""
    for threads in (2, 1):
        out = tmp_path / str(threads)
        assert _run(["solve", "--config", small_ini, "--out", out,
                     "--threads", threads, "--set", "solver.mode=global-direct"]) == 0
        info = json.loads((out / "solve_report.json").read_text())
        assert info["blas_threads"] in (threads, None)


def test_exit_codes(small_ini, tmp_path):
    out = tmp_path / "out"
    # unknown mode and malformed --set are configuration errors
    assert _run(["solve", "--config", small_ini, "--out", out,
                 "--set", "solver.mode=magic"]) == EXIT_CONFIG
    assert _run(["solve", "--config", small_ini, "--out", out,
                 "--set", "nonsense"]) == EXIT_CONFIG
    assert _run(["solve", "--config", tmp_path / "missing.ini"]) == EXIT_CONFIG
    # starving GMRES of iterations reports non-convergence
    assert _run(["solve", "--config", small_ini, "--out", out,
                 "--set", "solver.max_iter=1",
                 "--set", "solver.tol=1e-14"]) == EXIT_NOCONV


@pytest.mark.parametrize("frequency", ("0", "nan"))
def test_bad_frequency_is_a_configuration_error(small_ini, tmp_path, capsys, frequency):
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_ini, "--out", out,
                 "--set", "solver.mode=direct-ddm",
                 "--set", f"problem.frequency={frequency}"]) == EXIT_CONFIG
    assert "frequency must be finite and > 0" in capsys.readouterr().err
    # from the file, the message points at the offending line
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL.replace("frequency = 4", f"frequency = {frequency}"))
    assert _run(["solve", "--config", bad, "--out", out]) == EXIT_CONFIG
    assert f"{bad}:4: frequency" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", (
    ("pml_points = 8", "pml_points = 0", "pml_points must be >= 1"),
    ("overlap_points = 4", "overlap_points = 4\ndamping = nan",
     "damping must be finite and > 0"),
    ("speed = 1.0", "speed = nan", "speed must be finite and > 0"),
    ("restart = 30", "restart = 0", "restart must be >= 1"),
    ("max_iter = 50", "max_iter = 0", "max_iter must be >= 1"),
    ("tol = 1e-8", "tol = nan", "tol must be finite and > 0"),
    ("medium = constant", "medium = layered\ndepths = 0.5\nspeeds = 1, nan",
     "layer speeds must be finite and > 0"),
    ("medium = constant", "medium = layered\nspeeds = 1, 2, 1.5\ndepths = 0.6, 0.3",
     "interface depths must be strictly increasing"),
    ("source = gaussian", "source = shots\nshots =", "no shots, so the source is zero"),
    ("source = gaussian", "source = random-shots\nn_shots = 0",
     "no shots, so the source is zero"),
), ids=("pml_points", "damping", "speed", "restart", "max_iter", "tol",
        "layer_speeds", "layer_depths", "no_shots", "zero_n_shots"))
def test_bad_setting_is_a_configuration_error(tmp_path, capsys, old, new, message):
    text = SMALL.replace(old, new)
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    line = text.splitlines().index(new.splitlines()[-1]) + 1
    assert _run(["solve", "--config", bad, "--out", tmp_path / "out"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{bad}:{line}: {message}" in err


@pytest.mark.parametrize("flag, value", (("--seed", -1), ("--threads", 0), ("--threads", -3)))
def test_bad_argument_is_a_configuration_error(small_ini, tmp_path, capsys, flag, value):
    assert _run(["solve", "--config", small_ini, "--out", tmp_path / "out",
                 flag, value]) == EXIT_CONFIG
    assert f"{flag} must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("dim, sidecar, message", (
    (2, "{not json", "malformed raster sidecar"),
    (2, '{"counts": [3, 3], "extents": [[0, 1]], "dtype": "f32le"}',
     "2 counts but 1 extents"),
    (3, None, "raster_path holds a 3D raster but dim is 2"),
), ids=("sidecar_not_json", "sidecar_extents", "raster_dim"))
def test_bad_raster_is_a_configuration_error(tmp_path, capsys, dim, sidecar, message):
    raster = tmp_path / "speed.raster"
    save_velocity(RasterModel(((0.0, 1.0),) * dim, np.ones((3,) * dim, np.float32)), raster)
    if sidecar is not None:
        raster.with_suffix(".raster.json").write_text(sidecar)
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL.replace("medium = constant",
                                 f"medium = raster\nraster_path = {raster}"))
    assert _run(["solve", "--config", bad, "--out", tmp_path / "out"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_convergence_study(small_ini, tmp_path):
    out = tmp_path / "out"
    assert _run(["convergence", "--config", small_ini, "--out", out,
                 "--set", "convergence.meshes=40, 80",
                 "--set", "solver.mode=direct-ddm"]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header == ["mesh", "h", "l2_error", "l2_rate", "h1_error", "h1_rate"]
    coarse, fine = (line.split(",") for line in lines[2:])
    assert float(fine[2]) < float(coarse[2])
    assert 1.5 < float(fine[3]) < 2.5  # near second order in L2
    # refusing non-constant media and short mesh lists
    assert _run(["convergence", "--config", small_ini, "--out", out,
                 "--set", "convergence.meshes=40"]) == EXIT_CONFIG
    assert _run(["convergence", "--config", small_ini, "--out", out,
                 "--set", "convergence.meshes=40,80",
                 "--set", "problem.medium=layered"]) == EXIT_CONFIG


def test_decay_command(small_ini, tmp_path):
    out = tmp_path / "out"
    assert _run(["decay", "--config", small_ini, "--out", out,
                 "--set", "problem.source=shots",
                 "--set", "problem.shots=0.3, 0.4",
                 "--set", "decay.partitions=2x2; 1x2",
                 "--set", "decay.iterations=8",
                 "--set", "decay.fit_skip=0",
                 "--set", "decay.floor=1e-10"]) == 0
    report = json.loads((out / "decay_report.json").read_text())
    assert set(report["partitions"]) == {"2x2", "1x2"}
    assert "rate_ratio" in report
    for name in ("2x2", "1x2"):
        lines = (out / f"decay_{name}.csv").read_text().splitlines()
        assert len(lines) == 2 + 8
        assert report["partitions"][name]["rate_log10_per_iteration"] < 0


def test_fit_decay_rate():
    history = 10.0 ** (-0.7 * np.arange(12))
    assert fit_decay_rate(history, 2, 1e-30) == pytest.approx(-0.7)
    # entries at the stagnation floor are excluded from the fit
    flat = np.concatenate([history, np.full(6, 1e-12)])
    assert fit_decay_rate(flat, 2, 1e-11) == pytest.approx(-0.7)
    with pytest.raises(SolverError):
        fit_decay_rate(np.full(5, 1e-16), 2, 1e-13)


def test_pipeline_command(small_ini, tmp_path):
    out = tmp_path / "out"
    assert _run(["pipeline", "--config", small_ini, "--out", out,
                 "--set", "pipeline.counts=4,4,4",
                 "--set", "pipeline.n_rhs=20",
                 "--set", "pipeline.n_iter=10"]) == 0
    report = json.loads((out / "pipeline_report.json").read_text())
    assert report["overhead_fraction"] == pytest.approx(0.00625)
    assert abs(report["simulation_vs_formula"]) < 1e-3
    assert report["utilization_max"] <= 1.0 + 1e-12


def test_precond_study(small_ini, tmp_path):
    out = tmp_path / "out"
    assert _run(["precond-study", "--config", small_ini, "--out", out,
                 "--set", "precond.rows=40,2x2,4; 80,2x2,8",
                 "--set", "solver.tol=1e-6"]) == 0
    lines = (out / "precond_study.csv").read_text().splitlines()
    assert len(lines) == 2 + 2
    for line in lines[2:]:
        cells, part, freq, n_iter, converged, wall = line.split(",")
        assert converged == "True"
        assert int(n_iter) <= 6
