"""End-to-end runs of the command-line driver."""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from diagsweep.cli import EXIT_CONFIG, EXIT_NOCONV, _openblas, fit_decay_rate, main
from diagsweep.config import KEYS, load_config
from diagsweep.ddm import check_source
from diagsweep.errors import SolverError
from diagsweep.grid import load_field
from diagsweep.media import RasterModel, save_velocity
from diagsweep.pml import tuned_sigma_max

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
    first, *lines = (out / "residuals.csv").read_text().splitlines()
    assert first == f"# config sha256: {info['config_sha256']}"
    # one preconditioner time per iteration (none on row 0), summing to precond_s
    rows = list(csv.DictReader(lines))
    assert rows[0]["precond_seconds"] == ""
    seconds = [float(row["precond_seconds"]) for row in rows[1:]]
    assert len(seconds) == info["n_iter"]
    assert sum(seconds) == pytest.approx(info["precond_s"], rel=1e-9)
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
    assert "discarded_sources" not in info
    layers = [info[key] for key in ("solve_s", "transfer_s", "blend_s")]
    assert min(layers) >= 0 and info["solve_s"] > 0
    assert sum(layers) <= info["wall_time"]
    out = tmp_path / "gmres"
    assert _run(["solve", "--config", small_ini, "--out", out]) == 0
    info = json.loads((out / "solve_report.json").read_text())
    assert info["precond_s"] > 0 and info["factorizations"] == 4
    # summed over every preconditioner application, one per iteration, each
    # scheduling all 2 x 2 subdomains in every one of the 2**dim sweeps
    assert info["solves"] == info["n_iter"] * 2**2 * (2 * 2)
    assert 0 < info["nonzero_solves"] <= info["solves"]
    assert "discarded_sources" not in info
    layers = [info[key] for key in ("solve_s", "transfer_s", "blend_s")]
    assert min(layers) >= 0 and info["solve_s"] > 0
    assert sum(layers) <= info["wall_time"]


def test_global_direct_assembles_no_subdomain_operator(small_ini, tmp_path, monkeypatch):
    """global-direct solves with the global operator alone and reports no
    DDM counter; decay sweeps whatever the mode, so it still assembles them."""
    import diagsweep.cli as cli

    out = tmp_path / "solve"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_operators", lambda *args: pytest.fail("assembled"))
        assert _run(["solve", "--config", small_ini, "--out", out,
                     "--set", "solver.mode=global-direct"]) == 0
    assert "solves" not in json.loads((out / "solve_report.json").read_text())
    assert _run(["decay", "--config", small_ini, "--out", tmp_path / "decay",
                 "--set", "solver.mode=global-direct", "--set", "decay.partitions=2x2",
                 "--set", "decay.iterations=2", "--set", "decay.fit_skip=0"]) == 0


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
        check_source(f, partition, True)
    f[0, 0] = 1e-3 * np.abs(f).max()
    with pytest.warns(UserWarning, match="leaks into the global PML collar"):
        check_source(f, partition, True)


def test_threads_reach_blas(small_ini, tmp_path):
    """--threads sets the thread count of the loaded OpenBLAS; the report
    says what is in effect (null only when no OpenBLAS is loaded)."""
    for threads in (2, 1):
        out = tmp_path / str(threads)
        assert _run(["solve", "--config", small_ini, "--out", out,
                     "--threads", threads, "--set", "solver.mode=global-direct"]) == 0
        info = json.loads((out / "solve_report.json").read_text())
        loaded = _openblas("get_num_threads")
        assert info["blas_threads"] == (threads if loaded else None)


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
    ("pml_points = 8", "pml_points = -30", "pml_points must be >= 1"),
    ("overlap_points = 4", "overlap_points = 0", "overlap_points must be >= 1"),
    ("overlap_points = 4", "overlap_points = 4\nexponent = -1", "exponent must be >= 1"),
    ("overlap_points = 4", "overlap_points = 4\nexponent = 0", "exponent must be >= 1"),
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
), ids=("pml_points", "negative_pml_points", "overlap_points", "negative_exponent",
        "zero_exponent", "damping", "speed", "restart", "max_iter", "tol",
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


# the fixtures hold only the read-only config and an output directory that
# every example may overwrite, so they are safe to share between examples
FUZZ = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
NOT_FINITE_AND_POSITIVE = st.one_of(
    st.sampled_from(("nan", "inf", "-inf")),
    st.floats(max_value=0.0, allow_nan=False).map(repr),
)


def _refuse_assembly(monkeypatch):
    """Fail the test if the CLI assembles any operator, local or global."""
    import diagsweep.cli as cli

    for name in ("build_operators", "build_global_operator"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("assembled"))


def _exits_2_without_traceback(capsys, args, message):
    assert _run(args) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith("configuration error:") and message in err
    assert "Traceback" not in err
    assert out == ""  # nothing was solved


@given(key=st.sampled_from(("problem.speed", "solver.tol", "discretization.damping")),
       value=NOT_FINITE_AND_POSITIVE)
@FUZZ
def test_any_bad_positive_setting_exits_2(small_ini, tmp_path, capsys, key, value):
    _exits_2_without_traceback(
        capsys, ["solve", "--config", small_ini, "--out", tmp_path / "out",
                 "--set", f"{key}={value}"],
        f"{key.split('.')[1]} must be finite and > 0",
    )


@given(key=st.sampled_from(("restart", "max_iter")), value=st.integers(max_value=0))
@FUZZ
def test_any_gmres_count_below_1_exits_2(small_ini, tmp_path, capsys, key, value):
    _exits_2_without_traceback(
        capsys, ["solve", "--config", small_ini, "--out", tmp_path / "out",
                 "--set", f"solver.{key}={value}"],
        f"{key} must be >= 1",
    )


@given(flag_value=st.one_of(
    st.tuples(st.just("--threads"), st.integers(max_value=0)),
    st.tuples(st.just("--seed"), st.integers(max_value=-1)),
))
@FUZZ
def test_any_bad_argument_exits_2(small_ini, tmp_path, capsys, flag_value):
    flag, value = flag_value
    _exits_2_without_traceback(
        capsys, ["solve", "--config", small_ini, "--out", tmp_path / "out", flag, value],
        f"{flag} must be >= ",
    )


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


@pytest.mark.parametrize("overrides", (
    ("problem.center=0.5",),
    ("problem.center=0.5,0.5,0.5",),
    ("problem.source=shots", "problem.shots=0.5"),
), ids=("center_1", "center_3", "shot_1"))
def test_source_point_needs_dim_coordinates(small_ini, tmp_path, capsys, overrides):
    args = ["solve", "--config", small_ini, "--out", tmp_path / "out"]
    for setting in overrides:
        args += ["--set", setting]
    _exits_2_without_traceback(capsys, args, "coordinates, need 2")


@given(key=st.sampled_from(("center", "shots")),
       point=st.lists(st.floats(0.1, 0.9), min_size=1, max_size=4).filter(lambda p: len(p) != 2))
@FUZZ
def test_any_source_point_of_wrong_length_exits_2(small_ini, tmp_path, capsys, key, point):
    args = ["solve", "--config", small_ini, "--out", tmp_path / "out",
            "--set", f"problem.{key}={','.join(map(repr, point))}"]
    if key == "shots":
        args += ["--set", "problem.source=shots"]
    _exits_2_without_traceback(capsys, args, f"has {len(point)} coordinates, need 2")


NOT_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))


@given(depths=st.lists(st.floats(0.1, 0.9), min_size=1, max_size=3), bad=NOT_FINITE,
       where=st.integers(0, 2))
@FUZZ
def test_any_nonfinite_layer_depth_exits_2(small_ini, tmp_path, capsys, depths, bad, where):
    depths = sorted(depths)
    depths[where % len(depths)] = bad
    _exits_2_without_traceback(
        capsys, ["solve", "--config", small_ini, "--out", tmp_path / "out",
                 "--set", "problem.medium=layered",
                 "--set", f"problem.depths={','.join(map(repr, depths))}",
                 "--set", f"problem.speeds={','.join(['1.0'] * (len(depths) + 1))}"],
        "interface depths must be finite",
    )


FINITE = st.floats(-10.0, 10.0)
BAD_EXTENT = st.one_of(
    st.tuples(FINITE, st.floats(-10.0, 0.0)).map(lambda t: (t[0], t[0] + t[1])),
    st.tuples(NOT_FINITE, FINITE, st.booleans()).map(lambda t: t[:2] if t[2] else t[1::-1]),
)


@given(axis=st.integers(0, 1), sidecar=st.one_of(
    st.tuples(st.just("extents"), BAD_EXTENT),
    st.tuples(st.just("counts"), st.integers(max_value=0)),
))
@FUZZ
def test_any_degenerate_raster_sidecar_exits_2(tmp_path, capsys, axis, sidecar):
    key, value = sidecar
    raster = tmp_path / "speed.raster"
    save_velocity(RasterModel(((0.0, 1.0),) * 2, np.ones((3, 3), np.float32)), raster)
    meta = {"counts": [3, 3], "extents": [[0.0, 1.0], [0.0, 1.0]], "dtype": "f32le"}
    meta[key][axis] = list(value) if key == "extents" else value
    raster.with_suffix(".raster.json").write_text(json.dumps(meta))
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL.replace("medium = constant",
                                 f"medium = raster\nraster_path = {raster}"))
    message = ("raster extents must be finite with lo < hi" if key == "extents"
               else "raster counts must be >= 1")
    _exits_2_without_traceback(
        capsys, ["solve", "--config", bad, "--out", tmp_path / "out"], message
    )


BAD_CELLS = st.integers(max_value=0)
BAD_COUNTS = st.one_of(
    st.tuples(st.integers(max_value=0), st.integers(1, 2)),
    st.tuples(st.integers(1, 2), st.integers(max_value=0)),
    st.lists(st.integers(1, 2), min_size=1, max_size=3).filter(lambda c: len(c) != 2),
).map(lambda counts: "x".join(map(str, counts)))
STUDIES = {  # command, key, good entries, list separator, strategy of a bad entry
    "convergence": ("convergence.meshes", ["40", "80"], ",", st.one_of(
        BAD_CELLS.map(str), st.sampled_from(("40", "80")),  # a repeated mesh has no rate
    )),
    "decay": ("decay.partitions", ["2x2", "1x2"], ";", BAD_COUNTS),
    "precond-study": ("precond.rows", ["40,2x2,4", "80,2x2,8"], ";", st.one_of(
        BAD_CELLS.map(lambda cells: f"{cells},2x2,4"),
        BAD_COUNTS.map(lambda counts: f"40,{counts},4"),
    )),
}


@given(command=st.sampled_from(sorted(STUDIES)), data=st.data())
@FUZZ
def test_any_bad_study_entry_exits_2_before_solving(small_ini, tmp_path, capsys, command,
                                                     data):
    key, entries, sep, bad = STUDIES[command]
    entries = list(entries)
    entries.insert(data.draw(st.integers(0, len(entries))), data.draw(bad))
    _exits_2_without_traceback(
        capsys, [command, "--config", small_ini, "--out", tmp_path / "out",
                 "--set", f"{key}={sep.join(entries)}"], "",
    )


@pytest.mark.parametrize("command", sorted(STUDIES))
def test_empty_study_list_exits_2(small_ini, tmp_path, capsys, command):
    key = STUDIES[command][0]
    section, name = key.split(".")
    _exits_2_without_traceback(
        capsys, [command, "--config", small_ini, "--out", tmp_path / "out",
                 "--set", f"{key}="],
        f"[{section}] {name}: {name} must be a non-empty list",
    )


# the study key's setting comes first; an id joins the keys and values with '-'
@pytest.mark.parametrize("command, settings, entry", (
    ("decay", ["decay.partitions=2x2;0x2"], "0x2"),
    ("precond-study", ["precond.rows=40,2x2,4;0,2x2,4"], "0,2x2,4"),
    ("precond-study", ["precond.rows=40,2x2,4;40,2x3,4"], "40,2x3,4"),
    ("convergence", ["convergence.meshes=40,-3"], "-3"),
    # a medium or source refused only for a later entry: the first one used to solve
    ("precond-study", ["precond.rows=40,2x2,4; 40,2x2,1e300"], "40,2x2,1e300"),
    ("convergence", ["convergence.meshes=40,20", "problem.frequency=200",
                     "discretization.pml_points=4", "discretization.overlap_points=2"], "20"),
), ids=lambda p: "-".join(s.replace("=", "-", 1) for s in p) if isinstance(p, list) else None)
def test_bad_study_entry_names_key_and_entry(small_ini, tmp_path, capsys, command, settings,
                                             entry):
    section, name = settings[0].split("=")[0].split(".")
    args = [command, "--config", small_ini, "--out", tmp_path / "out"]
    for setting in settings:
        args += ["--set", setting]
    _exits_2_without_traceback(capsys, args, f"[{section}] {name}: {name} entry {entry!r}: ")


@pytest.mark.parametrize("setting, message", (
    ("t0=nan", "t0 must be finite and > 0"),
    ("t0=inf", "t0 must be finite and > 0"),
    ("t0=0", "t0 must be finite and > 0"),
    ("transfer_cost=nan", "transfer_cost must be finite and >= 0"),
    ("transfer_cost=-1", "transfer_cost must be finite and >= 0"),
    ("n_rhs=0", "n_rhs must be >= 1"),
    ("n_iter=0", "n_iter must be >= 1"),
))
def test_bad_pipeline_cost_exits_2(small_ini, tmp_path, capsys, setting, message):
    _exits_2_without_traceback(
        capsys, ["pipeline", "--config", small_ini, "--out", tmp_path / "out",
                 "--set", "pipeline.counts=2,2", "--set", "pipeline.n_rhs=3",
                 "--set", "pipeline.n_iter=1", "--set", f"pipeline.{setting}"],
        f"[pipeline] {setting.split('=')[0]}: {message}",
    )


def _small_line(text: str) -> int:
    return SMALL.splitlines().index(text) + 1


# the message about a bad study entry drops the location of a key the study
# set for the entry, and keeps that of a key the user set
@pytest.mark.parametrize("command, setting, message", (
    ("decay", "decay.partitions=2x2;0x2",
     "[decay] partitions: partitions entry '0x2': bad partition counts (0, 2) for dim 2"),
    ("precond-study", "precond.rows=41,2x2,4",
     "[precond] rows: rows entry '41,2x2,4': axis 0: 41 interior cells not divisible"),
    ("convergence", "convergence.meshes=40,41",
     f"[convergence] meshes: meshes entry '41': {{path}}:{_small_line('counts = 2,2')}: "
     "axis 0: 41 interior cells not divisible"),
), ids=("decay", "precond", "convergence"))
def test_study_error_locates_only_keys_the_user_set(small_ini, tmp_path, capsys, command,
                                                    setting, message):
    _exits_2_without_traceback(
        capsys, [command, "--config", small_ini, "--out", tmp_path / "out", "--set", setting],
        message.format(path=small_ini),
    )


# ROADMAP item 16's reproductions: each exited 0 and ignored the misspelling
@pytest.mark.parametrize("command, settings, environ, edit, message", (
    ("solve", ["solver.tolerance=1e-1", "discretization.interior_cell=7",
               "partiton.counts=1,1"], {}, None, "[solver] tolerance"),
    ("solve", ["discretization.interior_cell=7"], {}, None,
     "[discretization] interior_cell"),
    ("solve", ["partiton.counts=1,1"], {}, None, "[partiton] counts"),
    ("solve", ["SOLVER.tol=1e-1"], {}, None, "[SOLVER] tol"),
    ("solve", [], {}, ("tol = 1e-8", "toll = 1"),
     f"{{path}}:{_small_line('tol = 1e-8')}: unknown configuration key [solver] toll"),
    ("solve", [], {}, ("[output]\nfield_dump = true", "[outptu]\nfield_dump = false"),
     f"{{path}}:{_small_line('[output]')}: unknown configuration section [outptu]"),
    ("solve", [], {"DIAGSWEEP_SOLVER_TOLERANCE": "0.5"}, None,
     "DIAGSWEEP_SOLVER_TOLERANCE: unknown configuration key [solver] tolerance"),
    ("pipeline", ["pipeline.counts=0,3", "pipeline.n_rhs=3", "pipeline.n_iter=1"], {}, None,
     "[pipeline] counts: counts must be 2 or 3 counts >= 1, got [0, 3]"),
), ids=("set_three", "set_interior_cell", "set_partiton", "set_upper_case_section",
        "file_key", "file_section", "environment", "pipeline_counts"))
def test_misspelled_or_bad_setting_exits_2(tmp_path, capsys, monkeypatch, command,
                                           settings, environ, edit, message):
    path = tmp_path / "run.ini"
    path.write_text(SMALL.replace(*edit) if edit else SMALL)
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    args = [command, "--config", path, "--out", tmp_path / "out"]
    for setting in settings:
        args += ["--set", setting]
    _exits_2_without_traceback(capsys, args, message.format(path=path))
    assert not (tmp_path / "out" / "field.f64le").exists()


@st.composite
def misspelled_keys(draw):
    """A (section, key) of KEYS with one letter of its section or its key
    inserted, deleted or replaced, such that KEYS lacks it."""
    names = list(draw(st.sampled_from(sorted(KEYS))))
    which, char = draw(st.integers(0, 1)), draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz_"))
    name = names[which]
    at = draw(st.integers(0, len(name)))
    names[which] = draw(st.sampled_from((
        name[:at] + char + name[at:], name[:at] + name[at + 1:], name[:at] + char + name[at + 1:],
    )))
    assume(all(names) and tuple(names) not in KEYS)
    return tuple(names)


@given(names=misspelled_keys(), channel=st.sampled_from(("file", "environment", "--set")))
@FUZZ
def test_any_misspelled_key_exits_2(small_ini, tmp_path, capsys, monkeypatch, names, channel):
    """A misspelled section or key exits 2 from each of the three sources, and
    the message cites its file line, names its variable or its [section] key."""
    section, key = names
    known_section = any(section == known for known, _ in KEYS)
    args = ["solve", "--config", small_ini, "--out", tmp_path / "out"]
    with monkeypatch.context() as patch:
        if channel == "file":
            path = tmp_path / "misspelled.ini"
            path.write_text(f"[{section}]\n{key} = 1\n")
            args[2] = path
            message = f"{path}:{2 if known_section else 1}: unknown configuration "
        elif channel == "environment":
            message = f"DIAGSWEEP_{section.upper()}_{key.upper()}"
            patch.setenv(message, "1")
        else:
            args += ["--set", f"{section}.{key}=1"]
            message = f"unknown configuration key [{section}] {key}"
        _exits_2_without_traceback(capsys, args, message)


@pytest.mark.parametrize("command, settings, message, assembles", (
    ("solve", ["solver.mode=bogus"],
     "[solver] mode: unknown mode 'bogus', expected direct-ddm | gmres-ddm | global-direct",
     False),
    ("solve", ["problem.center=0.5"],
     "[problem] center: source location (0.5,) has 1 coordinates, need 2", False),
    ("solve", ["problem.source=shots", "problem.shots=0.5,0.5;0.5"],
     "[problem] shots: source location (0.5,) has 1 coordinates, need 2", False),
    ("convergence", ["convergence.meshes=40,80", "problem.center=0.5"],
     "[problem] center: center must be 2 coordinates, got (0.5,)", False),
    ("solve", ["partition.counts=3,3"],
     "[partition] counts: axis 0: 40 interior cells not divisible by 3 subdomains", False),
    # the study's wavenumber is omega / speed: speed 0 was a ZeroDivisionError
    ("convergence", ["convergence.meshes=40,80", "problem.speed=0"],
     "[problem] speed: speed must be finite and > 0, got 0.0", False),
), ids=("mode", "center", "shots", "convergence_center", "partition_counts",
        "convergence_speed"))
def test_bad_value_names_its_key(small_ini, tmp_path, capsys, monkeypatch, command,
                                 settings, message, assembles):
    """The message names the key; a check that needs no operator exits 2
    before any is assembled."""
    if not assembles:
        _refuse_assembly(monkeypatch)
    args = [command, "--config", small_ini, "--out", tmp_path / "out"]
    for setting in settings:
        args += ["--set", setting]
    _exits_2_without_traceback(capsys, args, message)


@pytest.mark.parametrize("command, settings", (
    ("solve", ["solver.mode=direct-ddm"]),
    ("solve", ["solver.mode=gmres-ddm"]),
    ("solve", ["solver.mode=global-direct"]),
    ("decay", ["decay.partitions=2x2"]),
    ("convergence", ["convergence.meshes=40,80"]),
), ids=("direct-ddm", "gmres-ddm", "global-direct", "decay", "convergence"))
def test_zero_source_exits_2(small_ini, tmp_path, capsys, monkeypatch, command, settings):
    """A Gaussian that underflows on every node is refused before assembly:
    it used to give an all-zero field and a NaN residual, or a decay study
    that "reached the floor"."""
    _refuse_assembly(monkeypatch)
    args = [command, "--config", small_ini, "--out", tmp_path / "out"]
    for setting in ["problem.frequency=1000", *settings]:
        args += ["--set", setting]
    _exits_2_without_traceback(
        capsys, args, "[problem] frequency: source gaussian is zero on every grid node")


_BAD_INTERIOR = "[problem] interior: interior must be lo,hi pairs, each finite with lo < hi"
_BAD_SPACING = "[problem] interior: axis 0: mesh spacing {} leaves 1/h^2 not finite and positive"
_SLOW = "kappa^2 = (omega / speed)^2 overflows at speed 1e-300"


@pytest.mark.parametrize("mode", ("direct-ddm", "gmres-ddm", "global-direct"))
@pytest.mark.parametrize("settings, message", (
    (["problem.interior=-inf,1; 0,1"], _BAD_INTERIOR),
    (["problem.interior=0,inf; 0,1"], _BAD_INTERIOR),
    (["problem.interior=1,0; 0,1"], _BAD_INTERIOR),
    (["discretization.damping=1e308"],
     "[discretization] damping: sigma_max must be finite and >= 0, got inf"),
    (["problem.frequency=1e308"],
     "[problem] frequency: frequency must be small enough that 2*pi*frequency is finite, "
     "got 1e+308"),
    # {frequency} is the file line of the frequency
    (["problem.speed=1e-300"], "[problem] speed, {frequency}: " + _SLOW),
    (["problem.medium=layered", "problem.depths=0.5", "problem.speeds=1,1e-300"],
     "[problem] speeds, {frequency}: " + _SLOW),
    (["problem.interior=0,1e300; 0,1"], _BAD_SPACING.format("2.5e+298")),
    (["problem.interior=0,1e-300; 0,1", "problem.center=0,0.47"],
     _BAD_SPACING.format("2.5e-302")),
), ids=("interior_lo_inf", "interior_hi_inf", "interior_inverted", "damping_overflow",
        "frequency_overflow", "speed_underflow", "layer_speed_underflow",
        "spacing_overflow", "spacing_underflow"))
def test_unusable_interior_or_damping_exits_2(small_ini, tmp_path, capsys, monkeypatch, mode,
                                              settings, message):
    """Each input is refused before assembly, naming its key.  A non-finite
    interior gave a NaN field and residual with exit 0 (exit 3 in gmres-ddm),
    an inverted one a message about the grid's grown extents.  A damping that
    overflows sigma_max, a frequency whose omega overflows and a layer speed
    at which kappa^2 does gave a traceback from the Schur factorization, and
    a constant speed that low an OverflowError.  An interior whose mesh
    spacing over- or underflows 1/h^2 gave a NaN field or a ZeroDivisionError."""
    _refuse_assembly(monkeypatch)
    args = ["solve", "--config", small_ini, "--out", tmp_path / "out",
            "--set", f"solver.mode={mode}"]
    for setting in settings:
        args += ["--set", setting]
    frequency = f"{small_ini}:{_small_line('frequency = 4')}"
    _exits_2_without_traceback(capsys, args, message.format(frequency=frequency))


def test_out_of_memory_exits_2_in_one_line(small_ini, tmp_path, capsys, monkeypatch):
    """A problem too large to assemble exits 2 with one stderr line."""
    import diagsweep.cli as cli

    def exhausted(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "build_global_operator", exhausted)
    assert _run(["solve", "--config", small_ini, "--out", tmp_path / "out"]) == EXIT_CONFIG
    _, err = capsys.readouterr()
    assert err == "out of memory: Unable to allocate 7.28 TiB for an array\n"


def test_raster_speed_that_overflows_kappa2_exits_2(small_ini, tmp_path, capsys, monkeypatch):
    """kappa^2 at the slowest raster speed overflowed in `pml._kappa2`."""
    samples = np.ones((3, 3), np.float32)
    samples[1, 1] = 1e-38
    raster = tmp_path / "speed.raster"
    save_velocity(RasterModel(((0.0, 1.0),) * 2, samples), raster)
    _refuse_assembly(monkeypatch)
    args = ["solve", "--config", small_ini, "--out", tmp_path / "out"]
    for setting in ("problem.medium=raster", f"problem.raster_path={raster}",
                    "problem.frequency=1e140", "problem.source=shots", "problem.shots=0.5,0.5"):
        args += ["--set", setting]
    _exits_2_without_traceback(capsys, args, "[problem] raster_path, [problem] frequency: "
                               "kappa^2 = (omega / speed)^2 overflows at speed 1e-38")


# each partition refusal names every key it depends on, the overridden one
# as [section] key and the others by their file line, counts last
@pytest.mark.parametrize("setting, keys, message", (
    ("discretization.overlap_points=40",
     ("interior_cells = 40", "[discretization] overlap_points", "pml_points = 8", "counts = 2,2"),
     "axis 0: subdomain size 20 smaller than overlap+pml 48"),
    ("discretization.pml_points=200",
     ("interior_cells = 40", "overlap_points = 4", "[discretization] pml_points", "counts = 2,2"),
     "axis 0: subdomain size 20 smaller than overlap+pml 204"),
    ("discretization.interior_cells=41",
     ("[discretization] interior_cells", "counts = 2,2"),
     "axis 0: 41 interior cells not divisible by 2 subdomains"),
), ids=("overlap_points", "pml_points", "interior_cells"))
def test_partition_error_names_the_keys_it_depends_on(small_ini, tmp_path, capsys, monkeypatch,
                                                      setting, keys, message):
    _refuse_assembly(monkeypatch)
    where = ", ".join(key if key.startswith("[") else f"{small_ini}:{_small_line(key)}"
                      for key in keys)
    _exits_2_without_traceback(
        capsys, ["solve", "--config", small_ini, "--out", tmp_path / "out", "--set", setting],
        f"{where}: {message}",
    )


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
    # refusing short mesh lists (other media and sources: the tests below)
    assert _run(["convergence", "--config", small_ini, "--out", out,
                 "--set", "convergence.meshes=40"]) == EXIT_CONFIG


@pytest.mark.parametrize("settings, message", (
    (["problem.medium=layered"],
     "[problem] medium: medium must be constant for the convergence study, got 'layered'"),
    (["problem.source=shots", "problem.shots=0.5,0.5"],
     "[problem] source: source must be gaussian for the convergence study, got 'shots'"),
), ids=("medium", "source"))
def test_convergence_study_names_the_refused_key(small_ini, tmp_path, capsys, settings,
                                                 message):
    args = ["convergence", "--config", small_ini, "--out", tmp_path / "out",
            "--set", "convergence.meshes=40,80"]
    for setting in settings:
        args += ["--set", setting]
    _exits_2_without_traceback(capsys, args, message)


def test_convergence_study_names_the_file_line(tmp_path, capsys):
    path = tmp_path / "layered.ini"
    path.write_text(SMALL.replace("medium = constant", "medium = layered"))
    line = SMALL.splitlines().index("medium = constant") + 1
    _exits_2_without_traceback(
        capsys, ["convergence", "--config", path, "--out", tmp_path / "out",
                 "--set", "convergence.meshes=40,80"],
        f"{path}:{line}: medium must be constant for the convergence study",
    )


def test_convergence_study_tunes_each_mesh(small_ini, tmp_path, monkeypatch):
    """Every mesh of the study is solved at the configured damping: its PML
    amplitude is tuned to its own spacing, not to interior_cells'."""
    import diagsweep.cli as cli

    build_operators, seen = cli.build_operators, {}

    def recording(partition, profile, model, omega):
        seen[partition.grid.counts[0]] = profile.sigma_max
        return build_operators(partition, profile, model, omega)

    monkeypatch.setattr(cli, "build_operators", recording)
    assert _run(["convergence", "--config", small_ini, "--out", tmp_path / "out",
                 "--set", "convergence.meshes=40,60",
                 "--set", "solver.mode=direct-ddm"]) == 0
    # SMALL: frequency 4, 8 PML points on each side of a unit interior
    omega = 2 * math.pi * 4
    assert seen == {cells + 17: tuned_sigma_max(omega, 8 * (1 / cells)) for cells in (40, 60)}


def test_convergence_study_off_unit_speed(small_ini, tmp_path):
    """The reference is driven by the same Gaussian as the solve at any
    speed, so the study still reads second order."""
    out = tmp_path / "out"
    assert _run(["convergence", "--config", small_ini, "--out", out,
                 "--set", "convergence.meshes=40,80",
                 "--set", "problem.speed=2.0",
                 "--set", "solver.mode=direct-ddm"]) == 0
    fine = (out / "convergence.csv").read_text().splitlines()[-1].split(",")
    assert float(fine[3]) > 1.5


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


def test_decay_partition_at_the_floor_has_no_rate(small_ini, tmp_path):
    """A partition that converges before enough residuals above the floor is
    reported without a rate; the study still succeeds."""
    out = tmp_path / "out"
    assert _run(["decay", "--config", small_ini, "--out", out, "--threads", 1,
                 "--set", "decay.iterations=8",
                 "--set", "decay.partitions=2x2;1x2"]) == 0
    report = json.loads((out / "decay_report.json").read_text())
    assert round(report["partitions"]["2x2"]["rate_log10_per_iteration"], 3) == -4.307
    assert report["partitions"]["1x2"]["rate_log10_per_iteration"] is None
    assert report["rate_ratio"] is None
    for name in ("2x2", "1x2"):
        assert len((out / f"decay_{name}.csv").read_text().splitlines()) == 2 + 8


@pytest.mark.parametrize("setting, message", (
    ("decay.fit_skip=-1", "fit_skip must be >= 0"),
    ("decay.iterations=3", "iterations must be fit_skip + 2 or more"),
    ("decay.floor=nan", "floor must be finite and >= 0"),
    ("decay.floor=-1e-13", "floor must be finite and >= 0"),
))
def test_bad_decay_fit_exits_2(small_ini, tmp_path, capsys, setting, message):
    _exits_2_without_traceback(
        capsys, ["decay", "--config", small_ini, "--out", tmp_path / "out",
                 "--set", setting], message,
    )


def test_decay_random_shots_follow_seed(small_ini, tmp_path):
    """Random shots are drawn from --seed once per run, and every partition
    solves that one source."""
    tables = {}
    for run, seed in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / run
        assert _run(["decay", "--config", small_ini, "--out", out, "--seed", seed,
                     "--set", "problem.source=random-shots",
                     "--set", "problem.n_shots=2",
                     "--set", "decay.partitions=2x2; 1x2",
                     "--set", "decay.iterations=4",
                     "--set", "decay.fit_skip=0",
                     "--set", "decay.floor=1e-10"]) == 0
        tables[run] = [(out / f"decay_{name}.csv").read_bytes() for name in ("2x2", "1x2")]
    assert tables["a"] == tables["b"]
    assert all(x != y for x, y in zip(tables["a"], tables["c"]))


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


@pytest.mark.parametrize("command, settings", (
    ("decay", ("decay.partitions=2x2;1x2", "decay.iterations=4", "decay.fit_skip=0")),
    ("precond-study", ("precond.rows=40,2x2,4; 40,1x2,4",)),
), ids=("decay", "precond-study"))
def test_study_loads_a_raster_once_per_entry(small_ini, tmp_path, monkeypatch, command,
                                             settings):
    """Each entry's problem is built once: checked before the first solve,
    then solved as it was checked."""
    import diagsweep.config as config

    raster = tmp_path / "speed.raster"
    samples = np.random.default_rng(1).uniform(1.0, 2.0, (9, 9)).astype(np.float32)
    save_velocity(RasterModel(((0.0, 1.0),) * 2, samples), raster)
    load_velocity, loads = config.load_velocity, []

    def counting(path):
        loads.append(path)
        return load_velocity(path)

    monkeypatch.setattr(config, "load_velocity", counting)
    args = [command, "--config", small_ini, "--out", tmp_path / "out"]
    for setting in ("problem.medium=raster", f"problem.raster_path={raster}", *settings):
        args += ["--set", setting]
    assert _run(args) == 0
    assert len(loads) == 2  # one per entry


def test_precond_study_3d(small_ini, tmp_path):
    """The four 2D shots become the eight octant centres of the interior in 3D."""
    out = tmp_path / "out"
    assert _run(["precond-study", "--config", small_ini, "--out", out,
                 "--set", "problem.dim=3",
                 "--set", "problem.interior=0,1; 0,1; 0,1",
                 "--set", "problem.center=0.5, 0.5, 0.5",
                 "--set", "discretization.pml_points=4",
                 "--set", "discretization.overlap_points=2",
                 "--set", "precond.rows=16,2x2x2,2",
                 "--set", "solver.tol=1e-6"]) == 0
    lines = (out / "precond_study.csv").read_text().splitlines()
    assert len(lines) == 2 + 1
    assert lines[2].split(",")[4] == "True"
