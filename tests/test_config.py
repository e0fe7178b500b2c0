"""Configuration resolution, validation diagnostics and typed builders."""

import numpy as np
import pytest

from diagsweep.config import RunConfig, load_config
from diagsweep.errors import ConfigurationError
from diagsweep.media import LayeredModel
from diagsweep.pml import DEFAULT_DAMPING, tuned_sigma_max


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_defaults_only():
    cfg = load_config(environ={})
    assert cfg.dim == 2
    assert cfg.getfloat("solver", "tol") == 1e-6
    assert cfg.get("problem", "medium") == "constant"


def test_precedence_file_env_override(tmp_path):
    path = _write(tmp_path, "[problem]\nfrequency = 7\ndim = 2\n")
    cfg = load_config(path, environ={})
    assert cfg.getfloat("problem", "frequency") == 7
    cfg = load_config(path, environ={"DIAGSWEEP_PROBLEM_FREQUENCY": "9"})
    assert cfg.getfloat("problem", "frequency") == 9
    cfg = load_config(
        path,
        environ={"DIAGSWEEP_PROBLEM_FREQUENCY": "9"},
        overrides={"problem.frequency": "11"},
    )
    assert cfg.getfloat("problem", "frequency") == 11
    with pytest.raises(ConfigurationError):
        load_config(path, environ={}, overrides={"frequency": "11"})


def test_missing_file_and_key(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(tmp_path / "absent.ini", environ={})
    cfg = load_config(environ={})
    with pytest.raises(ConfigurationError, match=r"\[convergence\] meshes"):
        cfg.get("convergence", "meshes")


def test_diagnostics_carry_file_and_line(tmp_path):
    path = _write(
        tmp_path,
        "[problem]\ndim = 2\n\n[discretization]\npml_points = many  # bad\n",
    )
    cfg = load_config(path, environ={})
    with pytest.raises(ConfigurationError, match=r"run\.ini:5.*integer"):
        cfg.getint("discretization", "pml_points")


def test_overridden_value_is_named_by_key(tmp_path):
    """A bad value from the environment or an override names its key; the
    file line it replaced had nothing to do with it."""
    path = _write(
        tmp_path,
        "[discretization]\ninterior_cells = 40\n\n[solver]\ntol = 1e-6\n",
    )
    cfg = load_config(path, environ={}, overrides={"discretization.interior_cells": "x"})
    with pytest.raises(ConfigurationError) as err:
        cfg.interior_cells()
    assert str(err.value).startswith("[discretization] interior_cells: bad entry 'x'")
    cfg = load_config(path, environ={"DIAGSWEEP_SOLVER_TOL": "-1"})
    with pytest.raises(ConfigurationError) as err:
        cfg.gmres_settings()
    assert str(err.value).startswith("[solver] tol: tol must be finite and > 0")
    # a bad value in the file still cites its line, however its key is cased
    bad = _write(tmp_path, "[solver]\nmode = gmres-ddm\nTol = -1\n", "bad.ini")
    with pytest.raises(ConfigurationError, match=r"bad\.ini:3: tol must be"):
        load_config(bad, environ={}).gmres_settings()


def test_with_values_copies_and_renames_provenance(tmp_path):
    """A variant shares no dict with its config, and a replaced key is named
    by [section] key while an untouched key still cites its file line."""
    path = _write(tmp_path, "[solver]\ntol = -1\nrestart = 0\n")
    cfg = load_config(path, environ={})
    before = {sec: dict(kv) for sec, kv in cfg.values.items()}
    variant = cfg.with_values({"solver.tol": "-2", "precond.rows": "40,2x2,4"})
    assert cfg.values == before and "precond" not in cfg.values
    assert variant.values["solver"]["tol"] == "-2"
    variant.values["solver"]["mode"] = "direct-ddm"
    assert cfg.values["solver"]["mode"] == before["solver"]["mode"]
    with pytest.raises(ConfigurationError) as err:
        variant.gmres_settings()
    assert str(err.value).startswith("[solver] tol: tol must be finite and > 0, got -2.0")
    with pytest.raises(ConfigurationError, match=r"run\.ini:2: tol must be"):
        cfg.gmres_settings()
    variant = cfg.with_values({"solver.tol": "1e-6"})
    with pytest.raises(ConfigurationError, match=r"run\.ini:3: restart must be >= 1"):
        variant.gmres_settings()
    with pytest.raises(ConfigurationError, match="not section.key"):
        cfg.with_values({"tol": "1"})


def test_typed_accessors():
    cfg = load_config(environ={}, overrides={
        "x.flag": "on", "x.off": "no", "x.list": "1, 2,3", "x.bad": "maybe",
        "x.pairs": "0,1; 0.5, 2",
    })
    assert cfg.getbool("x", "flag") is True
    assert cfg.getbool("x", "off") is False
    assert cfg.getlist("x", "list", int) == [1, 2, 3]
    assert cfg.getpairs("x", "pairs") == [(0.0, 1.0), (0.5, 2.0)]
    with pytest.raises(ConfigurationError):
        cfg.getbool("x", "bad")
    with pytest.raises(ConfigurationError):
        cfg.getlist("x", "bad", int)


def test_sha256_stable_and_sensitive():
    a = load_config(environ={})
    b = load_config(environ={})
    assert a.sha256 == b.sha256
    c = load_config(environ={}, overrides={"problem.frequency": "12"})
    assert c.sha256 != a.sha256
    # insertion order of sections must not matter
    d = RunConfig({"b": {"k": "1"}, "a": {"k": "2"}})
    e = RunConfig({"a": {"k": "2"}, "b": {"k": "1"}})
    assert d.sha256 == e.sha256


def test_grid_builder_adds_collar():
    cfg = load_config(environ={}, overrides={
        "problem.interior": "0,1; 0,2",
        "discretization.interior_cells": "40, 80",
        "discretization.pml_points": "10",
    })
    grid = cfg.build_grid()
    assert grid.counts == (61, 101)
    np.testing.assert_allclose(grid.spacing, (0.025, 0.025))
    np.testing.assert_allclose(grid.extents[0], (-0.25, 1.25))


def test_builder_validation():
    cfg = load_config(environ={}, overrides={"problem.dim": "4"})
    with pytest.raises(ConfigurationError, match="dim must be 2 or 3"):
        cfg.dim
    cfg = load_config(environ={}, overrides={"problem.interior": "0,1"})
    with pytest.raises(ConfigurationError, match="pairs"):
        cfg.interior_extents()
    cfg = load_config(environ={}, overrides={
        "discretization.interior_cells": "10,20,30"})
    with pytest.raises(ConfigurationError, match="cell counts"):
        cfg.interior_cells()
    cfg = load_config(environ={}, overrides={"problem.medium": "magic"})
    with pytest.raises(ConfigurationError, match="unknown medium"):
        cfg.build_model()
    cfg = load_config(environ={}, overrides={"problem.source": "magic"})
    with pytest.raises(ConfigurationError, match="unknown source"):
        cfg.build_source(None)


def test_model_and_profile_builders():
    cfg = load_config(environ={}, overrides={
        "problem.medium": "layered",
        "problem.depths": "0.3, 0.6",
        "problem.speeds": "1.0, 2.0, 1.5",
        "discretization.interior_cells": "40",
    })
    model = cfg.build_model()
    assert isinstance(model, LayeredModel)
    profile = cfg.build_profile(cfg.build_grid())
    assert profile.pml_width_points == 12
    h = 1.0 / 40
    expected = DEFAULT_DAMPING * 3 / (2 * cfg.omega * 12 * h)
    assert profile.sigma_max == pytest.approx(expected)


@pytest.mark.parametrize("cells", ((60, 60), (90, 90), (30, 45)))
def test_profile_is_tuned_to_the_grid_mesh(cells):
    """The PML damping is that of the mesh solved, not of interior_cells."""
    cfg = load_config(environ={}, overrides={
        "problem.interior": "0,1; 0,2",
        "discretization.interior_cells": "60",
        "discretization.damping": "20",
        "discretization.exponent": "3",
    })
    mesh = cfg.with_values({"discretization.interior_cells": ",".join(map(str, cells))})
    profile = cfg.build_profile(mesh.build_grid())
    h = min(1.0 / cells[0], 2.0 / cells[1])
    assert profile.sigma_max == tuned_sigma_max(cfg.omega, 12 * h, 3, 20.0)


def test_cells_broadcast_and_partition_counts():
    cfg = load_config(environ={}, overrides={
        "discretization.interior_cells": "60",
        "partition.counts": "3,2",
    })
    assert cfg.interior_cells() == (60, 60)
    assert cfg.partition_counts() == (3, 2)
    grid = cfg.build_grid()
    part = cfg.build_partition(grid)
    assert part.counts == (3, 2)


def test_pipeline_and_decay_builders():
    cfg = load_config(environ={}, overrides={
        "pipeline.counts": "3,3", "pipeline.n_rhs": "8", "pipeline.n_iter": "2",
    })
    spec = cfg.pipeline_spec()
    assert spec.counts == (3, 3) and spec.n_rhs == 8
    counts = lambda t: tuple(map(int, t.split("x")))
    assert cfg.getentries("decay", "partitions", ";", counts) == [(3, 3), (1, 2)]
    bad = load_config(environ={}, overrides={"decay.partitions": "3by3"})
    with pytest.raises(ConfigurationError):
        bad.getentries("decay", "partitions", ";", counts)


def test_random_shots_deterministic_per_seed():
    cfg = load_config(environ={}, overrides={
        "problem.source": "random-shots",
        "problem.n_shots": "3",
        "discretization.interior_cells": "30",
    })
    grid = cfg.build_grid()
    f1 = cfg.build_source(grid, np.random.default_rng(5))
    f2 = cfg.build_source(grid, np.random.default_rng(5))
    f3 = cfg.build_source(grid, np.random.default_rng(6))
    np.testing.assert_array_equal(f1, f2)
    assert np.any(f1 != f3)
    assert np.count_nonzero(f1) <= 3
