"""Configuration resolution, validation diagnostics and typed builders."""

import re
from pathlib import Path

import numpy as np
import pytest

from diagsweep.config import KEYS, RunConfig, load_config
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
    assert cfg.get("solver", "tol") == 1e-6
    assert cfg.get("problem", "medium") == "constant"


def test_precedence_file_env_override(tmp_path):
    path = _write(tmp_path, "[problem]\nfrequency = 7\ndim = 2\n")
    cfg = load_config(path, environ={})
    assert cfg.get("problem", "frequency") == 7
    cfg = load_config(path, environ={"DIAGSWEEP_PROBLEM_FREQUENCY": "9"})
    assert cfg.get("problem", "frequency") == 9
    cfg = load_config(
        path,
        environ={"DIAGSWEEP_PROBLEM_FREQUENCY": "9"},
        overrides={"problem.frequency": "11"},
    )
    assert cfg.get("problem", "frequency") == 11
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
        cfg.get("discretization", "pml_points")


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
    assert cfg.get("decay", "partitions") == [("3x3", (3, 3)), ("1x2", (1, 2))]
    bad = load_config(environ={}, overrides={"decay.partitions": "3by3"})
    with pytest.raises(ConfigurationError, match=r"\[decay\] partitions: bad entry '3by3'"):
        bad.get("decay", "partitions")


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


def test_readme_names_every_key():
    """README's configuration block names each key of KEYS, and no other."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Configuration\n", 1)[1].split("```ini\n", 1)[1].split("```")[0]
    named, section = [], None
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line):
            section = header.group(1)
        elif key := re.match(r"#?\s*(\w+)\s*=", line):
            named.append((section, key.group(1)))
    assert len(named) == len(set(named))
    assert set(named) == set(KEYS)


def test_unknown_names_exit_with_their_source(tmp_path):
    """A section or key KEYS lacks is refused, naming where it came from; the
    known ones resolve as before and cite their lines."""
    path = _write(tmp_path, "[solver]\nTol = 1e-3\n\n[Solver]\ntol = 1\n")
    with pytest.raises(ConfigurationError, match=r"run\.ini:4: unknown configuration "
                                                 r"section \[Solver\]"):
        load_config(path, environ={})
    path = _write(tmp_path, "[solver]\ntol = 1e-3\ntoll = 1\n")
    with pytest.raises(ConfigurationError, match=r"run\.ini:3: .*key \[solver\] toll"):
        load_config(path, environ={})
    path = _write(tmp_path, "[DEFAULT]\ntol = 1\n[solver]\n")
    with pytest.raises(ConfigurationError, match=r"run\.ini:1: .*section \[DEFAULT\]"):
        load_config(path, environ={})
    with pytest.raises(ConfigurationError, match="^DIAGSWEEP_OUTPTU_FIELD_DUMP: "):
        load_config(environ={"DIAGSWEEP_OUTPTU_FIELD_DUMP": "0"})
    with pytest.raises(ConfigurationError, match=r"^unknown configuration key \[problem\] "):
        load_config(environ={}, overrides={"problem.frequencey": "3"})
    cfg = load_config(_write(tmp_path, "[solver]\n\n[precond]\nrows = 40,2x2,4\n"),
                      environ={"OTHER_SOLVER_TOL": "x"})
    assert cfg.get("precond", "rows") == [("40,2x2,4", (40, (2, 2), 4.0))]
    assert cfg._where("precond", "rows").endswith("run.ini:4")


def test_defaults_are_the_table_defaults():
    """The resolved defaults are the keys of KEYS with a default, as the same
    strings (so the default config hash is that of the earlier default table),
    and each passes its own check."""
    cfg = load_config(environ={})
    defaults = {name: spec.default for name, spec in KEYS.items() if spec.default is not None}
    assert {(sec, key): val for sec, kv in cfg.values.items() for key, val in kv.items()} == (
        defaults)
    assert cfg.sha256 == "d4461d0da93cdc946b1de8850c3e00ff3709c940c1e7af8da1c059d03a0747c0"
    for section, key in defaults:
        cfg.get(section, key)
