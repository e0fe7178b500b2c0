"""Run configuration: INI file, environment overrides, typed builders.

A run is described by a flat INI file with the sections

    [problem]         dim, frequency (omega/2pi), interior box, medium, source
    [discretization]  interior cells per axis, PML points, overlap points,
                      absorption profile exponent and damping
    [partition]       subdomain counts
    [solver]          mode (direct-ddm | gmres-ddm | global-direct), tol,
                      restart, max_iter
    [output]          artifact toggles
    [convergence]     mesh list for the refinement study
    [decay]           partitions, iteration count and fit window
    [pipeline]        counts, n_rhs, n_iter, t0, transfer_cost
    [precond]         rows (cells, partition, frequency) of the
                      preconditioner study

Environment variables of the form DIAGSWEEP_<SECTION>_<KEY> override file
values, and explicit overrides (command-line) override both.  Validation
errors carry the file name and line number of the offending key when its value
came from the file, and name it as [section] key otherwise.  The resolved
configuration has a stable SHA-256 hash that the CLI stamps into every
artifact it writes.
"""

from __future__ import annotations

import configparser
import hashlib
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ModelError
from .grid import Grid, make_grid
from .media import (
    constant_model,
    gaussian_source,
    layered_model,
    load_velocity,
    point_shots,
)
from .partition import Partition, make_partition
from .pipeline import PipelineSpec
from .pml import PmlProfile, tuned_sigma_max

ENV_PREFIX = "DIAGSWEEP_"

_DEFAULTS = {
    "problem": {
        "dim": "2",
        "frequency": "10",
        "interior": "0,1; 0,1",
        "medium": "constant",
        "speed": "1.0",
        "source": "gaussian",
        "center": "0.5, 0.5",
    },
    "discretization": {
        "pml_points": "12",
        "overlap_points": "5",
        "exponent": "2",
        "damping": "24",
    },
    "solver": {"mode": "gmres-ddm", "tol": "1e-6", "restart": "30", "max_iter": "200"},
    "output": {
        "field_dump": "true",
        "quicklook": "true",
        "residual_csv": "true",
        "event_log": "false",
    },
    "decay": {"partitions": "3x3; 1x2", "iterations": "26", "fit_skip": "2", "floor": "1e-13"},
    "pipeline": {"t0": "1.0", "transfer_cost": "0.0"},
}


@dataclass
class RunConfig:
    """Resolved key-value configuration with provenance for diagnostics."""

    values: dict[str, dict[str, str]]
    path: Path | None = None
    _lines: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)

    def with_values(self, values: dict[str, str]) -> RunConfig:
        """A copy with each "section.key" of `values` replaced.  The copy
        shares no dict with this config, and a replaced key no longer cites
        the file line it had."""
        out = RunConfig({sec: dict(kv) for sec, kv in self.values.items()},
                        self.path, dict(self._lines))
        for dotted, value in values.items():
            if "." not in dotted:
                raise ConfigurationError(f"override {dotted!r} is not section.key")
            section, key = dotted.split(".", 1)
            out.values.setdefault(section, {})[key] = value
            out._lines.pop((section, key), None)
        return out

    def _where(self, section: str, key: str) -> str:
        lineno = self._lines.get((section, key))
        if self.path is not None and lineno is not None:
            return f"{self.path}:{lineno}"
        return f"[{section}] {key}"

    def _require(self, ok: bool, section: str, key: str, what: str, value) -> None:
        if not ok:
            raise ConfigurationError(
                f"{self._where(section, key)}: {key} must be {what}, got {value}"
            )

    def get(self, section: str, key: str) -> str:
        try:
            return self.values[section][key]
        except KeyError:
            raise ConfigurationError(
                f"missing configuration key [{section}] {key}"
            ) from None

    def _typed(self, section, key, cast, kind):
        raw = self.get(section, key)
        try:
            return cast(raw)
        except ValueError:
            raise ConfigurationError(
                f"{self._where(section, key)}: expected {kind}, got {raw!r}"
            ) from None

    def getint(self, section, key):
        return self._typed(section, key, int, "an integer")

    def getfloat(self, section, key):
        return self._typed(section, key, float, "a number")

    def getbool(self, section, key):
        raw = self.get(section, key).strip().lower()
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw]
        except KeyError:
            raise ConfigurationError(
                f"{self._where(section, key)}: expected a boolean, got {raw!r}"
            ) from None

    def getentries(self, section, key, sep, parse):
        """The non-empty `sep`-separated entries, each read by `parse`, which
        raises ValueError on a bad one."""
        out = []
        for token in filter(None, map(str.strip, self.get(section, key).split(sep))):
            try:
                out.append(parse(token))
            except ValueError:
                raise ConfigurationError(
                    f"{self._where(section, key)}: bad entry {token!r}"
                ) from None
        return out

    def getlist(self, section, key, cast=str):
        return self.getentries(section, key, ",", cast)

    def getpairs(self, section, key):
        """Semicolon-separated list of comma-separated float tuples."""
        return self.getentries(section, key, ";", lambda t: tuple(map(float, t.split(","))))

    @property
    def sha256(self) -> str:
        lines = sorted(
            f"{sec}.{key}={val}"
            for sec, kv in self.values.items()
            for key, val in kv.items()
        )
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    # -- typed builders -----------------------------------------------------

    @property
    def dim(self) -> int:
        dim = self.getint("problem", "dim")
        self._require(dim in (2, 3), "problem", "dim", "2 or 3", dim)
        return dim

    @property
    def omega(self) -> float:
        frequency = self.getfloat("problem", "frequency")
        self._require(
            np.isfinite(frequency) and frequency > 0,
            "problem", "frequency", "finite and > 0", frequency,
        )
        return 2.0 * np.pi * frequency

    def interior_extents(self) -> tuple[tuple[float, float], ...]:
        pairs = self.getpairs("problem", "interior")
        ok = len(pairs) == self.dim and all(len(p) == 2 for p in pairs)
        self._require(ok, "problem", "interior", f"{self.dim} lo,hi pairs", pairs)
        return tuple(pairs)

    def interior_cells(self) -> tuple[int, ...]:
        cells = self.getlist("discretization", "interior_cells", int)
        if len(cells) == 1:
            cells = cells * self.dim
        ok = len(cells) == self.dim and min(cells) >= 1
        what = f"{self.dim} positive cell counts"
        self._require(ok, "discretization", "interior_cells", what, cells)
        return tuple(cells)

    def build_grid(self) -> Grid:
        """Grid covering the interior box plus the global PML collar."""
        cells = self.interior_cells()
        pml = self.getint("discretization", "pml_points")
        extents, counts = [], []
        for (a, b), n in zip(self.interior_extents(), cells):
            h = (b - a) / n
            extents.append((a - pml * h, b + pml * h))
            counts.append(n + 2 * pml + 1)
        return make_grid(extents, counts)

    def partition_counts(self) -> tuple[int, ...]:
        counts = self.getlist("partition", "counts", int)
        ok = len(counts) == self.dim
        self._require(ok, "partition", "counts", f"{self.dim} counts", counts)
        return tuple(counts)

    def build_partition(self, grid: Grid) -> Partition:
        return make_partition(
            grid,
            self.partition_counts(),
            self.getint("discretization", "overlap_points"),
            self.getint("discretization", "pml_points"),
        )

    def build_profile(self, grid: Grid) -> PmlProfile:
        """The absorption profile tuned to the interior mesh spacing of `grid`."""
        pml = self.getint("discretization", "pml_points")
        self._require(pml >= 1, "discretization", "pml_points", ">= 1", pml)
        d = self.getint("discretization", "overlap_points")
        exponent = self.getint("discretization", "exponent")
        damping = self.getfloat("discretization", "damping")
        self._require(
            np.isfinite(damping) and damping > 0,
            "discretization", "damping", "finite and > 0", damping,
        )
        h = min(
            (b - a) / (m - 1 - 2 * pml)
            for (a, b), m in zip(self.interior_extents(), grid.counts)
        )
        sigma = tuned_sigma_max(self.omega, pml * h, exponent, damping)
        return PmlProfile(pml, d, sigma, exponent)

    def build_model(self):
        kind = self.get("problem", "medium")
        if kind == "constant":
            try:
                return constant_model(self.getfloat("problem", "speed"))
            except ModelError as exc:
                raise ModelError(f"{self._where('problem', 'speed')}: {exc}") from None
        if kind == "layered":
            depths = self.getlist("problem", "depths", float)
            speeds = self.getlist("problem", "speeds", float)
            try:
                return layered_model(tuple(depths), tuple(speeds))
            except ModelError as exc:
                key = "depths" if "depths" in str(exc) else "speeds"  # ordering check
                raise ModelError(f"{self._where('problem', key)}: {exc}") from None
        if kind == "raster":
            model = load_velocity(self.get("problem", "raster_path"))
            if model.samples.ndim != self.dim:
                raise ConfigurationError(
                    f"{self._where('problem', 'raster_path')}: raster_path holds a "
                    f"{model.samples.ndim}D raster but dim is {self.dim}"
                )
            return model
        raise ConfigurationError(
            f"{self._where('problem', 'medium')}: unknown medium {kind!r}"
        )

    def gmres_settings(self) -> dict:
        """The validated tol, restart and max_iter of the GMRES solver."""
        tol = self.getfloat("solver", "tol")
        self._require(np.isfinite(tol) and tol > 0, "solver", "tol", "finite and > 0", tol)
        out = {"tol": tol}
        for key in ("restart", "max_iter"):
            out[key] = self.getint("solver", key)
            self._require(out[key] >= 1, "solver", key, ">= 1", out[key])
        return out

    def build_source(self, grid: Grid, rng: np.random.Generator | None = None):
        kind = self.get("problem", "source")
        interior = self.interior_extents()
        if kind == "gaussian":
            center = tuple(self.getlist("problem", "center", float))
            return gaussian_source(grid, center, self.omega, interior)
        if kind == "shots":
            key, locs = "shots", self.getpairs("problem", "shots")
        elif kind == "random-shots":
            if rng is None:
                rng = np.random.default_rng(0)
            key, count = "n_shots", self.getint("problem", "n_shots")
            locs = [
                tuple(rng.uniform(a, b) for a, b in interior) for _ in range(count)
            ]
        else:
            raise ConfigurationError(
                f"{self._where('problem', 'source')}: unknown source {kind!r}"
            )
        if not locs:  # shot weights never cancel, so only no shots is a zero source
            raise ConfigurationError(
                f"{self._where('problem', key)}: no shots, so the source is zero"
            )
        return point_shots(grid, locs, interior)

    def pipeline_spec(self) -> PipelineSpec:
        """The pipeline model's spec, each size and cost validated."""
        counts = tuple(self.getlist("pipeline", "counts", int))
        n_rhs, n_iter = (self.getint("pipeline", key) for key in ("n_rhs", "n_iter"))
        self._require(n_rhs >= 1, "pipeline", "n_rhs", ">= 1", n_rhs)
        self._require(n_iter >= 1, "pipeline", "n_iter", ">= 1", n_iter)
        t0, tc = (self.getfloat("pipeline", key) for key in ("t0", "transfer_cost"))
        self._require(np.isfinite(t0) and t0 > 0, "pipeline", "t0", "finite and > 0", t0)
        self._require(
            np.isfinite(tc) and tc >= 0, "pipeline", "transfer_cost", "finite and >= 0", tc
        )
        return PipelineSpec(counts, n_rhs, n_iter, t0, tc)

    def decay_settings(self) -> tuple[int, int, float]:
        """The validated iterations, fit_skip and floor of the decay study."""
        skip = self.getint("decay", "fit_skip")
        self._require(skip >= 0, "decay", "fit_skip", ">= 0", skip)
        n_it = self.getint("decay", "iterations")
        self._require(n_it >= skip + 2, "decay", "iterations", "fit_skip + 2 or more", n_it)
        floor = self.getfloat("decay", "floor")
        self._require(
            np.isfinite(floor) and floor >= 0, "decay", "floor", "finite and >= 0", floor
        )
        return n_it, skip, floor


def _key_lines(path: Path) -> dict[tuple[str, str], int]:
    lines = {}
    section = None
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        stripped = line.strip()
        m = re.match(r"\[(.+)\]\s*$", stripped)
        if m:
            section = m.group(1).strip()
            continue
        m = re.match(r"([^=:#;][^=:]*)[=:]", stripped)
        if m and section is not None:
            lines[(section, m.group(1).strip().lower())] = lineno  # as configparser keys
    return lines


def load_config(
    path=None, environ=None, overrides: dict[str, str] | None = None
) -> RunConfig:
    """Resolve defaults <- file <- environment <- explicit overrides.

    `overrides` maps "section.key" to values.  Environment variables use the
    form DIAGSWEEP_<SECTION>_<KEY> (section and key upper-cased).
    """
    values = {sec: dict(kv) for sec, kv in _DEFAULTS.items()}
    key_lines: dict[tuple[str, str], int] = {}
    path = Path(path) if path is not None else None
    if path is not None:
        if not path.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
        for section in parser.sections():
            values.setdefault(section, {}).update(parser.items(section))
        key_lines = _key_lines(path)
    environ = os.environ if environ is None else environ
    prefixes = {f"{ENV_PREFIX}{sec.upper()}_": sec for sec in [*values, *_DEFAULTS]}
    env = {}
    for name, value in environ.items():
        for prefix, sec in prefixes.items():
            if name.startswith(prefix):
                env[f"{sec}.{name[len(prefix):].lower()}"] = value
                break
    cfg = RunConfig(values, path, key_lines)
    return cfg.with_values(env).with_values(overrides or {})
