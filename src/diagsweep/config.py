"""Run configuration: INI file, environment overrides, typed builders.

`KEYS` is the one list of the sections and keys of a run's INI file: for
each (section, key) the parser, the check and the default.  A key is parsed
and checked when it is read; checks that involve several keys stay in the
builders.  Names are lower case; a section or key not in `KEYS` is an error.

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
import math
import os
import re
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
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

# A parser reads the raw string and raises ValueError saying what is wrong; a
# check returns what is wrong with the parsed value of `key`, or None.


def _parser(cast, complaint):
    """`cast`, which raises ValueError (or KeyError) on a bad string, saying
    `complaint` about it instead."""
    def parse(raw):
        try:
            return cast(raw)
        except (ValueError, KeyError):
            raise ValueError(complaint.format(raw)) from None
    return parse


def _entries(sep, parse):
    """The non-empty `sep`-separated entries, each read by `parse`."""
    entry = _parser(parse, "bad entry {!r}")
    return lambda raw: [entry(t) for t in filter(None, map(str.strip, raw.split(sep)))]


def _counts(token):
    """Subdomain counts written NxM or NxMxK."""
    return tuple(map(int, token.split("x")))


def _precond_row(token):
    """(cells, partition counts, frequency) of a precond row."""
    cells, part, freq = token.split(",")
    return int(cells), _counts(part), float(freq)


def _must(ok, what):
    return lambda key, v: None if ok(v) else f"{key} must be {what}, got {v}"


def _one_of(*choices):
    return lambda key, v: (
        None if v in choices else f"unknown {key} {v!r}, expected {' | '.join(choices)}"
    )


_INT = _parser(int, "expected an integer, got {!r}")
_FLOAT = _parser(float, "expected a number, got {!r}")
_BOOL = _parser(lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()],
                "expected a boolean, got {!r}")
_INTS, _FLOATS = _entries(",", int), _entries(",", float)
_PAIRS = _entries(";", lambda t: tuple(map(float, t.split(","))))
_AT_LEAST_1 = _must(lambda v: v >= 1, ">= 1")
_POSITIVE = _must(lambda v: np.isfinite(v) and v > 0, "finite and > 0")
_NONNEGATIVE = _must(lambda v: np.isfinite(v) and v >= 0, "finite and >= 0")
_NONEMPTY = _must(bool, "a non-empty list")
_NO_SHOTS = "no shots, so the source is zero"  # shot weights never cancel
_INTERVALS = _must(lambda pairs: all(len(p) == 2 and np.all(np.isfinite(p)) and p[0] < p[1]
                                 for p in pairs), "lo,hi pairs, each finite with lo < hi")


# a key without a default is absent unless set
Key = namedtuple("Key", "parse check default", defaults=(None, None))
KEYS = {
    ("problem", "dim"): Key(_INT, _must(lambda v: v in (2, 3), "2 or 3"), "2"),
    ("problem", "frequency"): Key(_FLOAT, _POSITIVE, "10"),
    ("problem", "interior"): Key(_PAIRS, _INTERVALS, "0,1; 0,1"),
    ("problem", "medium"): Key(str, _one_of("constant", "layered", "raster"), "constant"),
    ("problem", "speed"): Key(_FLOAT, _POSITIVE, "1.0"),
    ("problem", "depths"): Key(_FLOATS),
    ("problem", "speeds"): Key(_FLOATS),
    ("problem", "raster_path"): Key(str),
    ("problem", "source"): Key(str, _one_of("gaussian", "shots", "random-shots"), "gaussian"),
    ("problem", "center"): Key(_FLOATS, None, "0.5, 0.5"),
    ("problem", "shots"): Key(_PAIRS, lambda key, v: None if v else _NO_SHOTS),
    ("problem", "n_shots"): Key(_INT, lambda key, v: None if v >= 1 else _NO_SHOTS),
    ("discretization", "interior_cells"): Key(_INTS),
    ("discretization", "pml_points"): Key(_INT, _AT_LEAST_1, "12"),
    ("discretization", "overlap_points"): Key(_INT, _AT_LEAST_1, "5"),
    ("discretization", "exponent"): Key(_INT, _AT_LEAST_1, "2"),
    ("discretization", "damping"): Key(_FLOAT, _POSITIVE, "24"),
    ("partition", "counts"): Key(_INTS),
    ("solver", "mode"): Key(str, _one_of("direct-ddm", "gmres-ddm", "global-direct"),
                            "gmres-ddm"),
    ("solver", "tol"): Key(_FLOAT, _POSITIVE, "1e-6"),
    ("solver", "restart"): Key(_INT, _AT_LEAST_1, "30"),
    ("solver", "max_iter"): Key(_INT, _AT_LEAST_1, "200"),
    ("output", "field_dump"): Key(_BOOL, None, "true"),
    ("output", "quicklook"): Key(_BOOL, None, "true"),
    ("output", "residual_csv"): Key(_BOOL, None, "true"),
    ("output", "event_log"): Key(_BOOL, None, "false"),
    # a study list holds (token, entry) pairs, so that errors can quote the token
    ("convergence", "meshes"): Key(_entries(",", lambda t: (t, int(t))), _NONEMPTY),
    ("decay", "partitions"): Key(_entries(";", lambda t: (t, _counts(t))), _NONEMPTY,
                                 "3x3; 1x2"),
    ("decay", "iterations"): Key(_INT, None, "26"),
    ("decay", "fit_skip"): Key(_INT, _must(lambda v: v >= 0, ">= 0"), "2"),
    ("decay", "floor"): Key(_FLOAT, _NONNEGATIVE, "1e-13"),
    ("pipeline", "counts"): Key(
        _INTS, _must(lambda c: len(c) in (2, 3) and min(c) >= 1, "2 or 3 counts >= 1")),
    ("pipeline", "n_rhs"): Key(_INT, _AT_LEAST_1),
    ("pipeline", "n_iter"): Key(_INT, _AT_LEAST_1),
    ("pipeline", "t0"): Key(_FLOAT, _POSITIVE, "1.0"),
    ("pipeline", "transfer_cost"): Key(_FLOAT, _NONNEGATIVE, "0.0"),
    ("precond", "rows"): Key(_entries(";", lambda t: (t, _precond_row(t))), _NONEMPTY),
}
_SECTIONS = {section for section, _ in KEYS}


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
            if (section, key) not in KEYS:
                raise ConfigurationError(f"unknown configuration key [{section}] {key}")
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

    def get(self, section: str, key: str):
        """[section] key, parsed and checked as `KEYS` says."""
        if key not in self.values.get(section, {}):
            raise ConfigurationError(f"missing configuration key [{section}] {key}")
        spec = KEYS[section, key]
        try:
            value = spec.parse(self.values[section][key])
        except ValueError as exc:
            raise ConfigurationError(f"{self._where(section, key)}: {exc}") from None
        if complaint := spec.check and spec.check(key, value):
            raise ConfigurationError(f"{self._where(section, key)}: {complaint}")
        return value

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
        return self.get("problem", "dim")

    @property
    def omega(self) -> float:
        frequency = self.get("problem", "frequency")
        omega = 2.0 * np.pi * frequency  # Python floats: an overflow is inf, not a warning
        self._require(math.isfinite(omega), "problem", "frequency",
                      "small enough that 2*pi*frequency is finite", frequency)
        return omega

    def interior_extents(self) -> tuple[tuple[float, float], ...]:
        pairs = self.get("problem", "interior")
        ok = len(pairs) == self.dim
        self._require(ok, "problem", "interior", f"{self.dim} lo,hi pairs", pairs)
        return tuple(pairs)

    def interior_cells(self) -> tuple[int, ...]:
        cells = self.get("discretization", "interior_cells")
        if len(cells) == 1:
            cells = cells * self.dim
        ok = len(cells) == self.dim and min(cells) >= 1
        what = f"{self.dim} positive cell counts"
        self._require(ok, "discretization", "interior_cells", what, cells)
        return tuple(cells)

    def build_grid(self) -> Grid:
        """Grid covering the interior box plus the global PML collar."""
        cells = self.interior_cells()
        pml = self.get("discretization", "pml_points")
        extents, counts = [], []
        for (a, b), n in zip(self.interior_extents(), cells):
            h = (b - a) / n
            extents.append((a - pml * h, b + pml * h))
            counts.append(n + 2 * pml + 1)
        grid = make_grid(extents, counts)
        for axis, h in enumerate(grid.spacing):  # the operator's couplings are 1/h^2
            if not (0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf):
                raise ConfigurationError(
                    f"{self._where('problem', 'interior')}: axis {axis}: mesh spacing {h:g} "
                    "leaves 1/h^2 not finite and positive")
        return grid

    def partition_counts(self) -> tuple[int, ...]:
        counts = self.get("partition", "counts")
        ok = len(counts) == self.dim
        self._require(ok, "partition", "counts", f"{self.dim} counts", counts)
        return tuple(counts)

    def build_partition(self, grid: Grid) -> Partition:
        counts = self.partition_counts()
        d, pml = (self.get("discretization", key) for key in ("overlap_points", "pml_points"))
        try:
            return make_partition(grid, counts, d, pml)
        except ConfigurationError as exc:
            # name the keys the refusal depends on: counts below 1 only counts, cells
            # the counts do not divide also interior_cells, too narrow a subdomain all
            keys = ["interior_cells", "overlap_points", "pml_points"]
            if min(counts) < 1:
                keys = []
            elif any(c % n for c, n in zip(self.interior_cells(), counts)):
                keys = keys[:1]
            where = [self._where("discretization", key) for key in keys]
            where.append(self._where("partition", "counts"))
            raise ConfigurationError(f"{', '.join(where)}: {exc}") from None

    def build_profile(self, grid: Grid) -> PmlProfile:
        """The absorption profile tuned to the interior mesh spacing of `grid`."""
        pml, d, exponent, damping = (
            self.get("discretization", key)
            for key in ("pml_points", "overlap_points", "exponent", "damping")
        )
        h = min(
            (b - a) / (m - 1 - 2 * pml)
            for (a, b), m in zip(self.interior_extents(), grid.counts)
        )
        sigma = tuned_sigma_max(self.omega, pml * h, exponent, damping)
        try:  # a huge damping overflows sigma_max
            return PmlProfile(pml, d, sigma, exponent)
        except ConfigurationError as exc:
            where = self._where("discretization", "damping")
            raise ConfigurationError(f"{where}: {exc}") from None

    def build_model(self):
        """The velocity model; refused if kappa^2 = (omega/speed)^2 overflows."""
        kind = self.get("problem", "medium")
        if kind == "constant":
            key, model = "speed", constant_model(self.get("problem", "speed"))
            slowest = model.c
        elif kind == "layered":
            key, depths = "speeds", self.get("problem", "depths")
            speeds = self.get("problem", "speeds")
            try:
                model = layered_model(tuple(depths), tuple(speeds))
            except ConfigurationError as exc:
                bad = "depths" if "depths" in str(exc) else "speeds"  # ordering check
                raise ConfigurationError(f"{self._where('problem', bad)}: {exc}") from None
            slowest = min(speeds)
        else:
            key, model = "raster_path", load_velocity(self.get("problem", "raster_path"))
            if model.samples.ndim != self.dim:
                raise ConfigurationError(f"{self._where('problem', key)}: raster_path holds a "
                                         f"{model.samples.ndim}D raster but dim is {self.dim}")
            slowest = float(model.samples.min())
        kappa = self.omega / slowest  # Python floats: an overflow is inf, not a warning
        if not math.isfinite(kappa * kappa):
            where = ", ".join(self._where("problem", k) for k in (key, "frequency"))
            raise ConfigurationError(
                f"{where}: kappa^2 = (omega / speed)^2 overflows at speed {slowest:g}")
        return model

    def gmres_settings(self) -> dict:
        """The validated tol, restart and max_iter of the GMRES solver."""
        return {key: self.get("solver", key) for key in ("tol", "restart", "max_iter")}

    def build_source(self, grid: Grid, rng: np.random.Generator | None = None):
        kind = self.get("problem", "source")
        interior = self.interior_extents()
        if kind == "gaussian":
            key, locs, omega = "center", [tuple(self.get("problem", "center"))], self.omega
        elif kind == "shots":
            key, locs = "shots", self.get("problem", "shots")
        else:  # random-shots
            rng = np.random.default_rng(0) if rng is None else rng
            key, count = "n_shots", self.get("problem", "n_shots")
            locs = [tuple(rng.uniform(a, b) for a, b in interior) for _ in range(count)]
        try:  # a source location of the wrong length or outside the interior
            if kind != "gaussian":
                return point_shots(grid, locs, interior)
            f = gaussian_source(grid, locs[0], omega, interior)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{self._where('problem', key)}: {exc}") from None
        if not np.any(f):  # its width shrinks as 1/frequency, so it can underflow
            where = ", ".join(self._where("problem", k) for k in ("source", "frequency"))
            raise ConfigurationError(f"{where}: source gaussian is zero on every grid node")
        return f

    def pipeline_spec(self) -> PipelineSpec:
        """The pipeline model's spec, each size and cost validated."""
        counts = tuple(self.get("pipeline", "counts"))
        return PipelineSpec(counts, *(
            self.get("pipeline", key) for key in ("n_rhs", "n_iter", "t0", "transfer_cost")
        ))

    def decay_settings(self) -> tuple[int, int, float]:
        """The validated iterations, fit_skip and floor of the decay study."""
        skip = self.get("decay", "fit_skip")
        n_it = self.get("decay", "iterations")
        self._require(n_it >= skip + 2, "decay", "iterations", "fit_skip + 2 or more", n_it)
        return n_it, skip, self.get("decay", "floor")


def _key_lines(path: Path) -> dict[tuple[str, str | None], int]:
    """The line of each key, and of each section header under (section, None)."""
    lines = {}
    section = None
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        stripped = line.strip()
        m = re.match(r"\[(.+)\]\s*$", stripped)
        if m:
            section = m.group(1).strip()
            lines.setdefault((section, None), lineno)
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
    form DIAGSWEEP_<SECTION>_<KEY> (section and key upper-cased).  An unknown
    section or key cites its file line, its variable or its [section] key.
    """
    values: dict[str, dict[str, str]] = {}
    for (section, key), spec in KEYS.items():
        if spec.default is not None:
            values.setdefault(section, {})[key] = spec.default
    cfg = RunConfig(values, Path(path) if path is not None else None)
    if path is not None:
        if not cfg.path.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read(cfg.path)
        except configparser.Error as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
        cfg._lines.update(_key_lines(cfg.path))
        # a [DEFAULT] section would lend its keys to every section
        for section in ["DEFAULT"] * bool(parser.defaults()) + parser.sections():
            items = parser.items(section) if section in _SECTIONS else [(None, None)]
            for key, _ in items:
                if (section, key) not in KEYS:
                    what = f"key [{section}] {key}" if key else f"section [{section}]"
                    raise ConfigurationError(
                        f"{cfg._where(section, key)}: unknown configuration {what}")
            values.setdefault(section, {}).update(items)
    environ = os.environ if environ is None else environ
    env = {}
    for name, value in environ.items():
        if name.startswith(ENV_PREFIX):
            section, _, key = name[len(ENV_PREFIX):].lower().partition("_")
            if (section, key) not in KEYS:
                raise ConfigurationError(
                    f"{name}: unknown configuration key [{section}] {key}")
            env[f"{section}.{key}"] = value
    return cfg.with_values(env).with_values(overrides or {})
