"""Diagonal sweeping domain decomposition solver for the Helmholtz equation."""

from .ddm import (
    additive_ddm_solve,
    build_global_operator,
    build_operators,
    diagonal_sweep_solve,
)
from .grid import ComplexField, Grid, Window, make_grid
from .krylov import SolveReport, gmres
from .media import constant_model, gaussian_source, layered_model, point_shots
from .partition import Partition, make_partition
from .pipeline import (
    PipelineSpec,
    average_time_diagonal,
    average_time_recursive,
    simulate_pipeline,
)
from .pml import PmlProfile, assemble_operator, tuned_sigma_max
from .reference import radial_solution
from .subdomain import FactorizationCache, factorize

__version__ = "0.1.0"

__all__ = [
    "ComplexField",
    "FactorizationCache",
    "Grid",
    "Partition",
    "PipelineSpec",
    "PmlProfile",
    "SolveReport",
    "Window",
    "additive_ddm_solve",
    "assemble_operator",
    "average_time_diagonal",
    "average_time_recursive",
    "build_global_operator",
    "build_operators",
    "constant_model",
    "diagonal_sweep_solve",
    "factorize",
    "gaussian_source",
    "gmres",
    "layered_model",
    "make_grid",
    "make_partition",
    "point_shots",
    "radial_solution",
    "simulate_pipeline",
    "tuned_sigma_max",
]
