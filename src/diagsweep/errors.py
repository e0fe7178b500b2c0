"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inconsistent or invalid problem setup (geometry, partition, medium,
    source, config file)."""


class SolverError(RuntimeError):
    """Factorization or solve failure."""
