"""Error types shared across the package.

ConfigError covers invalid experiment configuration (missing referenced
files, unknown names, malformed attack specs and config shapes). DataError
covers malformed content inside data files (topology edge lists, calibration
CSV, circuit text). Library functions reject invalid parameter values with
ValueError. `cli.main` is the single place these become exit codes:
ConfigError and ValueError exit 2, DataError exits 3.
"""


class ConfigError(Exception):
    """Invalid experiment configuration."""


class DataError(Exception):
    """Malformed data file content."""
