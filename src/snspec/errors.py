"""Exceptions shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2, OSError -> 3,
NumericalError -> 4. Any other ValueError that reaches the CLI exits 4 too,
except UnicodeDecodeError (an input file that is not text), which exits 2.
A MemoryError (an array larger than the host can allocate) exits 4.
"""


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (for example, a singular matrix)."""
