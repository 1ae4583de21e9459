"""Error taxonomy shared across the package: one class per exit code.

The CLI maps `ConfigError` to exit 2, `DependencyError` to 3,
`NumericError` to 4 and `ParseError` (with `OSError`) to 5. `ShapeError`
marks a caller's bug and has no exit code. Argument and shape problems raise
builtin-compatible errors so callers can catch `ValueError` broadly.
"""


class ShapeError(ValueError):
    """A batch or parameter array has the wrong dimensions."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values or diverged."""


class ParseError(ValueError):
    """An input file, or the data read from it, cannot be used: it does not
    parse, lacks required columns or rows, or holds a label outside the
    class vocabulary."""


class ConfigError(ValueError):
    """A run configuration is malformed or has unknown keys."""


class DependencyError(RuntimeError):
    """A pipeline stage was invoked before its prerequisites exist."""
