"""Error taxonomy shared across the package.

Argument and shape problems raise builtin-compatible errors so callers can
catch `ValueError` broadly; the CLI maps the categories below onto distinct
exit codes.
"""


class ShapeError(ValueError):
    """A batch or parameter array has the wrong dimensions."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values or diverged."""


class SchemaError(ValueError):
    """A data file is missing required columns or rows."""


class ParseError(ValueError):
    """A data file has a cell that does not parse."""


class LabelError(ValueError):
    """A label value is not in the known class vocabulary."""


class ConfigError(ValueError):
    """A run configuration is malformed or has unknown keys."""


class DependencyError(RuntimeError):
    """A pipeline stage was invoked before its prerequisites exist."""
