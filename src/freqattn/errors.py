"""Exception types shared across the package, and `naming`, which puts the path
of the input file being read in front of one."""

import contextlib


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A configuration value violates a structural constraint."""


class CapacityError(ValueError):
    """More items were requested than the container can hold."""


class FormatError(ValueError):
    """A file does not conform to its expected binary/text layout."""


class ParseError(ValueError):
    """A text input could not be parsed; message carries the line number."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


@contextlib.contextmanager
def naming(path):
    """Put the path of the input file being read in front of an error it caused."""
    try:
        yield
    except (CapacityError, ConfigError, DimensionError, FormatError, NumericError,
            ParseError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
