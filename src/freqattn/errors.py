"""Exception types shared across the package, and `naming`, which puts the path
of the input file being read in front of one. A `FreqattnError` is a bad input;
the CLI reports it, or an `OSError`, as one `error: ` line and exits 1."""

import contextlib


class FreqattnError(Exception):
    """Base of the package's errors: an input the program cannot use."""


class DimensionError(FreqattnError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(FreqattnError, ValueError):
    """A configuration value violates a structural constraint."""


class CapacityError(FreqattnError, ValueError):
    """More items were requested than the container can hold."""


class FormatError(FreqattnError, ValueError):
    """A file does not conform to its expected binary/text layout."""


class ParseError(FreqattnError, ValueError):
    """A text input could not be parsed; message carries the line number."""


class NumericError(FreqattnError, ArithmeticError):
    """A computation produced or received non-finite values."""


@contextlib.contextmanager
def naming(path):
    """Put the path of the input file being read in front of an error it caused."""
    try:
        yield
    except FreqattnError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
