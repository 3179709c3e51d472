"""Exception types shared across the toolkit.

Input/format problems derive from InputError (CLI exit code 2); numeric
breakdown during training derives from NumericError (exit code 3).
"""

import gzip
import zlib
from contextlib import contextmanager


class SdprelError(Exception):
    pass


class InputError(SdprelError):
    """A fault in an input.  Where it is known, `path` names the file and
    `line_no` the line; this class alone spells them in the message."""

    def __init__(self, reason, *, path=None, line_no=None):
        super().__init__(reason)
        self.reason, self.path, self.line_no = reason, path, line_no

    def __str__(self):
        if self.path is None:
            return self.reason if self.line_no is None else f"line {self.line_no}: {self.reason}"
        line = "" if self.line_no is None else f":{self.line_no}"
        return f"{self.path}{line}: {self.reason}"


class ParseError(InputError):
    def __init__(self, line_no, reason):
        super().__init__(reason, line_no=line_no)


class DuplicateSentenceId(ParseError):
    pass


class FormatError(InputError):
    pass


class ConfigError(InputError):
    pass


@contextmanager
def reading_text(path):
    """Name `path` in an InputError raised while reading it that names no
    file, and turn a decoding or decompression error into a FormatError."""
    try:
        yield
    except InputError as exc:
        if exc.path is None:
            exc.path = path
        raise
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text ({exc.reason})", path=path) from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise FormatError(f"damaged gzip file ({exc})", path=path) from None


class DimensionMismatch(InputError):
    pass


class ShapeMismatch(InputError):
    pass


class IndexOutOfRange(InputError):
    pass


class SelfLoop(InputError):
    pass


class Disconnected(SdprelError):
    """No path exists between the two protein tokens."""


class PathTooLong(SdprelError):
    """Shortest path exceeds the SDP token cap."""


class EntityNotInSentence(InputError):
    pass


class MissingDependencyData(InputError):
    pass


class BadK(InputError):
    pass


class BadRate(InputError):
    pass


class EmptySequence(SdprelError):
    pass


class EmptyTrainingSet(InputError):
    pass


class VersionMismatch(InputError):
    pass


class CorruptChecksum(InputError):
    pass


class NumericError(SdprelError):
    pass


class NonFiniteInput(NumericError):
    pass


class NonFiniteGradient(NumericError):
    pass


class NonFiniteLoss(NumericError):
    pass
