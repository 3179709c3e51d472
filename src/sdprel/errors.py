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
    pass


class ParseError(InputError):
    def __init__(self, line_no, reason, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateSentenceId(ParseError):
    pass


class FormatError(InputError):
    pass


class ConfigError(InputError):
    pass


@contextmanager
def reading_text(path):
    """Turn a decoding or decompression error while reading `path` into a
    FormatError that names it, and name it in a ParseError."""
    try:
        yield
    except ParseError as exc:
        raise type(exc)(exc.line_no, exc.reason, path) from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise FormatError(f"{path}: damaged gzip file ({exc})") from None


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
    def __init__(self, sentence_id):
        super().__init__(f"no dependency edges for sentence {sentence_id!r}")
        self.sentence_id = sentence_id


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
