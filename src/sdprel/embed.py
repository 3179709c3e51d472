"""Pretrained word vectors: loading, lookup with OOV fallback, concatenation.

Embeddings load from word2vec text format (header line ``<vocab> <dim>``,
then one ``word v1 .. vD`` row per line; gzip accepted for ``.gz`` paths).
Rows are parsed in chunks of ``CHUNK_LINES`` lines by numpy's C reader, so
the text of at most one chunk is held at a time; each word's vector is a
read-only row of its chunk's matrix.  Out-of-vocabulary tokens get a
deterministic hash-seeded vector so repeated runs see identical inputs.

Each parsed file is cached under its blake2b digest (of the compressed bytes
for ``.gz``), which the table keeps as ``digest``.  The entry is
``<CACHE_VERSION>-<digest>.npz`` in ``$XDG_CACHE_HOME/sdprel``, or in
``~/.cache/sdprel`` when that is unset: the words, the (V x D) matrix, the
dimension and the duplicate count.  A load of the same bytes reads the
entry instead of parsing, ``CHUNK_LINES`` rows at a time, so each word's
vector is again a read-only row of a chunk.
A rejected file writes no entry, an entry that cannot be read or does not
hold together is parsed again and replaced, and a cache that cannot be
written is skipped, so the cache never changes what a load returns or
raises.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import itertools
import os
import tempfile
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, FormatError, reading_text

OOV_SCALE = 0.05
# Version of the parse rules and of the cache entry layout.  Any change to the
# rules in load_embeddings or to what an entry holds must bump it, so that
# entries written under the old rules are never read.
CACHE_VERSION = 1
# What a missing, damaged or unwritable cache raises; each is a cache miss.
_CACHE_ERRORS = (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile)
_NPY_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                       (2, 0): np.lib.format.read_array_header_2_0}
# Rows per np.loadtxt call: enough to amortise its per-call cost, few enough
# that one chunk's text (about 64 KiB at 200 dimensions) is all that is held.
CHUNK_LINES = 32
# numpy's C reader strips these around a value as whitespace; Python's float,
# which defines the accepted syntax, rejects them.
_C_READER_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


@dataclass
class EmbeddingTable:
    dimension: int
    vocabulary: dict[str, np.ndarray] = field(default_factory=dict)
    oov_seed: int = 0
    duplicate_count: int = 0
    # blake2b hex digest of the file the table was read from; None for a table
    # built in memory
    digest: str | None = None

    @classmethod
    def empty(cls, dimension: int, oov_seed: int = 0) -> "EmbeddingTable":
        """Table with no stored vectors; every token resolves via OOV hashing."""
        return cls(dimension=dimension, oov_seed=oov_seed)


def load_embeddings(path, oov_seed: int = 0) -> EmbeddingTable:
    """Read a word2vec text file into read-only vectors, from the cache when
    it holds the file's bytes.

    Per line: one trailing space is dropped, and empty or single-space lines
    are skipped.  A row whose value count is not the header's dimension is a
    DimensionMismatch, checked before its values are parsed; a value that
    Python's ``float`` does not accept is a FormatError.  Either error names
    the first bad line.  The first occurrence of a word wins; later ones are
    counted in ``duplicate_count`` and never parsed.
    """
    if not os.path.isfile(path):  # a pipe is read once; a missing path fails in the parse
        return _parse(path, oov_seed)
    digest = _file_digest(path)
    entry = _cache_entry(digest)
    table = _read_entry(entry) if entry else None
    if table is None:
        table = _parse(path, oov_seed)
        if entry and _file_digest(path) == digest:  # the parsed bytes are the hashed ones
            _write_entry(entry, table)
    table.oov_seed, table.digest = oov_seed, digest
    return table


def _file_digest(path) -> str:
    digest = hashlib.blake2b(digest_size=32)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 18), b""):
            digest.update(block)
    return digest.hexdigest()


def _cache_entry(digest: str) -> str | None:
    """Where the table of the file with this digest is cached; None without a home."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec ignores a relative or empty value
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    return os.path.join(base, "sdprel", f"{CACHE_VERSION}-{digest}.npz")


def _read_entry(entry: str) -> EmbeddingTable | None:
    """The table a cache entry holds, or None when it is missing or damaged.
    The matrix is read ``CHUNK_LINES`` rows at a time, as the parser makes
    it, and each word's vector is a row of its chunk."""
    try:
        with zipfile.ZipFile(entry) as zf:
            words, counts = (_read_member(zf, n) for n in ("words", "counts"))
            if (words.dtype, counts.dtype, counts.shape) != (np.uint8, np.int64, (2,)):
                return None
            dimension, duplicates = map(int, counts)
            if dimension < 1 or duplicates < 0:
                return None
            chunks = _read_rows(zf, "vectors", dimension)
        # words cannot hold a line break, so they are stored one per line
        words = words.tobytes().decode("utf-8").split("\n") if chunks else []
    except _CACHE_ERRORS:
        return None
    vocab = dict(zip(words, itertools.chain.from_iterable(chunks)))
    if sum(map(len, chunks)) != len(words) or len(vocab) != len(words):
        return None
    return EmbeddingTable(dimension=dimension, vocabulary=vocab, duplicate_count=duplicates)


def _read_member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    """One array of an entry.  Reading it to the end checks its CRC, and bytes
    after its data are a ValueError."""
    with zf.open(f"{name}.npy") as fh:
        array = np.lib.format.read_array(fh, allow_pickle=False)
        _at_end(fh, name)
    return array


def _read_rows(zf: zipfile.ZipFile, name: str, width: int) -> list[np.ndarray]:
    """The float64 matrix `name`, `width` columns wide, as read-only arrays of
    at most ``CHUNK_LINES`` rows each, so no block larger than one of them is
    allocated.  Any other dtype, layout or width, a short member and bytes
    after its data are errors; reading it to the end checks its CRC."""
    with zf.open(f"{name}.npy") as fh:
        header = _NPY_HEADER_READERS.get(np.lib.format.read_magic(fh))
        if header is None:
            raise ValueError(f"{name}: unknown .npy version")
        shape, fortran_order, dtype = header(fh)
        if dtype != np.float64 or fortran_order or len(shape) != 2 or shape[1] != width:
            raise ValueError(f"{name}: {dtype} {shape}, not a float64 matrix {width} wide")
        chunks = []
        for start in range(0, shape[0], CHUNK_LINES):
            size = min(CHUNK_LINES, shape[0] - start) * width * 8
            data = fh.read(size)
            if len(data) != size:
                raise EOFError(f"{name}: data ends early")
            chunks.append(np.frombuffer(data, np.float64).reshape(-1, width))
        _at_end(fh, name)
    return chunks


def _at_end(fh, name: str) -> None:
    if fh.read(1):
        raise ValueError(f"{name}: bytes after the data")


def _write_entry(entry: str, table: EmbeddingTable) -> None:
    """Store the table at `entry` through a temporary file in its directory,
    so that a reader sees a whole entry or none.  The matrix is written a
    chunk of rows at a time, never copied whole.  A cache error skips the
    write; any exception, an interrupt too, removes the temporary file."""
    words = "\n".join(table.vocabulary).encode("utf-8")
    rows = list(table.vocabulary.values())
    members = {  # name: (dtype, shape, the bytes in blocks)
        "words": (np.uint8, (len(words),), [words]),
        "vectors": (np.float64, (len(rows), table.dimension),
                    (np.stack(rows[i : i + CHUNK_LINES]).tobytes()
                     for i in range(0, len(rows), CHUNK_LINES))),
        "counts": (np.int64, (2,),
                   [np.array([table.dimension, table.duplicate_count], np.int64).tobytes()]),
    }
    tmp = None
    try:
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(entry), suffix=".tmp")
        with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
            for name, (dtype, shape, blocks) in members.items():
                with zf.open(f"{name}.npy", "w", force_zip64=True) as out:
                    np.lib.format.write_array_header_1_0(
                        out, {"descr": np.dtype(dtype).str, "fortran_order": False, "shape": shape})
                    for block in blocks:
                        out.write(block)
        os.replace(tmp, entry)
        tmp = None
    except _CACHE_ERRORS:
        pass
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _parse(path, oov_seed: int) -> EmbeddingTable:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh, reading_text(path):
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}: header must be '<vocab_size> <dimension>'")
        try:
            # the declared vocabulary size is not checked: real files miscount it
            declared, dim = int(header[0]), int(header[1])
        except ValueError:
            raise FormatError(f"{path}: non-integer header {header}") from None
        if dim < 1:
            raise FormatError(f"{path}: dimension must be positive, got {dim}")
        # words in file order; a word whose chunk is not parsed yet maps to None
        vocab: dict[str, np.ndarray | None] = {}
        duplicates = 0
        chunk: list[tuple[int, str, str]] = []  # (line number, word, values text)
        for line_no, line in enumerate(fh, start=2):
            text = line.rstrip("\n")
            if text.endswith(" "):
                text = text[:-1]
            if not text:
                continue
            count = text.count(" ")
            if count != dim:
                _parse_chunk(path, dim, chunk, vocab)  # an earlier bad value is reported first
                raise DimensionMismatch(
                    f"{path}:{line_no}: {count} values for declared dimension {dim}"
                )
            word, _, values = text.partition(" ")
            if word in vocab:
                duplicates += 1
                continue
            vocab[word] = None
            chunk.append((line_no, word, values))
            if len(chunk) == CHUNK_LINES:
                _parse_chunk(path, dim, chunk, vocab)
        _parse_chunk(path, dim, chunk, vocab)
    return EmbeddingTable(
        dimension=dim, vocabulary=vocab, oov_seed=oov_seed, duplicate_count=duplicates
    )


def _parse_chunk(path, dim: int, chunk: list[tuple[int, str, str]], vocab: dict) -> None:
    """Parse the chunk's rows into one read-only matrix, point each word at
    its row and empty the chunk.  A chunk the C reader rejects, or may read
    differently from ``float``, is parsed row by row instead."""
    if not chunk:
        return
    texts = [values for _, _, values in chunk]
    rows = None
    if not any(c in "".join(texts) for c in _C_READER_ONLY_SPACES):
        try:
            rows = np.loadtxt(texts, delimiter=" ", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            pass
    if rows is None or rows.shape != (len(chunk), dim):
        rows = np.array([_parse_row(path, line_no, values) for line_no, _, values in chunk])
    rows.flags.writeable = False
    for (_, word, _), row in zip(chunk, rows):
        vocab[word] = row
    chunk.clear()


def _parse_row(path, line_no: int, values: str) -> np.ndarray:
    try:
        return np.array(values.split(" "), dtype=np.float64)
    except ValueError:
        raise FormatError(f"{path}:{line_no}: non-numeric vector value") from None


def oov_vector(token: str, dimension: int, oov_seed: int) -> np.ndarray:
    """Deterministic pseudo-random vector, components uniform in +-OOV_SCALE."""
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=str(oov_seed).encode("utf-8")
    ).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
    return rng.uniform(-OOV_SCALE, OOV_SCALE, size=dimension)


def lookup(table: EmbeddingTable, token: str) -> np.ndarray:
    """Stored vector, else lowercased fallback, else hash-seeded OOV vector."""
    vec = table.vocabulary.get(token)
    if vec is None:
        vec = table.vocabulary.get(token.lower())
    if vec is None:
        vec = oov_vector(token, table.dimension, table.oov_seed)
    return vec


def assemble(word_vec, pos_dense, position1_dense, position2_dense) -> np.ndarray:
    """Concatenate [word | pos | position-from-prot1 | position-from-prot2].

    A segment disabled by feature flags is passed as None and omitted.
    """
    segments = []
    for seg in (word_vec, pos_dense, position1_dense, position2_dense):
        if seg is None:
            continue
        arr = np.asarray(seg, dtype=np.float64)
        if arr.ndim != 1:
            raise DimensionMismatch(f"segment must be 1-D, got shape {arr.shape}")
        segments.append(arr)
    if not segments:
        raise DimensionMismatch("at least one segment is required")
    out = np.concatenate(segments)
    if not np.all(np.isfinite(out)):
        raise DimensionMismatch("token vector has non-finite components")
    return out
