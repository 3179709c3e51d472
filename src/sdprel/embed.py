"""Pretrained word vectors: loading, lookup with OOV fallback, concatenation.

Embeddings load from word2vec text format (header line ``<vocab> <dim>``,
then one ``word v1 .. vD`` row per line; gzip accepted for ``.gz`` paths).
Rows are parsed in chunks of ``CHUNK_LINES`` lines by numpy's C reader, so
the text of at most one chunk is held at a time; each word's vector is a
read-only row of its chunk's matrix.  Out-of-vocabulary tokens get a
deterministic hash-seeded vector so repeated runs see identical inputs.

A parse reads the file once and hashes its bytes (the compressed bytes for
``.gz``) as it reads them: their blake2b is the table's ``digest``, which a
checkpoint records, and their SHA-256 keys the one table kept in memory, that
of the last file parsed.  With a table kept, a load first reads the file for
its SHA-256 and, on a match, returns the kept rows without parsing, in a table
of its own (the caller's ``oov_seed``, a new vocabulary dict).  A rejected
file and a pipe are never kept.  SHA-256 is the key because CPUs with SHA
extensions hash it fastest; without them it can be slower than blake2b.
Nothing is written to disk.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, FormatError, reading_text

OOV_SCALE = 0.05
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


# (SHA-256 hex digest, table) of the last file parsed: the memo of load_embeddings.
_LAST: tuple[str, EmbeddingTable] | None = None


def load_embeddings(path, oov_seed: int = 0) -> EmbeddingTable:
    """Read a word2vec text file into read-only vectors, or return the kept
    table when the file's bytes are those parsed last.

    Per line: one trailing space is dropped, and empty or single-space lines
    are skipped.  A row whose value count is not the header's dimension is a
    DimensionMismatch, checked before its values are parsed; a value that
    Python's ``float`` does not accept is a FormatError.  Either error names
    the first bad line.  The first occurrence of a word wins; later ones are
    counted in ``duplicate_count`` and never parsed.
    """
    global _LAST
    if _LAST is not None and os.path.isfile(path) and _sha256(path) == _LAST[0]:
        kept = _LAST[1]
    else:
        _LAST = None  # the old table is not held through the parse
        key, kept = _parse(path, oov_seed)
        if key is None:  # a pipe is read once
            return kept
        _LAST = key, kept
    return EmbeddingTable(kept.dimension, dict(kept.vocabulary), oov_seed,
                          kept.duplicate_count, kept.digest)


class _Hashing(io.RawIOBase):
    """A binary file that feeds every byte read through it to its hashes."""

    def __init__(self, raw, *hashes):
        self.raw, self.hashes = raw, hashes

    def readable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:
        data = self.raw.read(size)
        for digest in self.hashes:
            digest.update(data)
        return data

    def drain(self) -> None:
        """Read to the end of the file, so that the hashes cover all of it."""
        while self.read(1 << 18):
            pass


def _sha256(path) -> str:
    key = hashlib.sha256()
    with open(path, "rb", buffering=0) as raw:
        _Hashing(raw, key).drain()
    return key.hexdigest()


def _parse(path, oov_seed: int) -> tuple[str | None, EmbeddingTable]:
    """Parse the file, reading its bytes once; returns their SHA-256 hex
    digest and the table, whose ``digest`` is their blake2b.  Both are None
    for a file that cannot seek, such as a pipe."""
    digest, key = hashlib.blake2b(digest_size=32), hashlib.sha256()
    with open(path, "rb", buffering=0) as raw, reading_text(path):
        hashing = _Hashing(raw, digest, key)
        binary = gzip.GzipFile(fileobj=hashing) if str(path).endswith(".gz") else hashing
        fh = io.TextIOWrapper(binary, encoding="utf-8-sig")
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
        hashing.drain()
        kept = raw.seekable()  # a pipe cannot be read again to check its bytes
    table = EmbeddingTable(dim, vocab, oov_seed, duplicates, digest.hexdigest() if kept else None)
    return (key.hexdigest() if kept else None), table


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
