"""Pretrained word vectors: loading, lookup with OOV fallback, concatenation.

Embeddings load from word2vec text format (header line ``<vocab> <dim>``,
then one ``word v1 .. vD`` row per line; gzip accepted for ``.gz`` paths).
Out-of-vocabulary tokens get a deterministic hash-seeded vector so repeated
runs see identical inputs.
"""

from __future__ import annotations

import gzip
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, FormatError, reading_text

OOV_SCALE = 0.05


@dataclass
class EmbeddingTable:
    dimension: int
    vocabulary: dict[str, np.ndarray] = field(default_factory=dict)
    oov_seed: int = 0
    duplicate_count: int = 0

    @classmethod
    def empty(cls, dimension: int, oov_seed: int = 0) -> "EmbeddingTable":
        """Table with no stored vectors; every token resolves via OOV hashing."""
        return cls(dimension=dimension, oov_seed=oov_seed)


def load_embeddings(path, oov_seed: int = 0) -> EmbeddingTable:
    """Read a word2vec text file; first occurrence wins on duplicate words."""
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
        vocab: dict[str, np.ndarray] = {}
        duplicates = 0
        for line_no, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(" ")
            if parts and parts[-1] == "":
                parts.pop()
            if not parts or parts == [""]:
                continue
            word, values = parts[0], parts[1:]
            if len(values) != dim:
                raise DimensionMismatch(
                    f"{path}:{line_no}: {len(values)} values for declared dimension {dim}"
                )
            if word in vocab:
                duplicates += 1
                continue
            try:
                vocab[word] = np.array(values, dtype=np.float64)
            except ValueError:
                raise FormatError(f"{path}:{line_no}: non-numeric vector value") from None
    return EmbeddingTable(
        dimension=dim, vocabulary=vocab, oov_seed=oov_seed, duplicate_count=duplicates
    )


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
