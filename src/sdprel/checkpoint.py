"""Binary checkpoint format with bit-exact round trips.

Layout: magic ``SDPL`` | version u16 LE | meta length u64 LE | canonical
JSON metadata | raw float64 LE arrays in the order of the metadata's ``arrays``
table | 8-byte blake2b checksum of everything before it.

Version 3 stores the model's parameter vector as one array (``param/theta``),
the autoencoders' arrays and one matrix of word vectors (``words/vectors``)
whose rows follow the sorted ``words`` list, as a ``Checkpoint`` holds them;
the model's kind, input width and layout follow from the stored config.  Only
version 3 is read.  A version 1 or 2 file raises VersionMismatch: its model can
be rebuilt only by training again.  The loader checks the file's format: its
framing and checksum, the arrays table, the autoencoders' shapes and unknown
arrays.  Every other rule, such as whether the words are sorted, the arrays
suit the stored config and hold finite values, is checked by making the
``Checkpoint``.  The optional key ``embedding_digest`` holds the blake2b hex
digest of the vectors file the model was trained on; a checkpoint without it
loads unchecked.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .errors import CorruptChecksum, FormatError, VersionMismatch, reading_text
from .features import Autoencoder
from .pipeline import Checkpoint, TrainConfig

MAGIC = b"SDPL"
FORMAT_VERSION = 3

_AE_FIELDS = ("encoder_w", "encoder_b", "decoder_w", "decoder_b")


def _file_pieces(ck: Checkpoint) -> list:
    """The file piece by piece: the header, each array's bytes, then the checksum."""
    entries = [("param", "theta", ck.theta)] + [
        (section, name, getattr(ae, name))
        for section, ae in (("pos_ae", ck.pos_ae), ("position_ae", ck.position_ae))
        if ae is not None for name in _AE_FIELDS] + [("words", "vectors", ck.word_vectors)]
    meta = {
        "config": ck.config.to_dict(),
        "oov_seed": ck.oov_seed,
        "pos_table": ck.pos_table,
        "words": ck.words,
        "arrays": [[sec, name, list(arr.shape)] for sec, name, arr in entries],
    }
    if ck.embedding_digest is not None:
        meta["embedding_digest"] = ck.embedding_digest
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = MAGIC + struct.pack("<HQ", FORMAT_VERSION, len(meta_bytes)) + meta_bytes
    pieces = [header] + [np.ascontiguousarray(a, dtype="<f8").data.cast("B") for *_, a in entries]
    digest = hashlib.blake2b(digest_size=8)
    for piece in pieces:
        digest.update(piece)
    return pieces + [digest.digest()]


def checkpoint_bytes(ck: Checkpoint) -> bytes:
    return b"".join(_file_pieces(ck))


def save_checkpoint(ck: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_file_pieces(ck))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh, reading_text(path):
        return checkpoint_from_bytes(fh.read())


def checkpoint_from_bytes(blob: bytes) -> Checkpoint:
    if len(blob) < len(MAGIC) + 2 + 8 + 8:
        raise CorruptChecksum("checkpoint file is truncated")
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError("not an sdprel checkpoint (bad magic bytes)")
    body = memoryview(blob)[:-8]
    if hashlib.blake2b(body, digest_size=8).digest() != blob[-8:]:
        raise CorruptChecksum("checkpoint checksum does not match")
    (version,) = struct.unpack_from("<H", blob, len(MAGIC))
    if version in (1, 2):
        raise VersionMismatch(f"checkpoint format version {version} is no longer read; "
                              "only training the model again rebuilds it")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"checkpoint format version {version}, reader supports "
                              f"version {FORMAT_VERSION}")
    offset = len(MAGIC) + 2
    (meta_len,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    try:
        meta = json.loads(bytes(body[offset : offset + meta_len]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptChecksum(f"checkpoint metadata is not UTF-8 JSON: {exc}") from None
    offset += meta_len
    try:
        return _checkpoint_from_meta(meta, body, offset)
    except KeyError as exc:
        raise FormatError(f"checkpoint metadata is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise FormatError(f"malformed checkpoint metadata: {exc}") from None


def _payload(entries, body, offset: int) -> dict[tuple[str, str], np.ndarray]:
    """The arrays that the metadata's `arrays` table lists, by (section, name)."""
    arrays: dict[tuple[str, str], np.ndarray] = {}
    for sec, name, shape in entries:
        if (sec, name) in arrays:
            raise FormatError(f"checkpoint lists the array {sec}/{name} twice")
        count = math.prod(shape)
        if not 0 <= count <= (len(body) - offset) // 8:
            raise CorruptChecksum("checkpoint array payload is truncated")
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
        arrays[(sec, name)] = arr.astype(np.float64).reshape(shape)
        offset += 8 * count
    if offset != len(body):
        raise CorruptChecksum("checkpoint has trailing bytes")
    return arrays


def _take_ae(arrays, section: str) -> Autoencoder | None:
    if (section, "encoder_w") not in arrays:
        return None
    parts = [arrays.pop((section, field_name)) for field_name in _AE_FIELDS]
    d = parts[1].shape
    if len(d) != 1 or [a.shape for a in parts] != [d * 2, d, d * 2, d]:
        raise FormatError(f"checkpoint {section} arrays have inconsistent shapes")
    return Autoencoder(*parts)


def _checkpoint_from_meta(meta, body, offset: int) -> Checkpoint:
    """The checkpoint that the parsed metadata and the payload describe."""
    arrays = _payload(meta["arrays"], body, offset)
    config = TrainConfig.from_dict(meta["config"])
    pos_ae, position_ae = _take_ae(arrays, "pos_ae"), _take_ae(arrays, "position_ae")
    words, vectors = meta["words"], arrays.pop(("words", "vectors"))
    theta = arrays.pop(("param", "theta"))
    if arrays:
        raise FormatError(f"checkpoint has unknown arrays {list(arrays)}")
    if meta.get("embedding_digest", "") is None:  # a checkpoint without a digest has no key
        raise FormatError("checkpoint embedding_digest is null, not 64 hex digits")
    return Checkpoint(config=config, theta=theta, pos_ae=pos_ae, position_ae=position_ae,
                      pos_table=meta["pos_table"], oov_seed=meta["oov_seed"],
                      words=tuple(words) if type(words) is list else words, word_vectors=vectors,
                      embedding_digest=meta.get("embedding_digest"))
