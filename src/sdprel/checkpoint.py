"""Binary checkpoint format with bit-exact round trips.

Layout: magic ``SDPL`` | version u16 LE | meta length u64 LE | canonical
JSON metadata | raw float64 LE arrays in the order of the metadata's ``arrays``
table | 8-byte blake2b checksum of everything before it.

Version 3 stores the model's parameter vector as one array (``param/theta``),
the autoencoders' arrays and one matrix of word vectors (``words/vectors``)
whose rows follow the sorted ``words`` list; the model's kind, input width and
layout follow from the stored config.  Version 2, one array per named tensor
and per word, is still read; version 1 is not.  Malformed metadata, or metadata
that disagrees with the stored config, raises FormatError (DimensionMismatch for
a version 2 tensor of another shape).  The optional key
``embedding_digest`` holds the blake2b hex digest of the vectors file the model
was trained on; a checkpoint without it loads unchecked.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct

import numpy as np

from .errors import CorruptChecksum, DimensionMismatch, FormatError, VersionMismatch
from .features import POS_DIM, Autoencoder
from .pipeline import Checkpoint, TrainConfig, build_model

MAGIC = b"SDPL"
FORMAT_VERSION = 3

_AE_FIELDS = ("encoder_w", "encoder_b", "decoder_w", "decoder_b")
_DIGEST = re.compile(r"[0-9a-f]{64}")


def _file_pieces(ck: Checkpoint) -> list:
    """The file piece by piece: the header, each array's bytes, then the
    checksum.  The word matrix goes row by row, so that it is never copied whole."""
    words, dim = sorted(ck.token_vectors), ck.config.embedding_dim
    rows = [np.ascontiguousarray(ck.token_vectors[w], dtype="<f8") for w in words]
    if any(row.shape != (dim,) for row in rows):
        raise DimensionMismatch(f"checkpoint token vectors are not {dim}-d")
    entries = [("param", "theta", ck.theta)] + [
        (section, name, getattr(ae, name))
        for section, ae in (("pos_ae", ck.pos_ae), ("position_ae", ck.position_ae))
        if ae is not None for name in _AE_FIELDS]
    meta = {
        "config": ck.config.to_dict(),
        "oov_seed": ck.oov_seed,
        "pos_table": ck.pos_table,
        "words": words,
        "arrays": [[sec, name, list(arr.shape)] for sec, name, arr in entries]
                  + [["words", "vectors", [len(words), dim]]],
    }
    if ck.embedding_digest is not None:
        meta["embedding_digest"] = ck.embedding_digest
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = MAGIC + struct.pack("<HQ", FORMAT_VERSION, len(meta_bytes)) + meta_bytes
    arrays = [np.ascontiguousarray(arr, dtype="<f8") for *_, arr in entries] + rows
    pieces = [header] + [arr.data.cast("B") for arr in arrays]
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
    with open(path, "rb") as fh:
        blob = fh.read()
    return checkpoint_from_bytes(blob)


def checkpoint_from_bytes(blob: bytes) -> Checkpoint:
    if len(blob) < len(MAGIC) + 2 + 8 + 8:
        raise CorruptChecksum("checkpoint file is truncated")
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError("not an sdprel checkpoint (bad magic bytes)")
    body = memoryview(blob)[:-8]
    if hashlib.blake2b(body, digest_size=8).digest() != blob[-8:]:
        raise CorruptChecksum("checkpoint checksum does not match")
    (version,) = struct.unpack_from("<H", blob, len(MAGIC))
    if version not in (2, FORMAT_VERSION):
        raise VersionMismatch(f"checkpoint format version {version}, reader supports "
                              f"versions 2 and {FORMAT_VERSION}")
    offset = len(MAGIC) + 2
    (meta_len,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    try:
        meta = json.loads(bytes(body[offset : offset + meta_len]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptChecksum(f"unreadable checkpoint metadata: {exc}") from None
    offset += meta_len
    try:
        return _checkpoint_from_meta(meta, version, body, offset)
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


def _version_3(meta, config: TrainConfig, arrays):
    """(theta, token vectors) of a version 3 file."""
    words, vectors = meta["words"], arrays.pop(("words", "vectors"))
    if not (type(words) is list and all(type(w) is str for w in words)
            and words == sorted(set(words))):
        raise FormatError("checkpoint words must be distinct strings in sorted order")
    if vectors.shape != (len(words), config.embedding_dim):
        raise FormatError(f"checkpoint word vectors have shape {vectors.shape}, its words "
                          f"and embedding_dim need {(len(words), config.embedding_dim)}")
    return arrays.pop(("param", "theta")), dict(zip(words, vectors))


def _version_2(meta, config: TrainConfig, arrays):
    """(theta, token vectors) of a version 2 file: its named tensors laid out
    into a zero model's theta, and one array per word."""
    if meta["model_kind"] != config.model:
        raise FormatError(f"checkpoint model_kind {meta['model_kind']!r} is not its config's "
                          f"model {config.model!r}")
    expected = {"input_dim": config.input_dim, "units": config.lstm_units,
                "hidden_size": config.mlp_hidden, "depth": config.mlp_depth,
                "pad_len": config.mlp_pad_len, "activation": config.activation}
    if meta["model_meta"] != expected:
        raise FormatError(f"checkpoint model_meta {meta['model_meta']!r} does not match its "
                          f"config's {expected!r}")
    model = build_model(config)
    for name, view in model.tensors().items():
        arr = arrays.pop(("param", name), None)
        if arr is None or arr.shape != view.shape:
            raise DimensionMismatch(f"checkpoint tensor {name} is missing or not {view.shape}")
        view[...] = arr
    return model.theta, {name: arrays.pop((sec, name)) for sec, name in list(arrays)
                         if sec == "tok"}


def _checkpoint_from_meta(meta, version: int, body, offset: int) -> Checkpoint:
    """The checkpoint that the parsed metadata and the payload describe."""
    arrays = _payload(meta["arrays"], body, offset)
    config = TrainConfig.from_dict(meta["config"])
    pos_ae, position_ae = _take_ae(arrays, "pos_ae"), _take_ae(arrays, "position_ae")
    if (pos_ae is not None, position_ae is not None) != (config.use_pos, config.use_position):
        raise FormatError("checkpoint autoencoders do not match use_pos and use_position")
    oov_seed, pos_table = meta["oov_seed"], meta["pos_table"]
    if type(oov_seed) is not int:
        raise FormatError(f"checkpoint oov_seed must be an integer, got {oov_seed!r}")
    if not (isinstance(pos_table, dict)
            and all(type(c) is int and 0 <= c < POS_DIM for c in pos_table.values())):
        raise FormatError(f"checkpoint pos_table classes must be integers in 0..{POS_DIM - 1}")
    digest = meta.get("embedding_digest")
    if "embedding_digest" in meta and not (type(digest) is str and _DIGEST.fullmatch(digest)):
        raise FormatError(f"checkpoint embedding_digest must be 64 hex digits, got {digest!r}")
    theta, token_vectors = (_version_2 if version == 2 else _version_3)(meta, config, arrays)
    if arrays:
        raise FormatError(f"checkpoint has unknown arrays {list(arrays)}")
    return Checkpoint(config=config, theta=theta, pos_ae=pos_ae, position_ae=position_ae,
                      pos_table=pos_table, oov_seed=oov_seed, token_vectors=token_vectors,
                      embedding_digest=digest)
