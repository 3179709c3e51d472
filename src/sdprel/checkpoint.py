"""Binary checkpoint format with bit-exact round trips.

Layout: magic ``SDPL`` | version u16 LE | meta length u64 LE | canonical
JSON metadata | raw float64 LE array payloads in the order the metadata
lists them | 8-byte blake2b checksum of everything before it.

Version 2 stores each LSTM direction as three fused tensors (``fwd.w_in``,
``fwd.w_rec``, ``fwd.b``); version 1 stored one per gate (``fwd.w_in.i`` ...)
and is still read.  Metadata that lacks a key, has a malformed value (an
``oov_seed`` that is not an integer, a PoS class outside 0..7) or disagrees
with the stored config raises FormatError.  The optional key
``embedding_digest`` holds the blake2b hex digest of the vectors file the
model was trained on; a checkpoint without it loads unchecked.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct

import numpy as np

from .errors import CorruptChecksum, FormatError, VersionMismatch
from .features import POS_DIM, Autoencoder
from .neural import GATES
from .pipeline import Checkpoint, TrainConfig

MAGIC = b"SDPL"
FORMAT_VERSION = 2
_LSTM_PREFIXES = ("fwd.", "bwd.")

_AE_FIELDS = ("encoder_w", "encoder_b", "decoder_w", "decoder_b")
_DIGEST = re.compile(r"[0-9a-f]{64}")


def _fused_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Version 1 per-gate LSTM tensors concatenated in GATES order."""
    out = {name: arr for name, arr in params.items() if not name.startswith(_LSTM_PREFIXES)}
    for name in {name.rsplit(".", 1)[0] for name in params.keys() - out.keys()}:
        try:
            out[name] = np.concatenate([params[f"{name}.{g}"] for g in GATES])
        except (KeyError, ValueError) as exc:
            raise FormatError(f"version 1 checkpoint: bad gate tensors for {name}: {exc}") from None
    return out


def _collect_arrays(ck: Checkpoint) -> dict[tuple[str, str], np.ndarray]:
    arrays: dict[tuple[str, str], np.ndarray] = {}
    for name, arr in ck.params.items():
        arrays[("param", name)] = arr
    for section, ae in (("pos_ae", ck.pos_ae), ("position_ae", ck.position_ae)):
        if ae is None:
            continue
        for field_name in _AE_FIELDS:
            arrays[(section, field_name)] = getattr(ae, field_name)
    for token, vec in ck.token_vectors.items():
        arrays[("tok", token)] = vec
    return arrays


def checkpoint_bytes(ck: Checkpoint) -> bytes:
    arrays = _collect_arrays(ck)
    index = sorted(arrays)
    meta = {
        "config": ck.config.to_dict(),
        "model_kind": ck.model_kind,
        "model_meta": ck.model_meta,
        "oov_seed": ck.oov_seed,
        "pos_table": ck.pos_table,
        "arrays": [[sec, name, list(arrays[(sec, name)].shape)] for sec, name in index],
    }
    if ck.embedding_digest is not None:
        meta["embedding_digest"] = ck.embedding_digest
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<HQ", FORMAT_VERSION, len(meta_bytes)), meta_bytes]
    for key in index:
        parts.append(np.ascontiguousarray(arrays[key], dtype="<f8").tobytes())
    body = b"".join(parts)
    digest = hashlib.blake2b(body, digest_size=8).digest()
    return body + digest


def save_checkpoint(ck: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(ck))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    return checkpoint_from_bytes(blob)


def checkpoint_from_bytes(blob: bytes) -> Checkpoint:
    if len(blob) < len(MAGIC) + 2 + 8 + 8:
        raise CorruptChecksum("checkpoint file is truncated")
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError("not an sdprel checkpoint (bad magic bytes)")
    body, digest = blob[:-8], blob[-8:]
    if hashlib.blake2b(body, digest_size=8).digest() != digest:
        raise CorruptChecksum("checkpoint checksum does not match")
    (version,) = struct.unpack_from("<H", blob, len(MAGIC))
    if version not in (1, FORMAT_VERSION):
        raise VersionMismatch(
            f"checkpoint format version {version}, reader supports 1 and {FORMAT_VERSION}"
        )
    offset = len(MAGIC) + 2
    (meta_len,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    try:
        meta = json.loads(body[offset : offset + meta_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptChecksum(f"unreadable checkpoint metadata: {exc}") from None
    offset += meta_len
    try:
        return _checkpoint_from_meta(meta, version, body, offset)
    except KeyError as exc:
        raise FormatError(f"checkpoint metadata is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise FormatError(f"malformed checkpoint metadata: {exc}") from None


def _checkpoint_from_meta(meta, version: int, body: bytes, offset: int) -> Checkpoint:
    """The payload arrays and the checkpoint that the parsed metadata describes."""
    arrays: dict[tuple[str, str], np.ndarray] = {}
    for sec, name, shape in meta["arrays"]:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        raw = body[offset : offset + nbytes]
        if len(raw) != nbytes:
            raise CorruptChecksum("checkpoint array payload is truncated")
        arrays[(sec, name)] = (
            np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        )
        offset += nbytes
    if offset != len(body):
        raise CorruptChecksum("checkpoint has trailing bytes")

    def take_ae(section: str) -> Autoencoder | None:
        if (section, "encoder_w") not in arrays:
            return None
        parts = [arrays[(section, field_name)] for field_name in _AE_FIELDS]
        d = parts[1].shape
        if len(d) != 1 or [a.shape for a in parts] != [d * 2, d, d * 2, d]:
            raise FormatError(f"checkpoint {section} arrays have inconsistent shapes")
        return Autoencoder(*parts)

    config = TrainConfig.from_dict(meta["config"])
    pos_ae, position_ae = take_ae("pos_ae"), take_ae("position_ae")
    if (pos_ae is not None, position_ae is not None) != (config.use_pos, config.use_position):
        raise FormatError("checkpoint autoencoders do not match use_pos and use_position")
    input_dim = meta["model_meta"]["input_dim"]
    if type(input_dim) is not int or input_dim < 1:
        raise FormatError(f"checkpoint input_dim must be an integer >= 1, got {input_dim!r}")
    oov_seed, pos_table = meta["oov_seed"], meta["pos_table"]
    if type(oov_seed) is not int:
        raise FormatError(f"checkpoint oov_seed must be an integer, got {oov_seed!r}")
    if not (isinstance(pos_table, dict)
            and all(type(c) is int and 0 <= c < POS_DIM for c in pos_table.values())):
        raise FormatError(f"checkpoint pos_table classes must be integers in 0..{POS_DIM - 1}")
    digest = meta.get("embedding_digest")
    if "embedding_digest" in meta and not (type(digest) is str and _DIGEST.fullmatch(digest)):
        raise FormatError(f"checkpoint embedding_digest must be 64 hex digits, got {digest!r}")
    params = {name: arr for (sec, name), arr in arrays.items() if sec == "param"}
    ck = Checkpoint(
        config=config,
        input_dim=input_dim,
        params=_fused_params(params) if version == 1 else params,
        pos_ae=pos_ae,
        position_ae=position_ae,
        pos_table=pos_table,
        oov_seed=oov_seed,
        token_vectors={
            name: arr for (sec, name), arr in arrays.items() if sec == "tok"
        },
        embedding_digest=digest,
    )
    if meta["model_meta"] != ck.model_meta:
        raise FormatError("checkpoint model metadata does not match its config")
    if meta["model_kind"] != ck.model_kind:
        raise FormatError(f"checkpoint model_kind {meta['model_kind']!r} is not its config's "
                          f"model {ck.model_kind!r}")
    return ck
