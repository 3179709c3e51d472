"""Sparse PoS/position codes and their dense autoencoder compression.

PoS tags collapse to 8 coarse classes (one-hot coded); relative distances
become thermometer codes where distance m sets the m lowest-order bits, shown
with the lowest-order bit rightmost.  Both code families are squeezed through
a single-layer sigmoid autoencoder trained by Adadelta.

A fit depends only on its distinct codes, its width, its epoch count and its
seed, so ``train_autoencoders`` keeps every fit it makes in this process, one
per seed, and a repeated fit (the next ``sweep`` value's, or another
``cross_validate`` or ``train`` call on the same instances) returns the same
bits without fitting again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DimensionMismatch, ParseError, reading_text
from .optim import AdadeltaState, adadelta_step

POS_CLASSES = (
    "noun",
    "verb",
    "adjective",
    "adverb",
    "preposition",
    "conjunction",
    "determiner",
    "other",
)
POS_DIM = 8
OTHER_CLASS = 7

POSITION_DIM = 10

# Every autoencoder fit made in this process, (weights, loss curve) keyed by
# (the samples' shape and bytes, d, epochs, seed): a fit is a pure function of
# those, so a kept one has the bits a new fit would get.
_FITS: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def load_pos_table(path=None) -> dict[str, int]:
    """Read a tag<TAB>class_index table, each tag on one line; defaults to the
    bundled one."""
    if path is None:
        return _pos_table_of(
            resources.files("sdprel").joinpath("data/pos_classes.tsv").read_text("utf-8")
        )
    with open(path, encoding="utf-8-sig") as fh, reading_text(path):
        return _pos_table_of(fh.read())


def _pos_table_of(text: str) -> dict[str, int]:
    table: dict[str, int] = {}
    set_on: dict[str, int] = {}  # tag -> the line that set it
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(line_no, f"expected tag<TAB>class, got {line!r}")
        tag, idx_s = parts
        try:
            idx = int(idx_s)
        except ValueError:
            raise ParseError(line_no, f"non-integer class index {idx_s!r}") from None
        if not 0 <= idx < POS_DIM:
            raise ParseError(line_no, f"class index {idx} outside 0..{POS_DIM - 1}")
        if set_on.setdefault(tag, line_no) != line_no:
            raise ParseError(line_no, f"tag {tag!r} is set twice, on lines {set_on[tag]} "
                                      f"and {line_no}")
        table[tag] = idx
    return table


def coarse_pos(tag: str, table: dict[str, int] | None = None) -> int:
    """Class of a PoS tag in `table`, by default the bundled one; unknown tags are 'other'."""
    return (load_pos_table() if table is None else table).get(tag, OTHER_CLASS)


def encode_pos_onehot(class_index: int) -> np.ndarray:
    if not 0 <= class_index < POS_DIM:
        raise DimensionMismatch(f"class index {class_index} outside 0..{POS_DIM - 1}")
    bits = np.zeros(POS_DIM, dtype=np.float64)
    bits[class_index] = 1.0
    return bits


def encode_position(rel_distance: int, dim: int = POSITION_DIM) -> np.ndarray:
    """Thermometer code of |rel_distance|, capped at dim.

    Index 0 is the highest-order (leftmost) bit, so ``encode_position(6)``
    renders as 0000111111.  Sign is discarded.
    """
    m = min(abs(int(rel_distance)), dim)
    bits = np.zeros(dim, dtype=np.float64)
    if m:
        bits[dim - m :] = 1.0
    return bits


def code_string(bits: np.ndarray) -> str:
    """Render a binary code the way the distance tables print it."""
    return "".join("1" if b else "0" for b in bits)


@dataclass
class Autoencoder:
    """Single sigmoid encoder/decoder pair with hidden size = input size."""

    encoder_w: np.ndarray
    encoder_b: np.ndarray
    decoder_w: np.ndarray
    decoder_b: np.ndarray
    training_losses: tuple[float, ...] = field(default=(), repr=False)

    @property
    def dim(self) -> int:
        return self.encoder_b.shape[0]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reconstruct(ae: Autoencoder, bits) -> np.ndarray:
    """Full encode/decode pass."""
    return _sigmoid(ae.decoder_w @ encode_dense(ae, bits) + ae.decoder_b)


def reconstruction_loss(ae: Autoencoder, samples: np.ndarray) -> float:
    """Mean over samples of the squared reconstruction error."""
    return float(_ae_loss_grad(ae, np.asarray(samples, dtype=np.float64))[0])


def _ae_views(theta: np.ndarray, d: int):
    """(enc_w, enc_b, dec_w, dec_b), the Autoencoder fields, as views of the vector
    [enc_w, dec_w, enc_b, dec_b]; a stack of vectors ``(S, P)`` gives stacked views."""
    ww, lead = d * d, theta.shape[:-1]
    return (theta[..., :ww].reshape(*lead, d, d), theta[..., 2 * ww : 2 * ww + d],
            theta[..., ww : 2 * ww].reshape(*lead, d, d), theta[..., 2 * ww + d :])


def _ae_loss_grad(ae: Autoencoder, x: np.ndarray):
    """Reconstruction loss of samples x and its gradient as one vector laid out
    [enc_w, dec_w, enc_b, dec_b], the layout of ``_ae_views``.

    The fields of ``ae`` may carry a leading stack axis (``_ae_views`` of an
    ``(S, P)`` stack); then every matmul is batched over it, the loss is ``(S,)``
    and the gradient ``(S, P)``, one row per stacked autoencoder.
    """
    z = _sigmoid(x @ ae.encoder_w.swapaxes(-1, -2) + ae.encoder_b[..., None, :])
    xhat = _sigmoid(z @ ae.decoder_w.swapaxes(-1, -2) + ae.decoder_b[..., None, :])
    diff = xhat - x
    # np.mean's sum and division, by ndarray methods: this runs once per epoch
    loss = (diff**2).sum(axis=-1).sum(axis=-1) / x.shape[0]
    d_pre_dec = 2.0 * diff / x.shape[0] * xhat * (1.0 - xhat)
    d_pre_enc = (d_pre_dec @ ae.decoder_w) * z * (1.0 - z)
    lead = z.shape[:-2]
    grad = np.concatenate([
        (d_pre_enc.swapaxes(-1, -2) @ x).reshape(*lead, -1),
        (d_pre_dec.swapaxes(-1, -2) @ z).reshape(*lead, -1),
        d_pre_enc.sum(axis=-2), d_pre_dec.sum(axis=-2),
    ], axis=-1)
    return loss, grad


def train_autoencoders(samples, d: int, epochs: int, seeds) -> list[Autoencoder]:
    """Fit one autoencoder per seed on the same samples, each fit at most once
    per process.

    Seeds whose fit on these samples, ``d`` and ``epochs`` was made before are
    taken from ``_FITS``; the others are fitted in one stacked run, where each
    row is the fit that seed would get alone, and kept.  Each returned model's
    fields are views of its own copy of its weight vector, and it keeps its
    per-epoch loss curve.  A ``d``, ``epochs`` or seed that is no integer raises TypeError.
    """
    x = np.asarray(samples, dtype=np.float64)
    d, epochs, seeds = operator.index(d), operator.index(epochs), list(map(operator.index, seeds))
    if x.ndim != 2 or x.shape[1] != d:
        raise DimensionMismatch(f"samples must be (n, {d}), got {x.shape}")
    if x.shape[0] == 0:
        raise DimensionMismatch("samples must be non-empty")
    if not seeds:
        raise DimensionMismatch("at least one seed is needed")

    keys = [(x.shape, x.tobytes(), d, epochs, seed) for seed in seeds]
    fits = [_FITS.get(key) for key in keys]
    missing = [k for k, fit in enumerate(fits) if fit is None]
    if missing:
        theta, curves = _fit_stack(x, d, epochs, [seeds[k] for k in missing])
        for k, row, curve in zip(missing, theta, curves):
            fits[k] = row, curve
            _FITS[keys[k]] = row.copy(), curve.copy()
    out = []
    for row, curve in fits:
        ae = Autoencoder(*_ae_views(row.copy(), d))
        ae.training_losses = tuple(curve.tolist())
        out.append(ae)
    return out


def _fit_stack(x: np.ndarray, d: int, epochs: int, seeds: list):
    """Fit one autoencoder per seed, all in one stacked run: the weight vectors
    ``(len(seeds) x P)`` and the loss curves ``(len(seeds) x epochs)``.

    Each seed's weights live in one vector ``[enc_w, dec_w, enc_b, dec_b]`` and
    the vectors are rows of one tensor, so each full-batch Adadelta epoch is one
    batched loss/gradient pass and one step on that tensor.
    """
    limit = np.sqrt(6.0 / (d + d))
    theta = np.zeros((len(seeds), 2 * d * d + 2 * d))
    for row, seed in zip(theta, seeds):
        # one draw for both weight matrices, biases start at zero
        rng = np.random.Generator(np.random.PCG64(seed))
        row[: 2 * d * d] = rng.uniform(-limit, limit, size=2 * d * d)
    stack = Autoencoder(*_ae_views(theta, d))
    params = {"theta": theta}
    state = AdadeltaState(rho=0.95, eps=1e-6)
    losses = np.empty((epochs, len(seeds)))
    for epoch in range(epochs):
        losses[epoch], grad = _ae_loss_grad(stack, x)
        adadelta_step(state, params, {"theta": grad})
    return theta, losses.T


def train_autoencoder(
    samples, d: int, epochs: int = 1500, seed: int = 0
) -> Autoencoder:
    """Fit the autoencoder by full-batch Adadelta on squared error: the stack of
    one of ``train_autoencoders``.  Deterministic for a fixed seed; the
    per-epoch loss curve is kept on the returned model."""
    return train_autoencoders(samples, d, epochs, [seed])[0]


def encode_dense(ae: Autoencoder, bits) -> np.ndarray:
    """Encoder half only: sigmoid(W_enc . bits + b_enc), components in (0,1)."""
    x = np.asarray(bits, dtype=np.float64)
    if x.shape != (ae.dim,):
        raise DimensionMismatch(f"expected shape ({ae.dim},), got {x.shape}")
    return _sigmoid(ae.encoder_w @ x + ae.encoder_b)
