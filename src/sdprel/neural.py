"""Numerical kernels: LSTM, BiLSTM encoder, pooling, MLP head, backprop.

Everything is explicit float64 numpy with hand-written reverse-mode
gradients; no autodiff framework.  Three sequence classifiers share one
skeleton, ``SequenceModel``: an encoder turns each sequence into one vector
and the MLP head classifies it.  The BiLSTM max-pools its states, the simple
RNN baseline takes its final hidden state and the MLP baseline concatenates
a fixed number of token vectors.  A model supplies only its encoder, as two
hooks: ``_encode`` and ``_encode_backward``.

A model's weights are one float64 vector ``theta``.  Its named tensors, its
head and its LSTM directions are views of it; a direction keeps one fused
(4H x .) matrix per weight kind, gate rows in GATES order (Appleyard et al.
2016).  Every model runs on batches: ``forward_batch`` takes the rows of
several sequences one after another and their lengths, and
``backward_batch`` returns the gradient summed over the batch as one vector
in theta's layout.  The recurrent step loop runs over packed time-major rows
(see ``Packing``), so the input projection and each weight gradient is one
matmul per batch.  ``forward`` and ``backward`` are views of one sequence as
a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRate,
    DimensionMismatch,
    EmptySequence,
    NonFiniteInput,
)

GATES = ("i", "f", "o", "u")
LABEL_COUNT = 2

PROB_CLAMP = 1e-12


def sigmoid(x):
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below: no exp of a positive number
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def softmax(logits):
    """Softmax over the last axis."""
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


ACTIVATIONS = {
    "sigmoid": (sigmoid, lambda y: y * (1.0 - y)),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "relu": (lambda x: np.maximum(0.0, x), lambda y: (y > 0).astype(np.float64)),
}


def cross_entropy(prob_pos, label):
    """Binary cross entropy of the positive-class probability, element-wise."""
    label = np.asarray(label)
    if not np.all((label == 0) | (label == 1)):
        raise DimensionMismatch(f"label must be 0 or 1, got {label}")
    a = np.clip(prob_pos, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(label * np.log(a) + (1 - label) * np.log(1.0 - a))


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability rate, else 1/(1-rate).

    A (B x d) shape draws B masks of width d one after another.
    """
    if not 0.0 <= rate < 1.0:
        raise BadRate(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape, dtype=np.float64)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


# ---------------------------------------------------------------------------
# Batches


@dataclass(frozen=True)
class Packing:
    """Where the tokens of a batch of sequences go in the recurrent step loop.

    Token rows are the sequences one after another, in batch order.  Packed
    rows are time-major over the sequences sorted longest first: step t is
    a block of ``steps[t]`` rows, one per sequence still running, so the
    sequences running at a step are a prefix of those of the step before.
    ``fwd`` and ``bwd`` are the token row that each packed row reads when
    every sequence is read from its start and from its end; ``prev`` is,
    for the packed rows after the first block, the row of the same sequence
    one step earlier; ``last`` is the packed row of each sequence's final
    step, in batch order.  A batch of one uses slices.
    """

    lengths: np.ndarray
    starts: np.ndarray
    steps: list[int]
    fwd: np.ndarray | slice
    bwd: np.ndarray | slice
    prev: np.ndarray | slice
    last: np.ndarray

    @property
    def positions(self) -> np.ndarray:
        """Each token row's position within its sequence."""
        return np.arange(self.lengths.sum()) - np.repeat(self.starts, self.lengths)


def _pack(lengths: np.ndarray) -> Packing:
    starts = np.cumsum(lengths) - lengths
    if len(lengths) == 1:
        n = int(lengths[0])
        return Packing(lengths, starts, [1] * n, slice(None), slice(None, None, -1),
                       slice(0, n - 1), lengths - 1)
    order = np.argsort(-lengths, kind="stable")
    steps = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0)
    offsets = np.cumsum(steps) - steps
    step = np.repeat(np.arange(len(steps)), steps)
    seq = order[np.arange(lengths.sum()) - offsets[step]]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return Packing(
        lengths,
        starts,
        steps.tolist(),
        fwd=starts[seq] + step,
        bwd=starts[seq] + lengths[seq] - 1 - step,
        prev=np.arange(steps[0], step.size) - np.repeat(steps[:-1], steps[1:]),
        last=offsets[lengths - 1] + rank,
    )


def _as_batch(xs, lengths, dim: int) -> tuple[np.ndarray, Packing]:
    xs = np.asarray(xs, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1:
        raise EmptySequence("a batch needs one or more non-empty sequences")
    if xs.ndim != 2 or xs.shape[0] != lengths.sum():
        raise DimensionMismatch(
            f"batch rows {xs.shape}, the lengths add up to {lengths.sum()}")
    if xs.shape[1] != dim:
        raise DimensionMismatch(f"input dim {xs.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(xs)):
        raise NonFiniteInput("sequence contains non-finite values")
    return xs, _pack(lengths)


# ---------------------------------------------------------------------------
# LSTM


@dataclass
class LstmParams:
    """Fused gate weights: rows are the gates in GATES order, `units` rows each.

    w_x is (4H x input_dim), w_h is (4H x H) and b is (4H,), so sigmoid
    covers the first 3H rows (i, f, o) and tanh the last H (u).  The
    per-gate mappings w_in, w_rec and bias are row views into them.
    """

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray

    @property
    def units(self) -> int:
        return self.b.shape[0] // len(GATES)

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]

    @property
    def w_in(self) -> dict[str, np.ndarray]:
        return _gate_rows(self.w_x)

    @property
    def w_rec(self) -> dict[str, np.ndarray]:
        return _gate_rows(self.w_h)

    @property
    def bias(self) -> dict[str, np.ndarray]:
        return _gate_rows(self.b)


def _gate_rows(fused: np.ndarray) -> dict[str, np.ndarray]:
    return dict(zip(GATES, np.split(fused, len(GATES))))


def _lstm_views(tensors: dict[str, np.ndarray], prefix: str) -> LstmParams:
    return LstmParams(*(tensors[f"{prefix}.{name}"] for name in ("w_in", "w_rec", "b")))


def _draw(rng: np.random.Generator, *weights: np.ndarray) -> None:
    """Fill each matrix in place with a Glorot draw, one after another."""
    for w in weights:
        w[...] = glorot(rng, *w.shape)


def lstm_cell(p: LstmParams, x, h_prev, c_prev):
    """One LSTM step; returns (h, c)."""
    h, c, _ = _lstm_step(p, np.asarray(x, dtype=np.float64), h_prev, c_prev)
    return h, c


def _lstm_step(p, x, h_prev, c_prev):
    if x.shape != (p.input_dim,):
        raise DimensionMismatch(f"input shape {x.shape}, expected ({p.input_dim},)")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(h_prev))):
        raise NonFiniteInput("lstm_cell received non-finite input")
    acts = p.w_x @ x + p.w_h @ h_prev + p.b
    h, c = np.empty((2, p.units))
    _activate(acts, c_prev, h, c)
    return h, c, _gate_rows(acts)


def _activate(acts, c_prev, h, c) -> None:
    """Turn fused pre-activations (last axis) into gate activations in place, and
    write the new hidden and cell states into h and c."""
    units = c_prev.shape[-1]
    gates = acts[..., : 3 * units]
    gates *= 0.5  # sigmoid(x) = 0.5 + 0.5 tanh(x / 2), so one tanh serves all four gates
    np.tanh(acts, out=acts)
    gates *= 0.5
    gates += 0.5
    i, f, o = gates[..., :units], gates[..., units : 2 * units], gates[..., 2 * units :]
    u = acts[..., 3 * units :]
    np.multiply(i, u, out=c)
    c += np.multiply(f, c_prev, out=h)  # c = i u + f c_prev
    np.multiply(o, np.tanh(c, out=h), out=h)


def _lstm_run(p: LstmParams, xs: np.ndarray, pk: Packing):
    """Run over packed rows xs; returns (states, gate activations, cells) per row."""
    units, w_h = p.units, p.w_h.T
    acts = xs @ p.w_x.T + p.b
    states = np.empty((xs.shape[0], units))
    cells = np.empty((xs.shape[0], units))
    h = c = np.zeros((pk.steps[0], units))
    start = 0
    for n in pk.steps:
        stop = start + n
        step = acts[start:stop]
        step += h[:n] @ w_h
        c_prev, h, c = c[:n], states[start:stop], cells[start:stop]
        _activate(step, c_prev, h, c)
        start = stop
    if not np.all(np.isfinite(states)):
        raise NonFiniteInput("LSTM state became non-finite")
    return states, acts, cells


def _lstm_backprop(p: LstmParams, xs, run, d_states, pk: Packing, grads: LstmParams):
    """Reverse-mode through `_lstm_run(p, xs, pk)`.

    d_states is the gradient arriving at each packed row's hidden state.
    Writes the weight gradients into `grads` and returns the (rows x 4H)
    gate gradients in packed order, in the buffer that held their scales;
    those times p.w_x are d xs.
    """
    states, acts, cells = run
    rows, units = states.shape
    i, f, o, u = (acts[:, k * units : (k + 1) * units] for k in range(len(GATES)))
    tanh_c = np.tanh(cells)
    # d_pre[r] is scale[r] times dc for the i, f and u blocks, times dh for o:
    # u i (1-i), c_prev f (1-f), tanh(c) o (1-o) and i (1-u^2)
    scale = np.empty((rows, len(GATES), units))
    scale[:, 0], scale[:, 2], scale[:, 3] = u, tanh_c, i
    scale[: pk.steps[0], 1] = 0.0  # the initial cell state
    scale[pk.steps[0]:, 1] = cells[pk.prev]
    for k, gate in enumerate((i, f, o)):
        scale[:, k] *= gate * (1.0 - gate)
    scale[:, 3] *= 1.0 - u * u
    dc_dh = o * (1.0 - tanh_c * tanh_c)
    # rows past a step's running prefix stay zero: those sequences start there
    dh_carry = np.zeros((pk.steps[0], units))
    dc_carry = np.zeros((pk.steps[0], units))
    stop = rows
    for n in reversed(pk.steps):
        block = slice(stop - n, stop)
        dh = d_states[block] + dh_carry[:n]
        dc = dc_carry[:n] + dh * dc_dh[block]
        d_o = scale[block, 2] * dh  # before the block's scales become its gate gradients
        scale[block] *= dc[:, None, :]
        scale[block, 2] = d_o
        dc_carry[:n] = dc * f[block]
        dh_carry[:n] = scale[block].reshape(n, -1) @ p.w_h
        stop -= n
    d_pre = scale.reshape(rows, -1)
    np.matmul(d_pre.T, xs, out=grads.w_x)
    np.matmul(d_pre[pk.steps[0]:].T, states[pk.prev], out=grads.w_h)
    d_pre.sum(axis=0, out=grads.b)
    return d_pre


# ---------------------------------------------------------------------------
# MLP head (shared by all three models)


@dataclass
class MlpHead:
    """Hidden stack then a linear label layer feeding softmax."""

    hidden: list[tuple[np.ndarray, np.ndarray]]  # [(W: H x in, b: H), ...]
    w_out: np.ndarray  # LABEL_COUNT x H
    activation: str = "sigmoid"


def _head_forward(head: MlpHead, s: np.ndarray, masks):
    """Head pass over the rows of s; masks is None or the {"s", "m"} dropout masks."""
    act, _ = ACTIVATIONS[head.activation]
    mask_s, mask_m = (masks["s"], masks["m"]) if masks else (None, None)
    s_drop = s if mask_s is None else s * mask_s
    layer_inputs = []
    hidden_acts = []
    x = s_drop
    for w, b in head.hidden:
        layer_inputs.append(x)
        x = act(x @ w.T + b)
        hidden_acts.append(x)
    m = x
    m_drop = m if mask_m is None else m * mask_m
    logits = m_drop @ head.w_out.T
    return {
        "s": s,
        "layer_inputs": layer_inputs,
        "hidden_acts": hidden_acts,
        "m": m,
        "m_drop": m_drop,
        "logits": logits,
        "probs": softmax(logits),
        "mask_s": mask_s,
        "mask_m": mask_m,
    }


def _head_backward(head: MlpHead, cache, labels, grads: dict[str, np.ndarray]):
    """Writes the gradients summed over the rows into the head tensors of `grads`;
    returns dS per row."""
    _, act_deriv = ACTIVATIONS[head.activation]
    d_logits = cache["probs"].copy()
    d_logits[np.arange(d_logits.shape[0]), labels] -= 1.0
    np.matmul(d_logits.T, cache["m_drop"], out=grads["head.w_out"])
    d_m = d_logits @ head.w_out
    if cache["mask_m"] is not None:
        d_m = d_m * cache["mask_m"]
    for idx in range(len(head.hidden) - 1, -1, -1):
        w, _ = head.hidden[idx]
        d_pre = d_m * act_deriv(cache["hidden_acts"][idx])
        np.matmul(d_pre.T, cache["layer_inputs"][idx], out=grads[f"head.w{idx}"])
        d_pre.sum(axis=0, out=grads[f"head.b{idx}"])
        d_m = d_pre @ w
    if cache["mask_s"] is not None:
        d_m = d_m * cache["mask_s"]
    return d_m


# ---------------------------------------------------------------------------
# Spec-level operations


def max_pool(states) -> np.ndarray:
    """Coordinate-wise maximum over the position axis."""
    arr = np.asarray(states, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise EmptySequence("max_pool needs a non-empty list of state vectors")
    return arr.max(axis=0)


def _first_max(z: np.ndarray, pooled: np.ndarray, pk: Packing) -> np.ndarray:
    """Token row of each sequence's maximum, per coordinate; ties go to the lowest position."""
    pos = pk.positions
    hit = z == np.repeat(pooled, pk.lengths, axis=0)
    first = np.minimum.reduceat(np.where(hit, pos[:, None], pos.size), pk.starts, axis=0)
    return pk.starts[:, None] + first


def bilstm_forward(model: "BiLstmModel", seq) -> list[np.ndarray]:
    """Aligned [forward ; backward] hidden states for each position."""
    return list(model.forward(seq)["z"])


def mlp_head(model, s):
    """(hidden output M, logits T, probabilities) for a pooled vector S."""
    cache = _head_forward(model.head, np.asarray(s, dtype=np.float64)[None, :], None)
    return cache["m"][0], cache["logits"][0], cache["probs"][0]


def backward(model, seq, label: int) -> dict[str, np.ndarray]:
    """Gradients of the cross-entropy loss for one instance (no dropout)."""
    cache = model.forward(_as_sequence(seq), masks=None)
    return model.backward(cache, label)


def _as_sequence(seq) -> np.ndarray:
    xs = np.asarray(seq, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[None, :]
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise EmptySequence("sequence must be a non-empty list of vectors")
    return xs


# ---------------------------------------------------------------------------
# Models


class SequenceModel:
    """A sequence encoder and the MLP head on its output, one vector per sequence.

    Tensors are named views of one vector `theta`, tiled in the order of
    `shapes`: the encoder's own, then the head's.  A model starts at zeros.
    A subclass supplies the encoder as two hooks: ``_encode(xs, pk, cache)``
    returns one row per sequence and keeps in `cache` what its backward pass
    reads; ``_encode_backward(cache, d_s, grads, input_grad)`` writes the
    encoder's weight gradients into `grads` and returns d xs, or None unless
    `input_grad`.
    """

    def _lay_out(self, input_dim, shapes, fan_in, hidden_size, depth,
                 activation) -> dict[str, np.ndarray]:
        """Append the head to `shapes`, make a zero theta and self.head; returns the views."""
        if activation not in ACTIVATIONS:
            raise DimensionMismatch(f"unknown activation {activation!r}")
        self.input_dim = input_dim
        for idx in range(depth):
            shapes[f"head.w{idx}"], shapes[f"head.b{idx}"] = (hidden_size, fan_in), (hidden_size,)
            fan_in = hidden_size
        shapes["head.w_out"] = (LABEL_COUNT, fan_in)
        self.shapes = shapes
        self._ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
        self.theta = np.zeros(self._ends[-1])
        t = self.tensors()
        self.head = MlpHead([(t[f"head.w{k}"], t[f"head.b{k}"]) for k in range(depth)],
                            t["head.w_out"], activation)
        return t

    @classmethod
    def init(cls, rng: np.random.Generator, input_dim: int, **sizes):
        """A model whose weight matrices are Glorot draws, in the order they tile theta."""
        model = cls(input_dim, **sizes)
        model._draw_own(rng)
        _draw(rng, *(w for w, _ in model.head.hidden), model.head.w_out)
        return model

    def _draw_own(self, rng: np.random.Generator) -> None:
        """Draw the tensors laid out before the head."""

    def tensors(self, vec: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Named views of theta, or of `vec`, a vector in theta's layout such as a gradient."""
        parts = np.split(self.theta if vec is None else vec, self._ends[:-1])
        return {name: p.reshape(shape) for (name, shape), p in zip(self.shapes.items(), parts)}

    def forward_batch(self, xs, lengths, masks=None):
        """Forward pass over the token rows of a batch; masks hold one row per sequence."""
        xs, pk = _as_batch(xs, lengths, self.input_dim)
        cache = {"xs": xs, "pack": pk}
        cache.update(_head_forward(self.head, self._encode(xs, pk, cache), masks))
        return cache

    def backward_batch(self, cache, labels, input_grad=True, out=None):
        """Batch-summed loss gradient in theta's layout, written into `out` when given,
        and d xs (None unless `input_grad`)."""
        grad = np.empty_like(self.theta) if out is None else out
        grads = self.tensors(grad)
        d_s = _head_backward(self.head, cache, labels, grads)
        return grad, self._encode_backward(cache, d_s, grads, input_grad)

    def forward(self, xs, masks=None):
        """The batch-of-one cache: the sequence's own values, and the batch under "batch"."""
        xs = _as_sequence(xs)
        batch = self.forward_batch(xs, [xs.shape[0]], masks)
        return {"xs": xs, "probs": batch["probs"][0], "s": batch["s"][0], "batch": batch}

    def backward(self, cache, label):
        """The batch-of-one gradients by tensor name, and d xs under "__inputs__"."""
        grad, d_xs = self.backward_batch(cache["batch"], [label])
        return {**self.tensors(grad), "__inputs__": d_xs}


class BiLstmModel(SequenceModel):
    """BiLSTM over the SDP sequence, max-pooled, classified by the MLP head."""

    kind = "bilstm"

    def __init__(self, input_dim, units=64, hidden_size=30, depth=1, activation="sigmoid"):
        rows = len(GATES) * units
        own = {f"{d}.{name}": shape for d in ("fwd", "bwd") for name, shape in
               (("w_in", (rows, input_dim)), ("w_rec", (rows, units)), ("b", (rows,)))}
        t = self._lay_out(input_dim, own, 2 * units, hidden_size, depth, activation)
        self.forward_lstm = _lstm_views(t, "fwd")
        self.backward_lstm = _lstm_views(t, "bwd")

    def _draw_own(self, rng):
        for p in (self.forward_lstm, self.backward_lstm):
            # per-gate Glorot blocks, drawn in GATES order
            _draw(rng, *_gate_rows(p.w_x).values(), *_gate_rows(p.w_h).values())
            # forget-gate bias starts at 1 so early steps keep their cell state
            p.bias["f"][...] = 1.0

    @property
    def units(self) -> int:
        return self.forward_lstm.units

    def _encode(self, xs, pk, cache):
        units = self.units
        fwd = _lstm_run(self.forward_lstm, xs[pk.fwd], pk)
        bwd = _lstm_run(self.backward_lstm, xs[pk.bwd], pk)
        z = np.empty((xs.shape[0], 2 * units))  # token rows of [forward ; backward] states
        z[pk.fwd, :units] = fwd[0]
        z[pk.bwd, units:] = bwd[0]
        cache.update(fwd=fwd, bwd=bwd, z=z)
        return np.maximum.reduceat(z, pk.starts, axis=0)

    def _encode_backward(self, cache, d_s, grads, input_grad):
        pk, z, units = cache["pack"], cache["z"], self.units
        d_z = np.zeros_like(z)
        d_z[_first_max(z, cache["s"], pk), np.arange(z.shape[1])] = d_s
        xs = cache["xs"]
        d_xs = np.empty_like(xs) if input_grad else None
        # each direction's gate gradients are freed before the next direction runs
        d_pre = _lstm_backprop(self.forward_lstm, xs[pk.fwd], cache["fwd"], d_z[pk.fwd, :units],
                               pk, _lstm_views(grads, "fwd"))
        if input_grad:
            d_xs[pk.fwd] = d_pre @ self.forward_lstm.w_x
        del d_pre
        d_pre = _lstm_backprop(self.backward_lstm, xs[pk.bwd], cache["bwd"], d_z[pk.bwd, units:],
                               pk, _lstm_views(grads, "bwd"))
        if input_grad:
            d_xs[pk.bwd] += d_pre @ self.backward_lstm.w_x
        return d_xs

    def forward(self, xs, masks=None):
        cache = super().forward(xs, masks)
        z = cache["batch"]["z"]
        cache.update(z=z, argmax=z.argmax(axis=0))  # ties resolve to the lowest position
        return cache


class RnnBaselineModel(SequenceModel):
    """Plain sigmoid RNN; the final hidden state feeds the MLP head."""

    kind = "rnn"

    def __init__(self, input_dim, units=64, hidden_size=30, depth=1, activation="sigmoid"):
        own = {"rnn.w_in": (units, input_dim), "rnn.w_rec": (units, units), "rnn.b": (units,)}
        t = self._lay_out(input_dim, own, units, hidden_size, depth, activation)
        self.w_in, self.w_rec, self.bias = t["rnn.w_in"], t["rnn.w_rec"], t["rnn.b"]

    def _draw_own(self, rng):
        _draw(rng, self.w_in, self.w_rec)

    @property
    def units(self) -> int:
        return self.bias.shape[0]

    def _encode(self, xs, pk, cache):
        packed = xs[pk.fwd]
        hs = packed @ self.w_in.T + self.bias  # each packed row becomes that step's state
        h = np.zeros((pk.steps[0], self.units))
        start = 0
        for n in pk.steps:
            rows = slice(start, start + n)
            hs[rows] = h = sigmoid(hs[rows] + h[:n] @ self.w_rec.T)
            start += n
        cache.update(packed=packed, hs=hs)
        return hs[pk.last]

    def _encode_backward(self, cache, d_s, grads, input_grad):
        pk, packed, hs = cache["pack"], cache["packed"], cache["hs"]
        d_in = np.zeros_like(hs)
        d_in[pk.last] = d_s
        d_pre = hs * (1.0 - hs)
        d_carry = np.zeros((pk.steps[0], self.units))
        stop = hs.shape[0]
        for n in reversed(pk.steps):
            rows = slice(stop - n, stop)
            d_pre[rows] *= d_in[rows] + d_carry[:n]
            d_carry[:n] = d_pre[rows] @ self.w_rec
            stop -= n
        np.matmul(d_pre.T, packed, out=grads["rnn.w_in"])
        np.matmul(d_pre[pk.steps[0]:].T, hs[pk.prev], out=grads["rnn.w_rec"])
        d_pre.sum(axis=0, out=grads["rnn.b"])
        if not input_grad:
            return None
        d_xs = np.empty_like(cache["xs"])
        d_xs[pk.fwd] = d_pre @ self.w_in
        return d_xs


class MlpBaselineModel(SequenceModel):
    """Fixed-length concatenation of token vectors fed straight to the head."""

    kind = "mlp"

    def __init__(self, input_dim, pad_len=20, hidden_size=30, depth=1, activation="sigmoid"):
        self.pad_len = pad_len
        self._lay_out(input_dim, {}, pad_len * input_dim, hidden_size, depth, activation)

    @property
    def token_dim(self) -> int:
        return self.input_dim

    def flatten(self, xs) -> np.ndarray:
        """Pad with zero vectors / truncate to pad_len, then concatenate."""
        xs = _as_sequence(xs)
        xs, pk = _as_batch(xs, [xs.shape[0]], self.input_dim)
        return self._encode(xs, pk, {})[0]

    def _kept(self, pk: Packing):
        """(sequence, position) of the token rows within pad_len, and the mask of those rows."""
        pos = pk.positions
        keep = pos < self.pad_len
        return np.repeat(np.arange(pk.lengths.size), pk.lengths)[keep], pos[keep], keep

    def _encode(self, xs, pk, cache):
        flat = np.zeros((pk.lengths.size, self.pad_len, self.input_dim))
        seq, pos, keep = self._kept(pk)
        flat[seq, pos] = xs[keep]
        return flat.reshape(pk.lengths.size, -1)

    def _encode_backward(self, cache, d_s, grads, input_grad):
        if not input_grad:
            return None
        pk = cache["pack"]
        d_xs = np.zeros_like(cache["xs"])
        seq, pos, keep = self._kept(pk)
        d_xs[keep] = d_s.reshape(pk.lengths.size, self.pad_len, self.input_dim)[seq, pos]
        return d_xs


MODEL_KINDS = {
    "bilstm": BiLstmModel,
    "mlp": MlpBaselineModel,
    "rnn": RnnBaselineModel,
}
