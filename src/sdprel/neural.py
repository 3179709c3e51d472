"""Numerical kernels: LSTM, BiLSTM encoder, pooling, MLP head, backprop.

Everything is explicit float64 numpy with hand-written reverse-mode
gradients; no autodiff framework.  Three sequence classifiers share one MLP
head: the BiLSTM-with-max-pooling model, a concatenation MLP baseline, and a
final-hidden-state simple RNN baseline.

Each LSTM direction keeps one fused (4H x .) matrix per weight kind, gate
rows in GATES order (Appleyard et al. 2016), so a sequence's input
projection and its weight gradients are one matmul each.
"""

from __future__ import annotations

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
    e = np.exp(logits - np.max(logits))
    return e / e.sum()


ACTIVATIONS = {
    "sigmoid": (sigmoid, lambda y: y * (1.0 - y)),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "relu": (lambda x: np.maximum(0.0, x), lambda y: (y > 0).astype(np.float64)),
}


def cross_entropy(prob_pos: float, label: int) -> float:
    """Binary cross entropy of the positive-class probability."""
    a = min(max(float(prob_pos), PROB_CLAMP), 1.0 - PROB_CLAMP)
    if label not in (0, 1):
        raise DimensionMismatch(f"label must be 0 or 1, got {label}")
    return -(label * np.log(a) + (1 - label) * np.log(1.0 - a))


def dropout_mask(dim: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise BadRate(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(dim, dtype=np.float64)
    keep = rng.random(dim) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


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

    def named(self, prefix: str) -> dict[str, np.ndarray]:
        """The three arrays under their tensor names."""
        return {f"{prefix}.w_in": self.w_x, f"{prefix}.w_rec": self.w_h, f"{prefix}.b": self.b}


def _gate_rows(fused: np.ndarray) -> dict[str, np.ndarray]:
    return dict(zip(GATES, np.split(fused, len(GATES))))


def init_lstm_params(rng: np.random.Generator, units: int, input_dim: int) -> LstmParams:
    # per-gate Glorot blocks, drawn in GATES order
    w_x = np.concatenate([glorot(rng, units, input_dim) for _ in GATES])
    w_h = np.concatenate([glorot(rng, units, units) for _ in GATES])
    b = np.zeros(len(GATES) * units)
    # forget-gate bias starts at 1 so early steps keep their cell state
    _gate_rows(b)["f"][...] = 1.0
    return LstmParams(w_x=w_x, w_h=w_h, b=b)


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
    h, c = _activate(acts, c_prev)
    return h, c, _gate_rows(acts)


def _activate(acts, c_prev):
    """Turn fused pre-activations into gate activations in place; returns (h, c)."""
    units = c_prev.shape[0]
    acts[: 3 * units] = sigmoid(acts[: 3 * units])
    np.tanh(acts[3 * units :], out=acts[3 * units :])
    i, f, o, u = acts.reshape(len(GATES), units)
    c = i * u + f * c_prev
    return o * np.tanh(c), c


def _lstm_run(p: LstmParams, xs: np.ndarray):
    """Run over xs in row order; returns (states, gate activations, cells) per step."""
    if xs.shape[1] != p.input_dim:
        raise DimensionMismatch(f"input dim {xs.shape[1]}, expected {p.input_dim}")
    n, units = xs.shape[0], p.units
    acts = xs @ p.w_x.T + p.b
    states = np.empty((n, units))
    cells = np.empty((n, units))
    h = c = np.zeros(units)
    for t in range(n):
        if not np.all(np.isfinite(h)):
            raise NonFiniteInput("lstm_cell received non-finite input")
        acts[t] += p.w_h @ h
        h, c = _activate(acts[t], c)
        states[t], cells[t] = h, c
    return states, acts, cells


def _lstm_backprop(p: LstmParams, xs, run, d_states):
    """Reverse-mode through `_lstm_run(p, xs)`.

    d_states is the (n x units) gradient arriving at each step's hidden
    state.  Returns (gradients as an LstmParams, d_xs).
    """
    states, acts, cells = run
    n, units = states.shape
    i, f, o, u = acts.reshape(n, len(GATES), units).transpose(1, 0, 2)
    tanh_c = np.tanh(cells)
    # d_pre[t] is scale[t] times dc for the i, f and u rows, times dh for o
    scale = np.stack(
        [u * i * (1 - i), _shifted(cells) * f * (1 - f), tanh_c * o * (1 - o), i * (1 - u * u)],
        axis=1,
    )
    dc_dh = o * (1.0 - tanh_c * tanh_c)
    d_pre = np.empty_like(scale)
    dh_carry = dc_carry = np.zeros(units)
    for t in range(n - 1, -1, -1):
        dh = d_states[t] + dh_carry
        dc = dc_carry + dh * dc_dh[t]
        np.multiply(scale[t], dc, out=d_pre[t])
        d_pre[t, 2] = scale[t, 2] * dh
        dc_carry = dc * f[t]
        dh_carry = p.w_h.T @ d_pre[t].ravel()
    d_pre = d_pre.reshape(n, -1)
    grads = LstmParams(w_x=d_pre.T @ xs, w_h=d_pre.T @ _shifted(states), b=d_pre.sum(axis=0))
    return grads, d_pre @ p.w_x


def _shifted(rows: np.ndarray) -> np.ndarray:
    """Row t holds row t-1 of `rows`; row 0 is zeros (the initial state)."""
    return np.vstack([np.zeros_like(rows[:1]), rows[:-1]])


# ---------------------------------------------------------------------------
# MLP head (shared by all three models)


@dataclass
class MlpHead:
    """Hidden stack then a linear label layer feeding softmax."""

    hidden: list[tuple[np.ndarray, np.ndarray]]  # [(W: H x in, b: H), ...]
    w_out: np.ndarray  # LABEL_COUNT x H
    activation: str = "sigmoid"


def init_mlp_head(
    rng: np.random.Generator, input_dim: int, hidden_size: int, depth: int, activation: str
) -> MlpHead:
    if activation not in ACTIVATIONS:
        raise DimensionMismatch(f"unknown activation {activation!r}")
    hidden = []
    fan_in = input_dim
    for _ in range(depth):
        hidden.append((glorot(rng, hidden_size, fan_in), np.zeros(hidden_size)))
        fan_in = hidden_size
    return MlpHead(hidden=hidden, w_out=glorot(rng, LABEL_COUNT, fan_in), activation=activation)


def _head_forward(head: MlpHead, s: np.ndarray, masks):
    """Head pass; masks is None or the {"s", "m"} dropout masks."""
    act, _ = ACTIVATIONS[head.activation]
    mask_s, mask_m = (masks["s"], masks["m"]) if masks else (None, None)
    s_drop = s if mask_s is None else s * mask_s
    layer_inputs = []
    hidden_acts = []
    x = s_drop
    for w, b in head.hidden:
        layer_inputs.append(x)
        x = act(w @ x + b)
        hidden_acts.append(x)
    m = x
    m_drop = m if mask_m is None else m * mask_m
    logits = head.w_out @ m_drop
    probs = softmax(logits)
    return {
        "s": s,
        "s_drop": s_drop,
        "layer_inputs": layer_inputs,
        "hidden_acts": hidden_acts,
        "m": m,
        "m_drop": m_drop,
        "logits": logits,
        "probs": probs,
        "mask_s": mask_s,
        "mask_m": mask_m,
    }


def _head_backward(head: MlpHead, cache, label: int):
    """Returns (gradients as an MlpHead, dS w.r.t. the pooled input)."""
    _, act_deriv = ACTIVATIONS[head.activation]
    probs = cache["probs"]
    d_logits = probs.copy()
    d_logits[label] -= 1.0
    g_w_out = np.outer(d_logits, cache["m_drop"])
    d_m = head.w_out.T @ d_logits
    if cache["mask_m"] is not None:
        d_m = d_m * cache["mask_m"]
    g_hidden = []
    for idx in range(len(head.hidden) - 1, -1, -1):
        w, _ = head.hidden[idx]
        out = cache["hidden_acts"][idx]
        d_pre = d_m * act_deriv(out)
        g_w = np.outer(d_pre, cache["layer_inputs"][idx])
        g_b = d_pre
        g_hidden.append((g_w, g_b))
        d_m = w.T @ d_pre
    g_hidden.reverse()
    d_s = d_m
    if cache["mask_s"] is not None:
        d_s = d_s * cache["mask_s"]
    return MlpHead(hidden=g_hidden, w_out=g_w_out, activation=head.activation), d_s


# ---------------------------------------------------------------------------
# Spec-level operations


def max_pool(states) -> np.ndarray:
    """Coordinate-wise maximum over the position axis."""
    arr = np.asarray(states, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise EmptySequence("max_pool needs a non-empty list of state vectors")
    return arr.max(axis=0)


def bilstm_forward(model: "BiLstmModel", seq) -> list[np.ndarray]:
    """Aligned [forward ; backward] hidden states for each position."""
    return list(model.forward(seq)["z"])


def mlp_head(model, s):
    """(hidden output M, logits T, probabilities) for a pooled vector S."""
    cache = _head_forward(model.head, np.asarray(s, dtype=np.float64), None)
    return cache["m"], cache["logits"], cache["probs"]


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
    if not np.all(np.isfinite(xs)):
        raise NonFiniteInput("sequence contains non-finite values")
    return xs


# ---------------------------------------------------------------------------
# Models


class BiLstmModel:
    """BiLSTM over the SDP sequence, max-pooled, classified by the MLP head."""

    kind = "bilstm"

    def __init__(self, forward_lstm: LstmParams, backward_lstm: LstmParams, head: MlpHead):
        self.forward_lstm = forward_lstm
        self.backward_lstm = backward_lstm
        self.head = head

    @classmethod
    def init(cls, rng, input_dim, units=64, hidden_size=30, depth=1, activation="sigmoid"):
        return cls(
            forward_lstm=init_lstm_params(rng, units, input_dim),
            backward_lstm=init_lstm_params(rng, units, input_dim),
            head=init_mlp_head(rng, 2 * units, hidden_size, depth, activation),
        )

    @property
    def units(self) -> int:
        return self.forward_lstm.units

    @property
    def input_dim(self) -> int:
        return self.forward_lstm.input_dim

    def forward(self, xs, masks=None):
        xs = _as_sequence(xs)
        fwd = _lstm_run(self.forward_lstm, xs)
        bwd = _lstm_run(self.backward_lstm, xs[::-1])  # its rows are in reverse order
        z = np.concatenate([fwd[0], bwd[0][::-1]], axis=1)
        pooled = z.max(axis=0)
        argmax = z.argmax(axis=0)  # ties resolve to the lowest position
        cache = _head_forward(self.head, pooled, masks)
        cache.update(xs=xs, fwd=fwd, bwd=bwd, z=z, argmax=argmax)
        return cache

    def backward(self, cache, label):
        head_grads, d_s = _head_backward(self.head, cache, label)
        xs = cache["xs"]
        units = self.units
        d_z = np.zeros((xs.shape[0], 2 * units))
        d_z[cache["argmax"], np.arange(2 * units)] = d_s
        fwd_grads, d_xs_f = _lstm_backprop(self.forward_lstm, xs, cache["fwd"], d_z[:, :units])
        bwd_grads, d_xs_b = _lstm_backprop(
            self.backward_lstm, xs[::-1], cache["bwd"], d_z[::-1, units:]
        )
        grads = BiLstmModel(fwd_grads, bwd_grads, head_grads).tensors()
        grads["__inputs__"] = d_xs_f + d_xs_b[::-1]
        return grads

    def tensors(self) -> dict[str, np.ndarray]:
        """Parameters by name; on a model built from gradients, the gradients."""
        out = {**self.forward_lstm.named("fwd"), **self.backward_lstm.named("bwd")}
        return {**out, **_head_tensors(self.head)}


class RnnBaselineModel:
    """Plain sigmoid RNN; the final hidden state feeds the MLP head."""

    kind = "rnn"

    def __init__(self, w_in, w_rec, bias, head: MlpHead):
        self.w_in = w_in
        self.w_rec = w_rec
        self.bias = bias
        self.head = head

    @classmethod
    def init(cls, rng, input_dim, units=64, hidden_size=30, depth=1, activation="sigmoid"):
        return cls(
            w_in=glorot(rng, units, input_dim),
            w_rec=glorot(rng, units, units),
            bias=np.zeros(units),
            head=init_mlp_head(rng, units, hidden_size, depth, activation),
        )

    @property
    def units(self) -> int:
        return self.bias.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_in.shape[1]

    def forward(self, xs, masks=None):
        xs = _as_sequence(xs)
        hs = xs @ self.w_in.T + self.bias  # each row becomes that step's state
        h = np.zeros(self.units)
        for t in range(xs.shape[0]):
            hs[t] = h = sigmoid(hs[t] + self.w_rec @ h)
        cache = _head_forward(self.head, hs[-1], masks)
        cache.update(xs=xs, hs=hs)
        return cache

    def backward(self, cache, label):
        head_grads, d_h = _head_backward(self.head, cache, label)
        xs, hs = cache["xs"], cache["hs"]
        d_pre = hs * (1.0 - hs)
        for t in range(xs.shape[0] - 1, -1, -1):
            d_pre[t] *= d_h
            d_h = self.w_rec.T @ d_pre[t]
        grads = RnnBaselineModel(
            d_pre.T @ xs, d_pre.T @ _shifted(hs), d_pre.sum(axis=0), head_grads
        ).tensors()
        grads["__inputs__"] = d_pre @ self.w_in
        return grads

    def tensors(self):
        out = {"rnn.w_in": self.w_in, "rnn.w_rec": self.w_rec, "rnn.b": self.bias}
        return {**out, **_head_tensors(self.head)}


class MlpBaselineModel:
    """Fixed-length concatenation of token vectors fed straight to the head."""

    kind = "mlp"

    def __init__(self, pad_len: int, token_dim: int, head: MlpHead):
        self.pad_len = pad_len
        self.token_dim = token_dim
        self.head = head

    @classmethod
    def init(cls, rng, input_dim, pad_len=20, hidden_size=30, depth=1, activation="sigmoid"):
        head = init_mlp_head(rng, pad_len * input_dim, hidden_size, depth, activation)
        return cls(pad_len=pad_len, token_dim=input_dim, head=head)

    @property
    def input_dim(self) -> int:
        return self.token_dim

    def flatten(self, xs) -> np.ndarray:
        """Pad with zero vectors / truncate to pad_len, then concatenate."""
        xs = _as_sequence(xs)
        if xs.shape[1] != self.token_dim:
            raise DimensionMismatch(
                f"token dim {xs.shape[1]}, model expects {self.token_dim}"
            )
        flat = np.zeros(self.pad_len * self.token_dim)
        n = min(xs.shape[0], self.pad_len)
        flat[: n * self.token_dim] = xs[:n].ravel()
        return flat

    def forward(self, xs, masks=None):
        xs = _as_sequence(xs)
        cache = _head_forward(self.head, self.flatten(xs), masks)
        cache.update(xs=xs)
        return cache

    def backward(self, cache, label):
        head_grads, d_flat = _head_backward(self.head, cache, label)
        grads = _head_tensors(head_grads)
        xs = cache["xs"]
        d_xs = np.zeros_like(xs)
        n = min(xs.shape[0], self.pad_len)
        d_xs[:n] = d_flat[: n * self.token_dim].reshape(n, self.token_dim)
        grads["__inputs__"] = d_xs
        return grads

    def tensors(self):
        return _head_tensors(self.head)


def _head_tensors(head: MlpHead) -> dict[str, np.ndarray]:
    """Head arrays under their tensor names; also names a head's gradients."""
    out = {}
    for idx, (w, b) in enumerate(head.hidden):
        out[f"head.w{idx}"] = w
        out[f"head.b{idx}"] = b
    out["head.w_out"] = head.w_out
    return out


MODEL_KINDS = {
    "bilstm": BiLstmModel,
    "mlp": MlpBaselineModel,
    "rnn": RnnBaselineModel,
}
