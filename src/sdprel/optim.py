"""Gradient-based parameter updates: Adam and Adadelta.

Parameters and gradients are dicts of name -> float64 ndarray; updates happen
in place.  Each trainable group is one array (a model is one vector, the
tuned word vectors are one matrix, an autoencoder is one vector), so a step
touches one to a few large tensors.
Both rules are element-wise and run over slices of at most BLOCK elements,
writing every intermediate into scratch buffers that one step allocates once,
so a step makes no per-block temporaries and the result is the same as one
whole-array update.

A gradient that is zero outside a few rows can come row-sparse: ``rows[name]``
is a sorted, unique array of row indices and ``grads[name]`` holds just those
rows, ``(len(rows[name]), *shape[1:])``.  The listed rows take the update on
gathered copies; every other row takes the same update on a zero-stride +0.0
gradient, which allocates nothing, so the result is the dense step's on the
scattered gradient by construction.  Callers own exclusivity (no concurrent
steps on one state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch

# 128 KiB of float64.  A block's parameters, gradient, two moments and scratch
# (640 KiB for Adam) stay in a core's L2 cache; 8,192 and 131,072 were slower.
BLOCK = 16384


def _check_shapes(params, grads, rows):
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise ShapeMismatch(f"parameter/gradient keys differ: {sorted(missing)}")
    if not set(rows) <= set(params):
        raise ShapeMismatch(f"rows given for no parameter: {sorted(set(rows) - set(params))}")
    for name, p in params.items():
        shape = p.shape
        if name in rows:
            _check_rows(name, rows[name], p)
            shape = (len(rows[name]), *p.shape[1:])
        if grads[name].shape != shape:
            raise ShapeMismatch(
                f"{name}: parameter shape {p.shape} vs gradient shape {grads[name].shape}"
                + (f" for {len(rows[name])} rows" if name in rows else "")
            )
        if not p.flags.c_contiguous:
            raise ShapeMismatch(f"{name}: parameter is not contiguous, so it has no flat view")


def _check_rows(name, listed, p) -> None:
    if not (isinstance(listed, np.ndarray) and listed.ndim == 1
            and np.issubdtype(listed.dtype, np.integer) and p.ndim >= 1):
        raise ShapeMismatch(f"{name}: rows must be a 1-d integer array over a parameter's rows")
    if np.any(listed[1:] <= listed[:-1]):
        raise ShapeMismatch(f"{name}: rows are not sorted and unique")
    if listed.size and not (0 <= listed[0] and listed[-1] < len(p)):
        raise ShapeMismatch(f"{name}: rows outside 0..{len(p) - 1}")


def _blocks(fn, arrays, buffers) -> None:
    """fn(*slices, *buffers) on each BLOCK-element slice of the arrays, through flat views."""
    flat = [a.reshape(-1) for a in arrays]
    for start in range(0, flat[0].size, BLOCK):
        blocks = [a[start : start + BLOCK] for a in flat]
        fn(*blocks, *buffers[:, : blocks[0].size])


def _step_blocks(params, grads, rows, slots, update, scratch: int) -> None:
    """update(p, g, *state, *buffers) on every tensor, or, for a name in ``rows``,
    on gathered copies of its listed rows and at g = +0.0 on the whole tensor
    before the copies are written back; ``slots`` are the per-name state dicts, a
    missing entry starts at zeros, and ``scratch`` buffers as long as a slice are
    the rule's to overwrite."""
    rows = rows or {}
    _check_shapes(params, grads, rows)
    largest = max((p.size for p in params.values()), default=0)
    buffers = np.empty((scratch, min(BLOCK, largest)))
    for name, p in params.items():
        for s in slots:
            if name not in s:
                s[name] = np.zeros_like(p)
        tensors = [p, *(s[name] for s in slots)]
        if name not in rows:
            _blocks(update, [p, grads[name], *tensors[1:]], buffers)
            continue
        listed = rows[name]
        gathered = [t[listed] for t in tensors]
        _blocks(update, [p, np.broadcast_to(0.0, (p.size,)), *tensors[1:]], buffers)
        _blocks(update, [gathered[0], grads[name], *gathered[1:]], buffers)
        for t, g in zip(tensors, gathered):
            t[listed] = g


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict, rows: dict | None = None) -> None:
    """One Adam update with bias correction, in the folded form of Kingma & Ba
    (2015, section 2): with a = lr sqrt(1 - beta2^t) / (1 - beta1^t) and
    eps_t = eps sqrt(1 - beta2^t), p -= a (m / (sqrt(v) + eps_t)).  m and v are
    the usual moments; p differs from the m_hat/v_hat form only by rounding.
    ``rows`` makes a gradient row-sparse (see the module docstring)."""
    t = state.step + 1
    root = math.sqrt(1.0 - state.beta2**t)
    step_size = state.lr * root / (1.0 - state.beta1**t)
    eps_t = state.eps * root

    def update(p, g, m, v, a):
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=a)
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=a)
        v += np.multiply(a, g, out=a)
        np.sqrt(v, out=a)
        a += eps_t
        np.divide(m, a, out=a)
        p -= np.multiply(a, step_size, out=a)

    _step_blocks(params, grads, rows, (state.m, state.v), update, scratch=1)
    state.step = t


@dataclass
class AdadeltaState:
    rho: float = 0.95
    eps: float = 1e-6
    avg_sq_grad: dict = field(default_factory=dict)
    avg_sq_delta: dict = field(default_factory=dict)


def adadelta_step(state: AdadeltaState, params: dict, grads: dict,
                  rows: dict | None = None) -> None:
    """One Adadelta update (running RMS of gradients and of updates).
    ``rows`` makes a gradient row-sparse (see the module docstring)."""

    def update(p, g, eg2, ed2, delta, b):
        # delta = -sqrt(ed2 + eps) / sqrt(eg2 + eps) * g, one element operation at a time
        eg2 *= state.rho
        np.multiply(g, 1.0 - state.rho, out=b)
        eg2 += np.multiply(b, g, out=b)
        np.add(ed2, state.eps, out=delta)
        np.sqrt(delta, out=delta)
        np.negative(delta, out=delta)
        np.add(eg2, state.eps, out=b)
        delta /= np.sqrt(b, out=b)
        delta *= g
        ed2 *= state.rho
        np.multiply(delta, 1.0 - state.rho, out=b)
        ed2 += np.multiply(b, delta, out=b)
        p += delta

    _step_blocks(params, grads, rows, (state.avg_sq_grad, state.avg_sq_delta), update, scratch=2)
