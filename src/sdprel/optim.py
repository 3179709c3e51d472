"""Gradient-based parameter updates: Adam and Adadelta.

Parameters and gradients are dicts of name -> float64 ndarray; updates happen
in place.  Each trainable group is one array (a model is one vector, the
tuned word vectors are one matrix, an autoencoder is one vector), so a step
touches one to a few large tensors.
Both rules are element-wise and run over slices of at most BLOCK elements, so
a large tensor adds only block-sized temporaries and the result is the same
as one whole-array update.  Callers own exclusivity (no concurrent steps on
one state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch

BLOCK = 8192  # 64 KiB of float64: temporaries stay small and below malloc's mmap threshold


def _check_shapes(params, grads):
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise ShapeMismatch(f"parameter/gradient keys differ: {sorted(missing)}")
    for name, p in params.items():
        if grads[name].shape != p.shape:
            raise ShapeMismatch(
                f"{name}: parameter shape {p.shape} vs gradient shape {grads[name].shape}"
            )
        if not p.flags.c_contiguous:
            raise ShapeMismatch(f"{name}: parameter is not contiguous, so it has no flat view")


def _step_blocks(params, grads, slots, update) -> None:
    """update(p, g, *state) on each BLOCK-element slice of every tensor, through flat
    views; ``slots`` are the per-name state dicts, a missing entry starts at zeros."""
    _check_shapes(params, grads)
    for name, p in params.items():
        flat = [a.reshape(-1) for a in (p, grads[name])]
        for s in slots:
            if name not in s:
                s[name] = np.zeros_like(p)
        flat += [s[name].reshape(-1) for s in slots]
        for start in range(0, p.size, BLOCK):
            update(*(a[start : start + BLOCK] for a in flat))


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict) -> None:
    """One Adam update with bias correction."""
    t = state.step + 1

    def update(p, g, m, v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)

    _step_blocks(params, grads, (state.m, state.v), update)
    state.step = t


@dataclass
class AdadeltaState:
    rho: float = 0.95
    eps: float = 1e-6
    avg_sq_grad: dict = field(default_factory=dict)
    avg_sq_delta: dict = field(default_factory=dict)


def adadelta_step(state: AdadeltaState, params: dict, grads: dict) -> None:
    """One Adadelta update (running RMS of gradients and of updates)."""

    def update(p, g, eg2, ed2):
        eg2 *= state.rho
        eg2 += (1.0 - state.rho) * g * g
        delta = -np.sqrt(ed2 + state.eps) / np.sqrt(eg2 + state.eps) * g
        ed2 *= state.rho
        ed2 += (1.0 - state.rho) * delta * delta
        p += delta

    _step_blocks(params, grads, (state.avg_sq_grad, state.avg_sq_delta), update)
