"""Optimizers over named parameter dictionaries.

Parameters and gradients are plain {name: float64 ndarray} dicts with a
stable insertion order.  An update returns fresh parameter arrays and never
mutates `params` or `grads`; the optimizer state object and its arrays are
updated in place.  The state arrays are C-contiguous and owned by the state
(momentum's first velocity is a copy of the gradient, not the gradient).

Updates run elementwise over flat views in blocks of BLOCK elements, with
one scratch array per block, so every operand of a block stays in cache
while the whole update runs on it.  The operations and their order are those
of the plain array expressions in the docstrings, so results are
bit-identical to them.  An array of at most one block is updated whole,
and its output is made by the update's first write, so a small array pays
for no block machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BLOCK = 1 << 15  # elements per block: an Adam block's six 256 KB operands stay in L2


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def _blocks(*arrays):
    """(out, blocks) for an update over equal-size arrays.

    Arrays of at most one block form one block, whole, with out None: the
    update's first write into the output slot makes the output.  Larger (and
    0-d) arrays form aligned BLOCK-element slices of their flat views, and
    of a fresh output out.  reshape(-1) of an array that is not C-contiguous
    is a copy: an input in any other layout is copied once, and the arrays
    written to (state and outputs, made C-contiguous) stay views.
    """
    if arrays[0].ndim and arrays[0].size <= BLOCK:
        return None, [(*arrays, None)]
    out = np.empty(arrays[0].shape)
    flats = [a.reshape(-1) for a in (*arrays, out)]
    return out, [[f[i:i + BLOCK] for f in flats] for i in range(0, out.size, BLOCK)]


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> dict:
    """One bias-corrected Adam update; zero gradients leave parameters unchanged.

    m = beta1 m + (1 - beta1) g,  v = beta2 v + (1 - beta2) (g g),
    p_new = p - lr (m / c1) / (sqrt(v / c2) + eps)  with c_i = 1 - beta_i^t.
    """
    state.step += 1
    t = state.step
    c1 = 1 - beta1 ** t
    c2 = 1 - beta2 ** t
    out = {}
    for name, p in params.items():
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros(p.shape), np.zeros(p.shape)
        new, blocks = _blocks(p, grads[name], state.m[name], state.v[name])
        for pb, g, m, v, nb in blocks:
            s = (1 - beta1) * g  # the block's one scratch array
            m *= beta1
            m += s
            np.multiply(g, g, s)
            s *= 1 - beta2
            v *= beta2
            v += s
            nb = np.divide(m, c1, nb)
            nb *= lr
            np.divide(v, c2, s)
            np.sqrt(s, s)
            s += eps
            nb /= s
            np.subtract(pb, nb, nb)
        out[name] = nb if new is None else new
    return out


@dataclass
class MomentumState:
    v: dict = field(default_factory=dict)


def momentum_step(params: dict, grads: dict, state: MomentumState, lr: float,
                  momentum: float = 0.9) -> dict:
    """Heavy-ball update: v <- momentum*v + g (v <- a copy of g at first), p <- p - lr*v."""
    out = {}
    for name, p in params.items():
        first = name not in state.v
        if first:
            state.v[name] = np.empty(p.shape)
        new, blocks = _blocks(p, grads[name], state.v[name])
        for pb, g, v, nb in blocks:
            if first:
                np.copyto(v, g)
            else:
                v *= momentum
                v += g
            nb = np.multiply(v, lr, nb)
            np.subtract(pb, nb, nb)
        out[name] = nb if new is None else new
    return out


def global_norm(grads: dict) -> float:
    """sqrt of the sum of squares of every gradient entry, by BLAS dot products."""
    total = 0.0
    for g in grads.values():
        flat = np.ravel(g, order="K")
        total += float(np.dot(flat, flat))
    return float(np.sqrt(total))


def clip_global_norm(grads: dict, max_norm: float) -> tuple[dict, float]:
    """Scale all gradients jointly so their global norm is at most max_norm."""
    norm = global_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return dict(grads), norm
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}, norm
