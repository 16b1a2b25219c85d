"""Shared test utilities: the primitive grad-check catalog and small oracles."""

import math
import zlib

import numpy as np
import scipy.linalg

from masslearn import autodiff as ad
from masslearn import network as net


# (key, value, the rule it breaks) of training values that TrainConfig.validate rejects
OUT_OF_RANGE = [("clip_norm", -1.0, "positive"), ("clip_norm", 0.0, "positive"),
                ("lr", -0.005, "positive"), ("lr", 0.0, "positive"),
                ("variational_lr", -1.0, "positive"), ("jitter", -1.0, "nonnegative"),
                ("beta", -1e-3, "nonnegative"), ("beta", math.nan, "finite"),
                ("lr", math.nan, "finite"), ("clip_norm", math.nan, "finite"),
                ("variational_lr", math.inf, "finite"), ("jitter", math.nan, "finite"),
                ("mean_scale", -math.inf, "finite")]


def _weighted_sum(t, node, rng):
    """Reduce any node to a scalar through a fixed random weighting."""
    w = t.constant(rng.normal(size=node.value.shape))
    if node.value.shape == ():
        return ad.mul(node, w)
    return ad.sum_all(ad.mul(node, w))


def _network_points(rng):
    """An input batch and the parameters of a batchnorm network, in param_arrays order."""
    x = rng.normal(size=(5, 3))
    w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(4,))
    w1, b1 = rng.normal(size=(2, 4)), rng.normal(size=(2,))
    return [x, w0, b0, w1, b1, 0.5 + np.abs(rng.normal(size=(4,))), rng.normal(size=(4,))]


def _network_nodes(t, leaves, scales=None):
    """forward_nodes in train mode with dropout: hidden-block, batch-statistic and
    (when `scales` is a list) block-scale nodes."""
    cfg = net.MlpConfig(3, (4,), 2, dropout_rate=0.3, use_batchnorm=True)
    params = net.mlp_init(cfg, seed=0)
    pnodes = dict(zip(net.param_arrays(params), leaves[1:]))
    mask = net.DropoutMask([np.array([2.0, 0.0, 2.0, 2.0])])
    out, _ = net.forward_nodes(t, pnodes, params, leaves[0], mode="train", dropout_mask=mask,
                               scales=scales)
    return out


def _scale_sum(t, rng, *leaves):
    scales = []
    _network_nodes(t, leaves, scales)
    return _weighted_sum(t, scales[0], rng)


def primitive_gradcheck_catalog():
    """One entry per node-making function: (name, make_points(rng), builder).

    The name is the function's name in masslearn.autodiff, or
    "network.<function>" for the node kinds network builds, optionally
    followed by ":<case>".  builder(tape, rng, *leaves) must return a scalar
    node.
    """
    idx = np.array([0, 2, 1, 1])

    catalog = [
        ("add", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
         lambda t, rng, a, b: _weighted_sum(t, ad.add(a, b), rng)),
        ("add:bias", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(4,))],
         lambda t, rng, a, b: _weighted_sum(t, ad.add(a, b), rng)),
        ("sub", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
         lambda t, rng, a, b: _weighted_sum(t, ad.sub(a, b), rng)),
        ("mul", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
         lambda t, rng, a, b: _weighted_sum(t, ad.mul(a, b), rng)),
        ("neg", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.neg(a), rng)),
        ("matmul", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
         lambda t, rng, a, b: _weighted_sum(t, ad.matmul(a, b), rng)),
        ("linear", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), rng.normal(size=(2,))],
         lambda t, rng, x, w, b: _weighted_sum(t, ad.linear(x, w, b), rng)),
        ("dot", lambda rng: [rng.normal(size=(5,)), rng.normal(size=(5,))],
         lambda t, rng, a, b: ad.dot(a, b)),
        ("first_order", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(
             t, ad.first_order((a,), np.sin(a.value), lambda g: (g * np.cos(a.value),), "sin"), rng)),
        ("sum_all", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: ad.sum_all(a)),
        ("mean_all", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: ad.mean_all(ad.mul(a, a))),
        ("take_per_row", lambda rng: [rng.normal(size=(4, 3))],
         lambda t, rng, a: _weighted_sum(t, ad.take_per_row(a, idx), rng)),
        ("logsumexp_rows", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.logsumexp_rows(a), rng)),
        ("network.forward_nodes:block", _network_points,
         lambda t, rng, *leaves: _weighted_sum(t, _network_nodes(t, leaves), rng)),
        ("network.forward_nodes:scale", _network_points, _scale_sum),
    ]
    return catalog


def run_primitive_gradchecks(n_points: int, seed: int = 0):
    """Run grad_check on every catalog entry; returns {name: worst rel error}."""
    worst = {}
    for name, make_points, builder in primitive_gradcheck_catalog():
        errs = []
        for trial in range(n_points):
            rng = np.random.default_rng(seed * 10_000 + zlib.crc32(name.encode()) % 1000 + trial)
            points = make_points(rng)
            wrap = lambda t, *leaves: builder(t, np.random.default_rng(123), *leaves)
            report = ad.grad_check(wrap, points)
            errs.append(report.max_rel_error)
        worst[name] = max(errs)
    return worst


def solve_volume_vjp(weights, scales, lefts, jac, chol, g):
    """network._volume_vjp as it was with two batched triangular solves for
    G = g (D D^T + jI)^-1 D; the reference that the inverse-factor route must
    match."""
    n, r = jac.shape[:2]
    y = scipy.linalg.solve_triangular(chol, jac, lower=True, check_finite=False)
    resid = scipy.linalg.solve_triangular(chol, y, trans="T", lower=True, check_finite=False)
    resid *= g[:, None, None]
    d_weights, d_scales = [], []
    for w, s, x in zip(weights, scales, lefts):
        d_weights.append((x * s[:, None, :]).reshape(n * r, -1).T @ resid.reshape(n * r, -1))
        back = net._rows_matmul(resid, w.T)
        d_scales.append((x * back).sum(axis=1))
        resid = back * s[:, None, :]
    d_weights.append(resid.sum(axis=0))
    return (*d_weights, *d_scales)
