"""Shared test utilities: the primitive grad-check catalog and small oracles."""

import zlib

import numpy as np

from masslearn import autodiff as ad


def _weighted_sum(t, node, rng):
    """Reduce any node to a scalar through a fixed random weighting."""
    w = t.constant(rng.normal(size=node.value.shape))
    if node.value.shape == ():
        return ad.mul(node, w)
    return ad.sum_all(ad.mul(node, w))


def primitive_gradcheck_catalog():
    """One entry per diffcore primitive: (name, make_points(rng), builder).

    builder(tape, rng, *leaves) must return a scalar node.  Points avoid
    kinks (elu at 0) and singular domains (log near 0) so central
    differences are trustworthy.
    """

    def away_from_kink(rng, shape):
        x = rng.normal(size=shape)
        return x + np.sign(x) * 0.1 + np.where(x == 0, 0.2, 0.0)

    def positive(rng, shape):
        return 0.5 + np.abs(rng.normal(size=shape))

    idx = np.array([0, 2, 1, 1])

    catalog = [
        ("add_same", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
         lambda t, rng, a, b: _weighted_sum(t, ad.add(a, b), rng)),
        ("add_scalar", lambda rng: [rng.normal(size=()), rng.normal(size=(3, 4))],
         lambda t, rng, a, b: _weighted_sum(t, ad.add(a, b), rng)),
        ("add_bias", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(4,))],
         lambda t, rng, a, b: _weighted_sum(t, ad.add(a, b), rng)),
        ("sub_same", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
         lambda t, rng, a, b: _weighted_sum(t, ad.sub(a, b), rng)),
        ("sub_scalar", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=())],
         lambda t, rng, a, b: _weighted_sum(t, ad.sub(a, b), rng)),
        ("sub_bias", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(4,))],
         lambda t, rng, a, b: _weighted_sum(t, ad.sub(a, b), rng)),
        ("mul_same", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
         lambda t, rng, a, b: _weighted_sum(t, ad.mul(a, b), rng)),
        ("mul_scalar", lambda rng: [rng.normal(size=()), rng.normal(size=(3, 4))],
         lambda t, rng, a, b: _weighted_sum(t, ad.mul(a, b), rng)),
        ("div_same", lambda rng: [rng.normal(size=(3, 4)), positive(rng, (3, 4))],
         lambda t, rng, a, b: _weighted_sum(t, ad.div(a, b), rng)),
        ("div_scalar", lambda rng: [rng.normal(size=(3, 4)), positive(rng, ())],
         lambda t, rng, a, b: _weighted_sum(t, ad.div(a, b), rng)),
        ("neg", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.neg(a), rng)),
        ("exp", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.exp(a), rng)),
        ("log", lambda rng: [positive(rng, (3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.log(a), rng)),
        ("sigmoid", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.sigmoid(a), rng)),
        ("softplus", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.softplus(a), rng)),
        ("elu", lambda rng: [away_from_kink(rng, (3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.elu(a), rng)),
        ("elu_grad", lambda rng: [away_from_kink(rng, (3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.elu_grad(a), rng)),
        ("matmul", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
         lambda t, rng, a, b: _weighted_sum(t, ad.matmul(a, b), rng)),
        ("linear", lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), rng.normal(size=(2,))],
         lambda t, rng, x, w, b: _weighted_sum(t, ad.linear(x, w, b), rng)),
        ("dot", lambda rng: [rng.normal(size=(5,)), rng.normal(size=(5,))],
         lambda t, rng, a, b: ad.dot(a, b)),
        ("reshape", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.reshape(a, (2, 6)), rng)),
        ("first_order", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(
             t, ad.first_order((a,), np.sin(a.value), lambda g: (g * np.cos(a.value),), "sin"), rng)),
        ("sum_all", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: ad.sum_all(a)),
        ("sum_axis0", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.sum_axis(a, 0), rng)),
        ("sum_axis1", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.sum_axis(a, 1), rng)),
        ("tile_rows", lambda rng: [rng.normal(size=(4,))],
         lambda t, rng, a: _weighted_sum(t, ad.tile_rows(a, 3), rng)),
        ("take_per_row", lambda rng: [rng.normal(size=(4, 3))],
         lambda t, rng, a: _weighted_sum(t, ad.take_per_row(a, idx), rng)),
        ("logsumexp_rows", lambda rng: [rng.normal(size=(3, 4))],
         lambda t, rng, a: _weighted_sum(t, ad.logsumexp_rows(a), rng)),
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
