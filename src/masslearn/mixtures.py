"""Class-conditional Gaussian mixture density head.

Each class y gets its own mixture of full-covariance Gaussians

    q(z | y) = sum_k w_{y,k} N(z; mu_{y,k}, L_{y,k} L_{y,k}^T)

where L is lower-triangular with a softplus-transformed diagonal so the
covariance stays positive definite for any unconstrained parameter matrix.
Class priors p(y) are empirical frequencies, never trained by gradient.
Classification goes through Bayes rule on log densities:

    q(y | z) = q(z | y) p(y) / sum_c q(z | c) p(c)

The log density q(z | y) is one numpy function over the three parameter
tensors a checkpoint stores.  Scoring calls it; `mass` training wraps it as
one tape node with a closed-form gradient, so both paths agree bit-for-bit.
Each call inverts all C K Cholesky factors at once by forward substitution;
whitening the points for one class is then a single GEMM against that
class's stacked inverses, in the density and in its gradient alike.

The gradient is written once, per class (`_class_vjp`).  The tape node runs
it for every class on all N points, since the marginal needs the whole
(N, C) matrix.  `mle_fit` maximises sum_i log q(z_i | y_i), in which class
c's parameters only meet the rows labelled c, so it runs it for each class
on that class's own rows, in plain numpy with no tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import optim
from . import rng as rngmod

LOG_2PI = float(np.log(2.0 * np.pi))
# softplus(x) = 1 at x = log(e - 1); used to initialize unit covariances.
INV_SOFTPLUS_ONE = float(np.log(np.e - 1.0))


@dataclass
class ClassConditionalMixture:
    n_classes: int
    n_components: int
    dim: int
    means: np.ndarray          # (C, K, r)
    chol_raw: np.ndarray       # (C, K, r, r), unconstrained
    weight_logits: np.ndarray  # (C, K)
    class_priors: np.ndarray   # (C,)


def mixture_init(n_classes: int, n_components: int, dim: int, seed: int,
                 mean_scale: float = 1.0) -> ClassConditionalMixture:
    """Seeded init: scattered means, identity covariances, equal weights and priors."""
    if n_classes < 1 or n_components < 1 or dim < 1:
        raise ValueError("mixture_init: n_classes, n_components and dim must be positive")
    gen = rngmod.stream(seed, rngmod.MIXTURE_INIT)
    means = gen.normal(size=(n_classes, n_components, dim)) * mean_scale
    chol_raw = np.zeros((n_classes, n_components, dim, dim))
    idx = np.arange(dim)
    chol_raw[:, :, idx, idx] = INV_SOFTPLUS_ONE
    return ClassConditionalMixture(
        n_classes=n_classes,
        n_components=n_components,
        dim=dim,
        means=means,
        chol_raw=chol_raw,
        weight_logits=np.zeros((n_classes, n_components)),
        class_priors=np.full(n_classes, 1.0 / n_classes),
    )


def chol_factor(raw: np.ndarray) -> np.ndarray:
    """Lower-triangular factor: strict lower part as-is, softplus on the diagonal."""
    l_fac = np.tril(raw, -1)
    idx = np.arange(raw.shape[-1])
    l_fac[..., idx, idx] = np.logaddexp(0.0, raw[..., idx, idx])
    return l_fac


def _as_points(z, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {z.shape}")
    return z


def _logsumexp_rows(m: np.ndarray) -> np.ndarray:
    shift = m.max(axis=1)
    return np.log(np.exp(m - shift[:, None]).sum(axis=1)) + shift


def tri_inverse(l_fac: np.ndarray) -> np.ndarray:
    """Inverses of lower-triangular factors (..., r, r), by forward substitution
    against the identity, one row at a time over every factor at once.  Raises
    LinAlgError on an exactly zero diagonal entry, as a triangular solve does."""
    r = l_fac.shape[-1]
    diag = np.diagonal(l_fac, axis1=-2, axis2=-1)
    if not np.all(diag):
        raise np.linalg.LinAlgError("singular triangular factor: zero on the diagonal")
    inv = np.zeros_like(l_fac)
    eye = np.eye(r)
    for i in range(r):
        # row i of L^-1: (e_i - sum_{j<i} L_ij (L^-1)_j) / L_ii
        acc = (l_fac[..., i:i + 1, :i] @ inv[..., :i, :])[..., 0, :]
        inv[..., i, :] = (eye[i] - acc) / diag[..., i, None]
    return inv


def _factors(chol_raw: np.ndarray):
    """Cholesky factors L, their inverses and sum_j log L_jj for every component."""
    l_fac = chol_factor(chol_raw)
    inv = tri_inverse(l_fac)
    return l_fac, inv, np.log(np.diagonal(l_fac, axis1=-2, axis2=-1)).sum(axis=-1)


def _class_terms(means_c: np.ndarray, inv_c: np.ndarray, sumlog_c: np.ndarray, z: np.ndarray):
    """One class at points z (N, r), from the inverse factors L^-1 (K, r, r):
    whitened residuals y = L^-1 (z - mu) as a contiguous (N, K, r), one GEMM
    z (L^-1 stacked as (K r, r))^T - L^-1 mu, and log N(z_i; mu_k, L_k L_k^T)
    as (N, K)."""
    n_comp, r = means_c.shape
    y = (z @ inv_c.reshape(n_comp * r, r).T).reshape(len(z), n_comp, r)
    y -= (inv_c @ means_c[:, :, None])[:, :, 0]
    comp = (-0.5 * r * LOG_2PI) - (0.5 * np.einsum("nkj,nkj->nk", y, y) + sumlog_c)
    return y, comp


def _log_weights(weight_logits: np.ndarray) -> np.ndarray:
    return weight_logits - _logsumexp_rows(weight_logits)[:, None]


def class_log_density(means: np.ndarray, chol_raw: np.ndarray, weight_logits: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """(N, C) of log q(z_i | y = c) from the three parameter tensors, no priors applied."""
    log_w = _log_weights(weight_logits)
    _, inv, sumlog = _factors(chol_raw)
    cols = [_logsumexp_rows(_class_terms(means[c], inv[c], sumlog[c], z)[1] + log_w[c])
            for c in range(means.shape[0])]
    return np.stack(cols, axis=1)


def _libm_exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _expit(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) with libm's exp, which is how scipy's expit computes
    it, so the two agree bit for bit (numpy's vectorized exp differs from
    libm's in the last bit on some inputs).  Where exp(-x) overflows the
    result is 0, as in scipy."""
    neg = np.negative(x).ravel().tolist()
    try:
        e = np.fromiter(map(math.exp, neg), float, len(neg))
    except OverflowError:
        e = np.fromiter(map(_libm_exp, neg), float, len(neg))
    return 1.0 / (1.0 + e.reshape(x.shape))


def _class_vjp(l_fac_c, inv_c, raw_c, log_w_c, y, comp, out_c, g_c, g_sum, need_z: bool):
    """Gradients of sum_i g_c[i] out_c[i] for one class c at its points, where
    y, comp = _class_terms(...) there and out_c is their log density; g_sum is
    the sum of g_c (passed in, so a caller can fix its rounding).  Returns
    (dz or None, dmeans_c, draw_c, dlogits_c).
    With u = L^-T y and h = g * responsibility: dz = -sum h u, dmu = sum h u,
    dL = tril(sum h u y^T) - diag(sum h / L_jj), dlogits = sum h - w sum g.
    Here h u = (h y) L^-1 row by row, so dz is one GEMM of h y as (N, K r)
    against L^-1 stacked as (K r, r), dmu is (sum h y) L^-1, and
    dL = L^-T (h y)^T y is one batched matmul over K."""
    n_comp, r = inv_c.shape[:2]
    h = g_c[:, None] * np.exp(comp + log_w_c - out_c[:, None])                # (N, K)
    hy = y * h[:, :, None]                                                   # (N, K, r)
    d_z = None
    if need_z:
        d_z = hy.reshape(len(y), n_comp * r) @ inv_c.reshape(n_comp * r, r)
        np.negative(d_z, out=d_z)
    d_means = (hy.sum(axis=0)[:, None, :] @ inv_c)[:, 0, :]
    h_sum = h.sum(axis=0)
    d_l = np.tril(np.swapaxes(inv_c, 1, 2) @ (hy.transpose(1, 2, 0) @ y.transpose(1, 0, 2)))
    diag = d_l.reshape(n_comp, r * r)[:, ::r + 1]  # a writable view of the K diagonals
    diag -= h_sum[:, None] / np.diagonal(l_fac_c, axis1=1, axis2=2)
    diag *= _expit(np.diagonal(raw_c, axis1=1, axis2=2))
    return d_z, d_means, d_l, h_sum - np.exp(log_w_c) * g_sum


def _class_log_density_vjp(means, chol_raw, weight_logits, z, out, g, need_z: bool = True):
    """Gradients of sum(g * out) in z, means, chol_raw, weight_logits, where
    out = class_log_density(...); the z gradient is None unless need_z.
    One `_class_vjp` per class over all N points."""
    log_w = _log_weights(weight_logits)
    l_fac, inv, sumlog = _factors(chol_raw)
    d_z = np.zeros_like(z) if need_z else None
    d_means = np.empty_like(means)
    d_raw = np.empty_like(chol_raw)
    d_logits = np.empty_like(weight_logits)
    for c in range(means.shape[0]):
        # recomputed, not kept from the forward: keeping y would hold (C, N, K, r)
        y, comp = _class_terms(means[c], inv[c], sumlog[c], z)
        d_zc, d_means[c], d_raw[c], d_logits[c] = _class_vjp(
            l_fac[c], inv[c], chol_raw[c], log_w[c], y, comp, out[:, c], g[:, c], g[:, c].sum(),
            need_z)
        if need_z:
            d_z += d_zc
    return d_z, d_means, d_raw, d_logits


def class_log_density_matrix(m: ClassConditionalMixture, z) -> np.ndarray:
    """(N, C) of log q(z_i | y = c), no priors applied."""
    return class_log_density(m.means, m.chol_raw, m.weight_logits, _as_points(z, m.dim))


def mixture_log_density(m: ClassConditionalMixture, y: int, z) -> float:
    """log q(z | y) for one point."""
    z = _as_points(z, m.dim)
    if z.shape[0] != 1:
        raise ValueError("mixture_log_density: one point at a time")
    if not 0 <= y < m.n_classes:
        raise ValueError(f"label {y} out of range for {m.n_classes} classes")
    return float(class_log_density_matrix(m, z)[0, y])


def marginal_log_density(m: ClassConditionalMixture, z) -> np.ndarray:
    """(N,) of log q(z_i) = log sum_c q(z_i | c) p(c)."""
    cond = class_log_density_matrix(m, z)
    with np.errstate(divide="ignore"):
        return _logsumexp_rows(cond + np.log(m.class_priors))


def class_posterior(m: ClassConditionalMixture, z) -> np.ndarray:
    """Posterior q(y | z); (C,) for a single point, else (N, C)."""
    z_arr = np.asarray(z, dtype=np.float64)
    single = z_arr.ndim == 1
    cond = class_log_density_matrix(m, z_arr)
    with np.errstate(divide="ignore"):
        scored = cond + np.log(m.class_priors)
    log_post = scored - _logsumexp_rows(scored)[:, None]
    post = np.exp(log_post)
    return post[0] if single else post


def fit_priors(m: ClassConditionalMixture, labels) -> ClassConditionalMixture:
    """Replace class priors with empirical label frequencies."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("fit_priors: empty label set")
    if np.any(labels < 0) or np.any(labels >= m.n_classes):
        raise ValueError("fit_priors: label out of range")
    counts = np.bincount(labels, minlength=m.n_classes).astype(np.float64)
    return replace(m, class_priors=counts / counts.sum())


# ---------------------------------------------------------------------------
# tape construction


def mixture_param_arrays(m: ClassConditionalMixture) -> dict[str, np.ndarray]:
    """The trainable tensors themselves (not copies), under their checkpoint names."""
    return {"mix_means": m.means, "mix_chol_raw": m.chol_raw,
            "mix_weight_logits": m.weight_logits}


def set_mixture_param_arrays(m: ClassConditionalMixture, values: dict[str, np.ndarray]) -> None:
    m.means = values["mix_means"]
    m.chol_raw = values["mix_chol_raw"]
    m.weight_logits = values["mix_weight_logits"]


def make_mixture_nodes(tape: ad.Tape, m: ClassConditionalMixture) -> dict[str, ad.Node]:
    return {name: tape.leaf(arr) for name, arr in mixture_param_arrays(m).items()}


class DensityNodes(NamedTuple):
    class_cond: ad.Node    # (N, C) log q(z | c)
    marginal: ad.Node      # (N,)  log q(z)
    log_post_own: ad.Node  # (N,)  log q(y_i | z_i)


def density_nodes(tape: ad.Tape, pnodes: dict[str, ad.Node], m: ClassConditionalMixture,
                  z_node: ad.Node, labels) -> DensityNodes:
    """The numpy densities on the tape, differentiable in z and the parameters;
    a tape-constant z (fixed data points) gets no gradient."""
    labels = np.asarray(labels, dtype=np.int64)
    params = [pnodes[name] for name in mixture_param_arrays(m)]
    arrays = [p.value for p in params]
    z = z_node.value
    value = class_log_density(*arrays, z)
    need_z = z_node.op != "const"
    class_cond = ad.first_order(
        (z_node, *params), value,
        lambda g: _class_log_density_vjp(*arrays, z, value, g, need_z), "mixture_density")

    with np.errstate(divide="ignore"):
        log_priors = np.log(m.class_priors)
    scored = ad.add(class_cond, tape.constant(log_priors))
    marginal = ad.logsumexp_rows(scored)
    log_post_own = ad.sub(ad.take_per_row(scored, labels), marginal)
    return DensityNodes(class_cond, marginal, log_post_own)


# ---------------------------------------------------------------------------
# maximum-likelihood fitting


def _inv_softplus(y: np.ndarray) -> np.ndarray:
    return np.log(np.expm1(np.maximum(y, 1e-3)))


def mle_fit(z, labels, n_classes: int, n_components: int, steps: int, seed: int,
            lr: float = 0.05, init: ClassConditionalMixture | None = None) -> ClassConditionalMixture:
    """Fit the mixture to features by gradient ascent on sum_i log q(z_i | y_i).

    Means start at the class sample mean plus a seeded jitter (symmetry
    breaking for K > 1), Cholesky diagonals at the per-dimension std.  Priors
    are set to empirical frequencies.  Deterministic in seed.  Class c's
    parameters only ever meet the rows labelled c, so each Adam step works on
    each class's own rows (`_own_rows_grads`), with no tape.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("mle_fit: expects a (n, dim) feature matrix")
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError("mle_fit: label out of range")
    r = z.shape[1]
    counts = np.bincount(labels, minlength=n_classes)
    short = np.flatnonzero(counts < n_components)
    if short.size:
        c = int(short[0])
        raise ValueError(f"mle_fit: every class needs at least n_components={n_components} "
                         f"samples; class {c} has {int(counts[c])}")

    if init is None:
        m = mixture_init(n_classes, n_components, r, seed)
        onehot = (labels[:, None] == np.arange(n_classes)).astype(np.float64)
        centers = onehot.T @ z / counts[:, None]
        stds = np.sqrt(onehot.T @ (z - centers[labels]) ** 2 / counts[:, None])
        scales = 0.25 * stds.mean(axis=1) + 1e-3
        jitter = rngmod.stream(seed, "mle-init").normal(size=m.means.shape)
        m.means = centers[:, None, :] + scales[:, None, None] * jitter
        idx = np.arange(r)
        m.chol_raw[:, :, idx, idx] = _inv_softplus(np.maximum(stds, 1e-2))[:, None, :]
    else:
        m = replace(init, means=init.means.copy(), chol_raw=init.chol_raw.copy(),
                    weight_logits=init.weight_logits.copy(), class_priors=init.class_priors.copy())
    m = fit_priors(m, labels)

    z_own = [np.ascontiguousarray(z[labels == c]) for c in range(n_classes)]
    g_sums = _own_row_gradient_sums(labels, n_classes)
    state = optim.AdamState()
    for _ in range(steps):
        grads = _own_rows_grads(m, z_own, g_sums)
        set_mixture_param_arrays(m, optim.adam_step(mixture_param_arrays(m), grads, state, lr))
    return m


def _own_row_gradient_sums(labels: np.ndarray, n_classes: int) -> list:
    """Per class, the sum of d(-mean_i log q(z_i | y_i)) / d log q(z_i | c),
    which is -1/N on each of the class's rows.  It is summed down the full
    (N, C) column, as a backward pass through the whole density matrix sums
    it, so a fit keeps that rounding bit for bit."""
    n = len(labels)
    own = np.zeros((n, n_classes))
    own[np.arange(n), labels] = -(1.0 / n)
    return [own[:, c].sum() for c in range(n_classes)]


def _own_rows_grads(m: ClassConditionalMixture, z_own: list, g_sums: list) -> dict[str, np.ndarray]:
    """Gradients of -mean_i log q(z_i | y_i) in the three trainable tensors,
    each class's mixture evaluated on its own rows z_own[c] only."""
    n = sum(len(z_c) for z_c in z_own)
    log_w = _log_weights(m.weight_logits)
    l_fac, inv, sumlog = _factors(m.chol_raw)
    d_means = np.empty_like(m.means)
    d_raw = np.empty_like(m.chol_raw)
    d_logits = np.empty_like(m.weight_logits)
    for c, z_c in enumerate(z_own):
        y, comp = _class_terms(m.means[c], inv[c], sumlog[c], z_c)
        out_c = _logsumexp_rows(comp + log_w[c])
        _, d_means[c], d_raw[c], d_logits[c] = _class_vjp(
            l_fac[c], inv[c], m.chol_raw[c], log_w[c], y, comp, out_c,
            np.full(len(z_c), -(1.0 / n)), g_sums[c], need_z=False)
    return {"mix_means": d_means, "mix_chol_raw": d_raw, "mix_weight_logits": d_logits}
