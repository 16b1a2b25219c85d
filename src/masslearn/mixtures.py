"""Class-conditional Gaussian mixture density head.

Each class y gets its own mixture of full-covariance Gaussians

    q(z | y) = sum_k w_{y,k} N(z; mu_{y,k}, L_{y,k} L_{y,k}^T)

where L is lower-triangular with a softplus-transformed diagonal so the
covariance stays positive definite for any unconstrained parameter matrix.
Class priors p(y) are empirical frequencies, never trained by gradient.
Classification goes through Bayes rule on log densities:

    q(y | z) = q(z | y) p(y) / sum_c q(z | c) p(c)

The log density q(z | y) is one numpy function over the three parameter
tensors a checkpoint stores.  Scoring calls it; training wraps it as one
tape node with a closed-form gradient, so both paths agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.special import expit

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


def _class_terms(means_c: np.ndarray, raw_c: np.ndarray, z: np.ndarray):
    """One class at points z (N, r): factors L (K, r, r), whitened residuals
    y = L^-1 (z - mu) as (K, r, N), and log N(z_i; mu_k, L_k L_k^T) as (N, K)."""
    r = means_c.shape[-1]
    l_fac = chol_factor(raw_c)
    resid = np.swapaxes(z[None, :, :] - means_c[:, None, :], 1, 2)
    y = scipy.linalg.solve_triangular(l_fac, resid, lower=True, check_finite=False)
    sumlog = np.log(np.diagonal(l_fac, axis1=1, axis2=2)).sum(axis=1)
    comp = (-0.5 * r * LOG_2PI) - (0.5 * (y * y).sum(axis=1) + sumlog[:, None])
    return l_fac, y, comp.T


def _log_weights(weight_logits: np.ndarray) -> np.ndarray:
    return weight_logits - _logsumexp_rows(weight_logits)[:, None]


def class_log_density(means: np.ndarray, chol_raw: np.ndarray, weight_logits: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """(N, C) of log q(z_i | y = c) from the three parameter tensors, no priors applied."""
    log_w = _log_weights(weight_logits)
    cols = [_logsumexp_rows(_class_terms(means[c], chol_raw[c], z)[2] + log_w[c])
            for c in range(means.shape[0])]
    return np.stack(cols, axis=1)


def _class_log_density_vjp(means, chol_raw, weight_logits, z, out, g):
    """Gradients of sum(g * out) in z, means, chol_raw, weight_logits, where
    out = class_log_density(...).  With u = L^-T y and h = g * responsibility:
    dz = -sum h u, dmu = sum h u, dL = tril(sum h u y^T) - diag(sum h / L_jj),
    dlogits = sum h - w sum g."""
    log_w = _log_weights(weight_logits)
    d_z = np.zeros_like(z)
    d_means = np.empty_like(means)
    d_raw = np.empty_like(chol_raw)
    d_logits = np.empty_like(weight_logits)
    idx = np.arange(means.shape[-1])
    for c in range(means.shape[0]):
        # recomputed, not kept from the forward: keeping y would hold (C, K, r, N)
        l_fac, y, comp = _class_terms(means[c], chol_raw[c], z)
        h = g[:, c, None] * np.exp(comp + log_w[c] - out[:, c, None])      # (N, K)
        u = scipy.linalg.solve_triangular(l_fac, y, trans="T", lower=True, check_finite=False)
        hu = u * h.T[:, None, :]                                              # (K, r, N)
        d_z -= hu.sum(axis=0).T
        d_means[c] = hu.sum(axis=2)
        h_sum = h.sum(axis=0)
        d_l = np.tril(hu @ np.swapaxes(y, 1, 2))
        d_l[:, idx, idx] -= h_sum[:, None] / l_fac[:, idx, idx]
        d_l[:, idx, idx] *= expit(chol_raw[c][:, idx, idx])
        d_raw[c] = d_l
        d_logits[c] = h_sum - np.exp(log_w[c]) * g[:, c].sum()
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
    counts = np.bincount(labels, minlength=m.n_classes).astype(np.float64)
    if counts.size > m.n_classes:
        raise ValueError("fit_priors: label out of range")
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
    cond_own: ad.Node      # (N,)  log q(z_i | y_i)
    log_post_own: ad.Node  # (N,)  log q(y_i | z_i)


def density_nodes(tape: ad.Tape, pnodes: dict[str, ad.Node], m: ClassConditionalMixture,
                  z_node: ad.Node, labels) -> DensityNodes:
    """The numpy densities on the tape, differentiable in z and the parameters."""
    labels = np.asarray(labels, dtype=np.int64)
    params = [pnodes[name] for name in mixture_param_arrays(m)]
    arrays = [p.value for p in params]
    z = z_node.value
    value = class_log_density(*arrays, z)
    class_cond = ad.first_order(
        (z_node, *params), value,
        lambda g: _class_log_density_vjp(*arrays, z, value, g), "mixture_density")

    with np.errstate(divide="ignore"):
        log_priors = np.log(m.class_priors)
    scored = ad.add(class_cond, tape.constant(log_priors))
    marginal = ad.logsumexp_rows(scored)
    cond_own = ad.take_per_row(class_cond, labels)
    log_post_own = ad.sub(ad.take_per_row(scored, labels), marginal)
    return DensityNodes(class_cond, marginal, cond_own, log_post_own)


# ---------------------------------------------------------------------------
# maximum-likelihood fitting


def _inv_softplus(y: np.ndarray) -> np.ndarray:
    return np.log(np.expm1(np.maximum(y, 1e-3)))


def mle_fit(z, labels, n_classes: int, n_components: int, steps: int, seed: int,
            lr: float = 0.05, init: ClassConditionalMixture | None = None) -> ClassConditionalMixture:
    """Fit the mixture to features by gradient ascent on sum_i log q(z_i | y_i).

    Means start at the class sample mean plus a seeded jitter (symmetry
    breaking for K > 1), Cholesky diagonals at the per-dimension std.  Priors
    are set to empirical frequencies.  Deterministic in seed.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("mle_fit: expects a (n, dim) feature matrix")
    labels = np.asarray(labels, dtype=np.int64)
    r = z.shape[1]
    counts = np.bincount(labels, minlength=n_classes)
    if counts.size > n_classes:
        raise ValueError("mle_fit: label out of range")
    if np.any(counts < n_components):
        raise ValueError("mle_fit: every class needs at least n_components samples")

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

    state = optim.AdamState()
    for _ in range(steps):
        tape = ad.Tape()
        pnodes = make_mixture_nodes(tape, m)
        dens = density_nodes(tape, pnodes, m, tape.constant(z), labels)
        grads = ad.backward(ad.neg(ad.mean_all(dens.cond_own)), list(pnodes.values()))
        tape.release()
        grad_dict = {name: grads[node] for name, node in pnodes.items()}
        set_mixture_param_arrays(m, optim.adam_step(mixture_param_arrays(m), grad_dict, state, lr))
    return m
