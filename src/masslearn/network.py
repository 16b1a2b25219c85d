"""Multilayer perceptron with exact input Jacobians.

The network is a stack of hidden blocks followed by a final linear layer.  A
block is a linear layer, then `_block`, the one definition of optional
batchnorm -> nonlinearity -> optional dropout, which returns its output and
a cache.  `forward_fast` loops over the blocks in plain numpy (evaluation,
metrics, Jacobians); `forward_nodes` wraps each as first-order tape nodes
with closed-form VJPs (training losses), so the two agree bit for bit.

Each block acts on its input as W_l followed by a per-sample diagonal scale
s_l = invstd_l * bn_scale_l * elu'(u_l) * mask_l, read from its cache, so the
input Jacobian of one sample is the chain product D = W_L S_{L-1} ... S_0 W_0.
`jacobian_batch` builds it from the output side for a whole batch, and the
volume term log J_f = 0.5 log det(D D^T + jitter I) of the training loss
(`volume_node`) is one first-order node over the same product, whose parents
are the weights and the scale nodes of the loss's own network pass.
`jacobian_matrix` is an independent reference from reverse tape sweeps.

Batchnorm statistics are constants of the current batch when differentiating
with respect to inputs (parameter gradients still flow through them), and
dropout masks are one vector per hidden layer, shared across the batch.  So
the network is one deterministic map per step, and its per-sample Jacobian
is well defined and matches what the loss terms see.

The log-Jacobian J_f(x) = sqrt(det(Df Df^T)) requires output_dim <=
input_dim; Jacobian routines enforce this even though the config itself
allows wider outputs (a cross-entropy head may have more classes than input
features, it just cannot ask for Jacobians then).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import rng as rngmod
from .mixtures import tri_inverse

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
JITTER_DEFAULT = 1e-12
JITTER_RETRY = 1e-8


class DegenerateJacobianError(ValueError):
    pass


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    nonlinearity: str = "elu"
    dropout_rate: float = 0.0
    use_batchnorm: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        for name, value in (("input_dim", self.input_dim), ("output_dim", self.output_dim),
                            ("hidden_dims", min(self.hidden_dims, default=1))):
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.nonlinearity not in ("elu", "identity"):
            raise ValueError(f"nonlinearity must be elu or identity, got {self.nonlinearity!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def layer_dims(self):
        return (self.input_dim, *self.hidden_dims, self.output_dim)


@dataclass
class MlpParams:
    config: MlpConfig
    weights: list[np.ndarray]   # (fan_out, fan_in) per layer
    biases: list[np.ndarray]
    bn_scale: list[np.ndarray]  # gamma, one per hidden layer when batchnorm is on
    bn_shift: list[np.ndarray]  # beta
    bn_mean: list[np.ndarray]   # running statistics, not trained by gradient
    bn_var: list[np.ndarray]


@dataclass
class DropoutMask:
    """Per-hidden-layer keep masks, already scaled by 1/(1 - rate)."""

    masks: list[np.ndarray]


def mlp_init(config: MlpConfig, seed: int) -> MlpParams:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    weights, biases = [], []
    dims = config.layer_dims
    for li in range(len(dims) - 1):
        fan_in, fan_out = dims[li], dims[li + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        gen = rngmod.stream(seed, rngmod.INIT, li)
        weights.append(gen.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    bn_scale, bn_shift, bn_mean, bn_var = [], [], [], []
    if config.use_batchnorm:
        for h in config.hidden_dims:
            bn_scale.append(np.ones(h))
            bn_shift.append(np.zeros(h))
            bn_mean.append(np.zeros(h))
            bn_var.append(np.ones(h))
    return MlpParams(config, weights, biases, bn_scale, bn_shift, bn_mean, bn_var)


def sample_dropout_mask(config: MlpConfig, gen: np.random.Generator) -> DropoutMask:
    masks = []
    rate = config.dropout_rate
    for h in config.hidden_dims:
        if rate == 0.0:
            masks.append(np.ones(h))
        else:
            keep = (gen.random(h) >= rate).astype(np.float64)
            masks.append(keep / (1.0 - rate))
    return DropoutMask(masks)


def param_arrays(params: MlpParams) -> dict[str, np.ndarray]:
    """Trainable tensors in a fixed, documented order."""
    out: dict[str, np.ndarray] = {}
    n_layers = len(params.weights)
    for li in range(n_layers):
        out[f"w{li}"] = params.weights[li]
        out[f"b{li}"] = params.biases[li]
    for li in range(len(params.bn_scale)):
        out[f"bn_scale{li}"] = params.bn_scale[li]
        out[f"bn_shift{li}"] = params.bn_shift[li]
    return out


def set_param_arrays(params: MlpParams, values: dict[str, np.ndarray]) -> None:
    n_layers = len(params.weights)
    for li in range(n_layers):
        params.weights[li] = values[f"w{li}"]
        params.biases[li] = values[f"b{li}"]
    for li in range(len(params.bn_scale)):
        params.bn_scale[li] = values[f"bn_scale{li}"]
        params.bn_shift[li] = values[f"bn_shift{li}"]


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :]
    if x.ndim == 2:
        return x
    raise ValueError(f"expected a sample or batch, got shape {x.shape}")


def _stats(params: MlpParams, li: int, z: np.ndarray, mode: str, batch_stats,
           update_running: bool):
    """(mean, invstd, var) that normalize hidden layer li's linear output z.

    var is None unless train mode computes the batch's own statistics, as
    (1/n) sums and invstd = exp(-log(var + eps) / 2).  Given ones (arrays,
    or nodes of an earlier tape pass) come back as they are.
    """
    if batch_stats is not None:
        return (*batch_stats[li], None)
    if mode != "train":
        return params.bn_mean[li], 1.0 / np.sqrt(params.bn_var[li] + BN_EPS), None
    n = z.shape[0]
    if n < 2:  # one row has variance 0: every input would map to beta
        raise ValueError(f"batchnorm: train-mode statistics need at least 2 rows, got {n}")
    mean = (1.0 / n) * z.sum(axis=0)
    centered = z - mean
    var = (1.0 / n) * (centered * centered).sum(axis=0)
    if update_running:
        params.bn_mean[li] = (1 - BN_MOMENTUM) * params.bn_mean[li] + BN_MOMENTUM * mean
        params.bn_var[li] = (1 - BN_MOMENTUM) * params.bn_var[li] + BN_MOMENTUM * var
    return mean, np.exp(-0.5 * np.log(var + BN_EPS)), var


def _keep_mask(cfg: MlpConfig, dropout_mask: DropoutMask | None, li: int):
    if dropout_mask is None or cfg.dropout_rate == 0.0:
        return None
    return dropout_mask.masks[li]


class BlockCache(NamedTuple):
    """What a hidden block keeps for its derivatives and its Jacobian scale."""

    z: np.ndarray               # the linear output, (n, width)
    u: np.ndarray               # the nonlinearity's input
    bn: tuple | None            # (gamma, beta, mean, invstd) when batchnorm is on
    elu: bool
    mask: np.ndarray | None     # the dropout keep mask when dropout is on


def _block(cfg: MlpConfig, z: np.ndarray, bn, mask):
    """One hidden block on its linear output z: batchnorm, nonlinearity, dropout.

    Returns the block output and its cache.
    """
    u = z
    if bn is not None:  # (z - mean) * invstd * gamma + beta, in place in one array
        gamma, beta, mean, invstd = bn
        u = z - mean
        u *= invstd
        u *= gamma
        u += beta
    elu = cfg.nonlinearity == "elu"
    out = u
    if elu:  # expm1(u) below 0, u above, in one output array
        # expm1 sees 0 where u > 0, so a large u cannot overflow there, and
        # np.maximum puts u back: expm1(u) >= u for every u <= 0, so it is
        # the same as a masked copy of u where u > 0, without the mask.  Of
        # two equal arguments np.minimum and np.maximum return the second,
        # so u = -0.0 stays -0.0.
        out = np.minimum(0.0, u)
        np.expm1(out, out=out)
        np.maximum(out, u, out=out)
    if mask is not None:
        out = out * mask
    return out, BlockCache(z, u, bn, elu, mask)


def _elu_slope(c: BlockCache):
    """elu'(u), taken as 1 at 0; 1 for the identity."""
    return np.where(c.u > 0, 1.0, np.exp(np.minimum(c.u, 0.0))) if c.elu else 1.0


def _scale(c: BlockCache) -> np.ndarray:
    """The block's input-Jacobian diagonal s = invstd * gamma * elu'(u) * mask, (n, width)."""
    s = (1.0 if c.bn is None else c.bn[3] * c.bn[0]) * _elu_slope(c)
    if c.mask is not None:
        s = s * c.mask
    return np.broadcast_to(s, c.z.shape)


def _bn_vjp(c: BlockCache, g_u: np.ndarray):
    """Gradients in (z, gamma, beta, mean, invstd) of the batchnorm output
    u = (z - mean) * invstd * gamma + beta, with the statistics as inputs;
    in (z,) alone without batchnorm."""
    if c.bn is None:
        return (g_u,)
    gamma, _, mean, invstd = c.bn
    centered = c.z - mean
    g_norm = g_u * gamma
    dz = g_norm * invstd
    return (dz, (g_u * centered * invstd).sum(axis=0), g_u.sum(axis=0), -dz.sum(axis=0),
            (g_norm * centered).sum(axis=0))


def _block_vjp(c: BlockCache, g: np.ndarray):
    if c.mask is not None:
        g = g * c.mask
    return _bn_vjp(c, g * _elu_slope(c))


def _scale_vjp(c: BlockCache, g: np.ndarray):
    """Gradients of the scale s in the block node's parents.  Through u they
    carry elu''(u), which is exp(u) below 0 and 0 above (0 for the identity)."""
    if c.mask is not None:
        g = g * c.mask
    slope = _elu_slope(c)
    curvature = np.where(c.u > 0, 0.0, slope) if c.elu else 0.0
    if c.bn is None:
        return (g * curvature,)
    gamma, _, _, invstd = c.bn
    dz, dgamma, dbeta, dmean, dinvstd = _bn_vjp(c, g * (invstd * gamma) * curvature)
    direct = (g * slope).sum(axis=0)
    return dz, dgamma + direct * invstd, dbeta, dmean, dinvstd + direct * gamma


def forward_fast(params: MlpParams, x, mode: str = "eval", dropout_mask: DropoutMask | None = None,
                 batch_stats=None, update_running: bool = False, return_stats: bool = False,
                 caches: list | None = None):
    """Plain numpy forward pass; returns (N, output_dim).

    When `caches` is a list, each hidden block's BlockCache is appended to it.
    """
    cfg = params.config
    h = _as_batch(x)
    if h.shape[1] != cfg.input_dim:
        raise ValueError(f"forward: expected {cfg.input_dim} features, got {h.shape[1]}")
    stats_used = []
    for li in range(len(cfg.hidden_dims)):
        z = h @ params.weights[li].T + params.biases[li]
        bn = None
        if cfg.use_batchnorm:
            mean, invstd, _ = _stats(params, li, z, mode, batch_stats, update_running)
            stats_used.append((mean, invstd))
            bn = (params.bn_scale[li], params.bn_shift[li], mean, invstd)
        h, cache = _block(cfg, z, bn, _keep_mask(cfg, dropout_mask, li))
        if caches is not None:
            caches.append(cache)
        del z, cache  # no block arrays are held into the next layer
    out = h @ params.weights[-1].T + params.biases[-1]
    if return_stats:
        return out, stats_used
    return out


def make_param_nodes(tape: ad.Tape, params: MlpParams) -> dict[str, ad.Node]:
    return {name: tape.leaf(arr) for name, arr in param_arrays(params).items()}


def _batch_stat_nodes(z: ad.Node, mean: np.ndarray, invstd: np.ndarray, var: np.ndarray):
    """A batch's own statistics as first-order nodes on its linear output z."""
    n = z.value.shape[0]
    mean_node = ad.first_order((z,), mean, lambda g: (np.broadcast_to(g / n, z.value.shape),),
                               "bn_mean")
    invstd_node = ad.first_order(
        (z,), invstd, lambda g: ((z.value - mean) * (g * invstd / (-n * (var + BN_EPS))),),
        "bn_invstd")
    return mean_node, invstd_node


def forward_nodes(tape: ad.Tape, pnodes: dict[str, ad.Node], params: MlpParams, x_node: ad.Node,
                  mode: str = "eval", dropout_mask: DropoutMask | None = None,
                  batch_stats=None, update_running: bool = False, scales: list | None = None):
    """Tape twin of forward_fast; returns (output node, batch stats used).

    Each hidden block is a `linear` node and one first-order node over
    `_block`.  With batchnorm its parents also hold gamma, beta and a
    (mean, invstd) node pair: the given one, constants, or in train mode the
    batch's own as first-order nodes on the linear output, so that gradients
    sent to them (by the volume term) reach the weights.  When `scales` is a
    list, each block's input-Jacobian diagonal s_l is appended to it as an
    (n, width) node.
    """
    cfg = params.config
    h = x_node
    stats_used = []
    for li in range(len(cfg.hidden_dims)):
        z = ad.linear(h, pnodes[f"w{li}"], pnodes[f"b{li}"])
        parents, bn = (z,), None
        if cfg.use_batchnorm:
            mean, invstd, var = _stats(params, li, z.value, mode, batch_stats, update_running)
            if var is not None:
                mean, invstd = _batch_stat_nodes(z, mean, invstd, var)
            elif not isinstance(mean, ad.Node):
                mean, invstd = tape.constant(mean), tape.constant(invstd)
            stats_used.append((mean, invstd))
            parents = (z, pnodes[f"bn_scale{li}"], pnodes[f"bn_shift{li}"], mean, invstd)
            bn = tuple(p.value for p in parents[1:])
        value, cache = _block(cfg, z.value, bn, _keep_mask(cfg, dropout_mask, li))
        h = ad.first_order(parents, value, functools.partial(_block_vjp, cache), "hidden_block")
        if scales is not None:
            scales.append(ad.first_order(parents, _scale(cache),
                                         functools.partial(_scale_vjp, cache), "block_scale"))
    last = len(cfg.hidden_dims)
    out = ad.linear(h, pnodes[f"w{last}"], pnodes[f"b{last}"])
    return out, stats_used


def _require_jacobian_shape(cfg: MlpConfig):
    if cfg.output_dim > cfg.input_dim:
        raise ValueError(
            f"Jacobian needs output_dim <= input_dim, got {cfg.output_dim} > {cfg.input_dim}"
        )


def jacobian_matrix(params: MlpParams, x, mode: str = "eval",
                    dropout_mask: DropoutMask | None = None, batch_stats=None) -> np.ndarray:
    """(output_dim, input_dim) Jacobian of one sample.

    Row i is the gradient of output coordinate i with respect to x, obtained
    by output_dim reverse sweeps over one shared forward tape.  This is the
    reference that jacobian_batch is tested against.
    """
    _require_jacobian_shape(params.config)
    xb = _as_batch(x)
    if xb.shape[0] != 1:
        raise ValueError("jacobian_matrix: expects a single sample")
    tape = ad.Tape()
    pnodes = make_param_nodes(tape, params)
    x_leaf = tape.leaf(xb)
    out, _ = forward_nodes(tape, pnodes, params, x_leaf, mode=mode,
                           dropout_mask=dropout_mask, batch_stats=batch_stats)
    eye = np.eye(params.config.output_dim)
    rows = [ad.backward(ad.sum_all(ad.mul(out, tape.constant(e[None]))), [x_leaf])[x_leaf][0]
            for e in eye]
    return np.stack(rows)


def _rows_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (..., k) @ b (k, m) as one GEMM over the flattened leading axes."""
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(*a.shape[:-1], b.shape[-1])


def _chain_product(weights, scales, n: int):
    """D = W_L S_{L-1} W_{L-1} ... S_0 W_0 for n samples, from the output side.

    weights are the (fan_out, fan_in) matrices, scales the (n, width)
    diagonals of the hidden blocks.  Returns D (n, r, d) and the left
    products X_l = W_L S_{L-1} ... W_{l+1}, (n, r, width_l), one per block.
    """
    jac = np.broadcast_to(weights[-1], (n, *weights[-1].shape)).copy()
    lefts = []
    for w, s in zip(weights[-2::-1], scales[::-1]):
        lefts.append(jac)
        jac = _rows_matmul(jac * s[:, None, :], w)
    return jac, lefts[::-1]


def jacobian_batch(params: MlpParams, x, mode: str = "eval",
                   dropout_mask: DropoutMask | None = None, batch_stats=None) -> np.ndarray:
    """(N, output_dim, input_dim) Jacobians, vectorized.

    One numpy forward gives the hidden blocks' scales s_l; the chain product
    is then built from the output side, so the peak intermediate is
    (N, output_dim, widest layer).  Agrees with jacobian_matrix to round-off
    (tested), it is just faster.
    """
    _require_jacobian_shape(params.config)
    xb = _as_batch(x)
    caches: list[BlockCache] = []
    forward_fast(params, xb, mode=mode, dropout_mask=dropout_mask, batch_stats=batch_stats,
                 caches=caches)
    return _chain_product(params.weights, [_scale(c) for c in caches], xb.shape[0])[0]


def _degenerate(sample_index: int):
    return DegenerateJacobianError(f"degenerate Jacobian at sample index {sample_index}")


def _gram_cholesky(jac: np.ndarray, jitter: float) -> np.ndarray:
    """(n, r, r) Cholesky factors of sym(D D^T) + jitter I for D of shape (n, r, d).

    One batched factorization; if it fails, each sample is factored on its
    own and one that fails is retried at JITTER_RETRY.
    """
    gram = jac @ np.swapaxes(jac, 1, 2)
    finite = np.isfinite(gram).all(axis=(1, 2))
    if not finite.all():
        raise _degenerate(int(np.argmin(finite)))
    gram = 0.5 * (gram + np.swapaxes(gram, 1, 2))
    eye = np.eye(gram.shape[1])
    try:
        return np.linalg.cholesky(gram + jitter * eye)
    except np.linalg.LinAlgError:
        pass
    chol = np.empty_like(gram)
    jitters = (jitter, JITTER_RETRY) if jitter < JITTER_RETRY else (jitter,)
    for i, g in enumerate(gram):
        for jit in jitters:
            try:
                chol[i] = np.linalg.cholesky(g + jit * eye)
                break
            except np.linalg.LinAlgError:
                pass
        else:
            raise _degenerate(i)
    return chol


def _half_logdet(chol: np.ndarray) -> np.ndarray:
    return np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)


def half_logdet_gram(jac: np.ndarray, jitter: float) -> np.ndarray:
    """(n,) of 0.5 * log det(sym(D D^T) + jitter I) for Jacobians D of shape (n, r, d).

    A sample whose factorization fails is retried once at JITTER_RETRY; a
    non-finite Gram matrix or a second failure raises DegenerateJacobianError
    naming the sample index.
    """
    return _half_logdet(_gram_cholesky(jac, jitter))


def log_jacobian_determinant(params: MlpParams, x, jitter: float = JITTER_DEFAULT,
                             mode: str = "eval", dropout_mask: DropoutMask | None = None,
                             batch_stats=None) -> float:
    """log J_f(x) = 0.5 * log det(Df Df^T + jitter I) of one sample, from the
    reference jacobian_matrix."""
    d = jacobian_matrix(params, x, mode=mode, dropout_mask=dropout_mask, batch_stats=batch_stats)
    return float(half_logdet_gram(d[None], jitter)[0])


def log_jacobian_batch(params: MlpParams, x, jitter: float = JITTER_DEFAULT,
                       mode: str = "eval", dropout_mask: DropoutMask | None = None,
                       batch_stats=None) -> np.ndarray:
    """(N,) of log J_f values via the vectorized Jacobian path."""
    jac = jacobian_batch(params, x, mode=mode, dropout_mask=dropout_mask, batch_stats=batch_stats)
    return half_logdet_gram(jac, jitter)


def _volume_vjp(weights, scales, lefts, jac, chol, g):
    """Gradients of sum_n g_n * 0.5 log det(D_n D_n^T + jI) in the weights and
    the scales.  With G = g L^-T L^-1 D (L the Cholesky factor), R_0 = G and
    R_{l+1} = (R_l W_l^T) * s_l: dW_l = (X_l * s_l)^T R_l, ds_l = sum_r
    X_l * (R_l W_l^T), and dW_L = sum_n R_L."""
    n, r = jac.shape[:2]
    inv = tri_inverse(chol)
    resid = (np.swapaxes(inv, 1, 2) @ inv * g[:, None, None]) @ jac
    d_weights, d_scales = [], []
    for w, s, x in zip(weights, scales, lefts):
        d_weights.append((x * s[:, None, :]).reshape(n * r, -1).T @ resid.reshape(n * r, -1))
        back = _rows_matmul(resid, w.T)
        d_scales.append((x * back).sum(axis=1))
        resid = back * s[:, None, :]
    d_weights.append(resid.sum(axis=0))
    return (*d_weights, *d_scales)


def volume_node(pnodes: dict[str, ad.Node], params: MlpParams, scale_nodes: list[ad.Node],
                rows: int, jitter: float) -> ad.Node:
    """(rows,) node of 0.5 log det(D D^T + jitter I) for the first `rows` rows
    of the scale nodes a `forward_nodes` pass appended.  Its parents are the
    weights and those nodes; the tape carries its closed-form gradients (zero
    past `rows`) on to biases, batchnorm parameters and statistics."""
    _require_jacobian_shape(params.config)
    weight_nodes = [pnodes[f"w{li}"] for li in range(len(params.weights))]
    weights = [w.value for w in weight_nodes]
    scales = [s.value[:rows] for s in scale_nodes]
    jac, lefts = _chain_product(weights, scales, rows)
    chol = _gram_cholesky(jac, jitter)

    def vjp(g):
        grads = _volume_vjp(weights, scales, lefts, jac, chol, g)
        n_w = len(weights)
        return (*grads[:n_w], *(np.pad(ds, ((0, len(s.value) - rows), (0, 0)))
                                for ds, s in zip(grads[n_w:], scale_nodes)))

    return ad.first_order((*weight_nodes, *scale_nodes), _half_logdet(chol), vjp, "log_jacobian")


def log_jacobian_nodes(tape: ad.Tape, pnodes: dict[str, ad.Node], params: MlpParams,
                       x_leaf: ad.Node, jitter: float = JITTER_DEFAULT, mode: str = "train",
                       dropout_mask: DropoutMask | None = None, batch_stats=None) -> list[ad.Node]:
    """Per-sample log J_f of x_leaf's rows, one scalar node each: a
    `forward_nodes` pass (batchnorm statistics from batch_stats, as nodes or
    arrays, or from the mode), its `volume_node`, and one `dot` per row."""
    scale_nodes: list[ad.Node] = []
    forward_nodes(tape, pnodes, params, x_leaf, mode, dropout_mask, batch_stats,
                  scales=scale_nodes)
    n = x_leaf.value.shape[0]
    vol = volume_node(pnodes, params, scale_nodes, n, jitter)
    return [ad.dot(vol, tape.constant(e)) for e in np.eye(n)]


def amgm_slack(jac: np.ndarray, jitter: float = JITTER_DEFAULT) -> np.ndarray:
    """Slack of the trace/determinant inequality per sample, in log domain.

    For M = D D^T + jitter I the arithmetic-geometric mean inequality gives
    r*log(trace(M)/r) >= log det(M); the returned slack is the left side
    minus the right side and must be nonnegative up to round-off.  log det M
    is the loss's own (half_logdet_gram: its factor and jitter retry), checked
    against tr M = ||D||_F^2 + r*jitter from D; a trace from the factor L could
    never fail, as r*log(||L||_F^2/r) >= 2 sum log L_jj for every triangular L.
    """
    jac = np.asarray(jac).reshape(-1, *np.shape(jac)[-2:])  # one sample or a batch
    r = jac.shape[1]
    trace = np.einsum("nij,nij->n", jac, jac) + r * jitter
    return r * np.log(trace / r) - 2.0 * half_logdet_gram(jac, jitter)
