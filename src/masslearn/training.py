"""Training objectives and the training loop.

The main loss is the variational bound

    (1/N) sum_i [ -log q(y_i | f(x_i))
                  - beta * log q(f(x_i))
                  + beta * (-log J_f(x_i)) ]

reported as three raw terms: cond_entropy_term = mean -log q(y|z),
entropy_term = mean -log q(z), jacobian_term = mean log J_f.  With beta = 0
the objective reduces to the posterior negative log-likelihood and the
Jacobian is never computed.  The J term may be estimated on the first
ceil(N/r) samples of the (already shuffled) batch; that subsampling is the
documented estimator, and the reported jacobian_term is exactly the value
used in the loss.  One network pass serves all three terms: the volume node
reads the Jacobian scales of that pass's first rows.

A cross-entropy baseline (`softmaxce`) trains the same network with
mean -log softmax(logits)[y]; its curve rows are produced by fitting a
mixture to the current features by maximum likelihood at eval intervals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data as datamod
from . import mixtures as mx
from . import network as net
from . import optim
from . import rng as rngmod
from .checkpoint import Checkpoint

CURVE_HEADER = "step,cond_entropy,entropy,neg_log_jacobian,train_acc,test_acc"
# a softmaxce curve row fits its mixture to the features of this many leading training rows
CURVE_FIT_ROWS = 2000


@dataclass
class TrainConfig:
    method: str = "mass"              # "mass" or "softmaxce"
    beta: float = 1e-3
    lr: float = 5e-4
    variational_lr: float = 2.5e-5
    batch_size: int = 256
    steps: int = 1000
    optimizer: str = "adam"           # "adam" or "sgd_momentum"
    subsample_jacobian: bool = True
    jitter: float = net.JITTER_DEFAULT
    seed: int = 0
    eval_interval: int = 100
    mixture_components: int = 10
    mean_scale: float = 1.0
    clip_norm: float = 100.0
    curve_path: str | None = None

    def validate(self):
        if self.method not in ("mass", "softmaxce"):
            raise ValueError(f"method must be mass or softmaxce, got {self.method!r}")
        if self.optimizer not in ("adam", "sgd_momentum"):
            raise ValueError(f"optimizer must be adam or sgd_momentum, got {self.optimizer!r}")
        for key in ("beta", "lr", "variational_lr", "jitter", "mean_scale", "clip_norm"):
            value = getattr(self, key)
            if not np.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            if key in ("beta", "jitter") and value < 0:
                raise ValueError(f"{key} must be nonnegative, got {value}")
            if key in ("lr", "variational_lr", "clip_norm") and value <= 0:
                raise ValueError(f"{key} must be positive, got {value}")
        for key, low in (("batch_size", 1), ("steps", 0), ("eval_interval", 1),
                         ("mixture_components", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be at least {low}, got {getattr(self, key)}")


class TrainingDivergedError(RuntimeError):
    """A training step gave a non-finite loss, gradient norm, curve term or
    test-set class probability, a singular mixture factor, or a degenerate
    Jacobian in its loss sub-batch or curve row."""

    def __init__(self, step: int, term: str):
        super().__init__(f"training diverged at step {step}: {term}")
        self.step = step
        self.term = term


@dataclass
class LossBreakdown:
    total: float
    cond_entropy_term: float   # mean -log q(y|z)
    entropy_term: float        # mean -log q(z)
    jacobian_term: float       # mean log J_f on the (sub)batch; 0.0 when beta == 0


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def jacobian_subbatch_size(batch_size: int, output_dim: int) -> int:
    return _ceil_div(batch_size, output_dim)


def mass_minibatch_loss(net_params: net.MlpParams, mixture: mx.ClassConditionalMixture,
                        x: np.ndarray, y: np.ndarray, cfg: TrainConfig,
                        dropout_mask: net.DropoutMask | None = None,
                        update_running: bool = False):
    """One tape evaluation of the bound; returns (LossBreakdown, net grads, mixture grads)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    tape = ad.Tape()
    pnodes = net.make_param_nodes(tape, net_params)
    mnodes = mx.make_mixture_nodes(tape, mixture)

    scales = [] if cfg.beta != 0.0 else None
    out, _ = net.forward_nodes(tape, pnodes, net_params, tape.constant(x), mode="train",
                               dropout_mask=dropout_mask, update_running=update_running,
                               scales=scales)
    dens = mx.density_nodes(tape, mnodes, mixture, out, y)
    cond_term = ad.neg(ad.mean_all(dens.log_post_own))
    ent_term = ad.neg(ad.mean_all(dens.marginal))

    if cfg.beta != 0.0:
        r = net_params.config.output_dim
        n_sub = jacobian_subbatch_size(n, r) if cfg.subsample_jacobian else n
        jac_term = ad.mean_all(net.volume_node(pnodes, net_params, scales, n_sub, cfg.jitter))
        total = ad.add(cond_term, ad.sub(ad.mul(cfg.beta, ent_term), ad.mul(cfg.beta, jac_term)))
        jac_value = jac_term.item()
    else:
        total = cond_term
        jac_value = 0.0

    grads = ad.backward(total, list(pnodes.values()) + list(mnodes.values()))
    tape.release()
    net_grads = {name: grads[node] for name, node in pnodes.items()}
    mix_grads = {name: grads[node] for name, node in mnodes.items()}
    breakdown = LossBreakdown(total=total.item(), cond_entropy_term=cond_term.item(),
                              entropy_term=ent_term.item(), jacobian_term=jac_value)
    return breakdown, net_grads, mix_grads


def softmaxce_minibatch_loss(net_params: net.MlpParams, x: np.ndarray, y: np.ndarray,
                             dropout_mask: net.DropoutMask | None = None,
                             update_running: bool = False):
    """Cross entropy of softmax(logits); returns (loss value, net grads)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    tape = ad.Tape()
    pnodes = net.make_param_nodes(tape, net_params)
    out, _ = net.forward_nodes(tape, pnodes, net_params, tape.constant(x), mode="train",
                               dropout_mask=dropout_mask, update_running=update_running)
    loss = ad.mean_all(ad.sub(ad.logsumexp_rows(out), ad.take_per_row(out, y)))
    grads = ad.backward(loss, list(pnodes.values()))
    tape.release()
    return loss.item(), {name: grads[node] for name, node in pnodes.items()}


# ---------------------------------------------------------------------------
# prediction helpers


def softmax_probabilities(logits: np.ndarray) -> np.ndarray:
    shift = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - shift)
    return e / e.sum(axis=1, keepdims=True)


def predict_probabilities(ckpt: Checkpoint, features: np.ndarray) -> np.ndarray:
    """(N, C) class probabilities from normalized features."""
    z = net.forward_fast(ckpt.net, features, mode="eval")
    if ckpt.method == "mass":
        if ckpt.mixture is None:
            raise ValueError("mass checkpoint without a mixture")
        return mx.class_posterior(ckpt.mixture, z)
    return softmax_probabilities(z)


def _accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float((probs.argmax(axis=1) == labels).mean())


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    curve_rows: list
    amgm_violations: int = 0


def _format_row(step, cond, ent, jac, train_acc, test_acc) -> str:
    neg_log_j = -jac if np.isfinite(jac) else float("nan")
    vals = [cond, ent, neg_log_j, train_acc, test_acc]
    return str(step) + "," + ",".join(f"{v:.12g}" for v in vals)


def _eval_terms(net_params, mixture, x, y, z, cfg: TrainConfig):
    """Deterministic term estimates in eval mode on a fixed slice.

    z is the eval-mode forward of x.  Returns (cond, ent, jac,
    amgm_violation_count); jac is nan when the network output is wider than
    its input (no Jacobian exists then).
    """
    # the marginal from the one (N, C) matrix, as marginal_log_density forms it
    with np.errstate(divide="ignore"):
        scored = mx.class_log_density_matrix(mixture, z) + np.log(mixture.class_priors)
    marg = mx._logsumexp_rows(scored)
    post_own = scored[np.arange(len(y)), y] - marg
    cond_term = float(-post_own.mean())
    ent_term = float(-marg.mean())

    cfg_net = net_params.config
    if cfg_net.output_dim > cfg_net.input_dim:
        return cond_term, ent_term, float("nan"), 0
    n_sub = jacobian_subbatch_size(len(x), cfg_net.output_dim) if cfg.subsample_jacobian else len(x)
    jac = net.jacobian_batch(net_params, x[:n_sub], mode="eval")
    log_dets = net.half_logdet_gram(jac, cfg.jitter)
    slack = net.amgm_slack(jac, jitter=cfg.jitter)
    tol = 1e-9 * np.maximum(1.0, np.abs(2.0 * log_dets))
    violations = int((slack < -tol).sum())
    return cond_term, ent_term, float(log_dets.mean()), violations


def check_curve_fit_counts(labels: np.ndarray, n_classes: int, cfg: TrainConfig) -> None:
    """A softmaxce run writes curve rows by fitting mixture_components per
    class with mle_fit to the first CURVE_FIT_ROWS training rows; raise
    ValueError, naming the class, if some class has fewer rows there."""
    if cfg.method != "softmaxce" or cfg.steps == 0:
        return
    counts = np.bincount(labels[:CURVE_FIT_ROWS], minlength=n_classes)
    short = np.flatnonzero(counts < cfg.mixture_components)
    if short.size:
        c = int(short[0])
        raise ValueError(f"softmaxce: class {c} has {int(counts[c])} of the first "
                         f"{min(len(labels), CURVE_FIT_ROWS)} training rows, fewer than "
                         f"mixture_components={cfg.mixture_components} for the curve-row mixture fit")


def _check_batch_rows(n: int, net_config: net.MlpConfig, cfg: TrainConfig) -> None:
    """Raise ValueError if some training batch would have one row under
    batchnorm, whose train-mode variance over one row is 0: batch_size or n
    is 1, or the last batch of an epoch is one row and the run reaches it."""
    if not (net_config.use_batchnorm and net_config.hidden_dims) or cfg.steps == 0:
        return
    if min(n, cfg.batch_size) == 1 or (n % cfg.batch_size == 1
                                       and cfg.steps >= _ceil_div(n, cfg.batch_size)):
        raise ValueError(f"batch_size={cfg.batch_size} over {n} training rows gives a batch of "
                         "one row, which batchnorm cannot normalize")


def check_run(train_ds: datamod.Dataset, test_ds: datamod.Dataset | None,
              net_config: net.MlpConfig, cfg: TrainConfig) -> None:
    """Every rule a run must meet before step 1; raise ValueError naming the
    config key.  `train` calls it first, and the CLI before it writes a file."""
    cfg.validate()
    r, d, n_classes = net_config.output_dim, train_ds.dim, train_ds.n_classes
    if net_config.input_dim != d:
        raise ValueError(f"input_dim must equal the {d} feature columns of dataset, "
                         f"got {net_config.input_dim}")
    if cfg.method == "softmaxce" and r != n_classes:
        raise ValueError(f"representation_dim (output_dim) must equal the class count "
                         f"{n_classes} for softmaxce, got {r}")
    if cfg.method == "mass" and r > d:
        raise ValueError(f"representation_dim (output_dim) must not exceed the {d} feature "
                         f"columns of dataset for mass, got {r}")
    if test_ds is not None and test_ds.dim != d:
        raise ValueError(f"test_dataset must have the {d} feature columns of dataset, got {test_ds.dim}")
    if test_ds is not None and test_ds.n_classes > n_classes:
        raise ValueError(f"test_dataset must have at most the {n_classes} classes of dataset, "
                         f"got {test_ds.n_classes}")
    check_curve_fit_counts(train_ds.labels, n_classes, cfg)
    _check_batch_rows(train_ds.n, net_config, cfg)


def train(train_ds: datamod.Dataset, test_ds: datamod.Dataset | None,
          net_config: net.MlpConfig, cfg: TrainConfig) -> TrainResult:
    """Train a classifier; deterministic in cfg.seed.

    Writes curve rows (header `step,...`) at every eval_interval and at the
    final step.  Returns the final checkpoint carrying the normalization
    statistics of the training set.
    """
    check_run(train_ds, test_ds, net_config, cfg)
    n_classes = train_ds.n_classes
    if cfg.subsample_jacobian and cfg.batch_size < net_config.output_dim:
        warnings.warn("batch_size below output_dim: the subsampled J term averages a single sample")

    norm = datamod.normalize_fit(train_ds.features)
    train_x = datamod.normalize_apply(train_ds.features, norm)
    train_y = train_ds.labels
    if test_ds is not None:
        test_x = datamod.normalize_apply(test_ds.features, norm)
        test_y = test_ds.labels

    net_params = net.mlp_init(net_config, cfg.seed)
    mixture = None
    if cfg.method == "mass":
        mixture = mx.mixture_init(n_classes, cfg.mixture_components, net_config.output_dim,
                                  cfg.seed, mean_scale=cfg.mean_scale)
        mixture = mx.fit_priors(mixture, train_y)

    theta_state = optim.AdamState() if cfg.optimizer == "adam" else optim.MomentumState()
    phi_state = optim.AdamState() if cfg.optimizer == "adam" else optim.MomentumState()

    def step_params(params, grads, state, lr):
        if cfg.optimizer == "adam":
            return optim.adam_step(params, grads, state, lr)
        return optim.momentum_step(params, grads, state, lr)

    curve_rows: list[str] = []
    curve_fh = open(cfg.curve_path, "w") if cfg.curve_path else None
    if curve_fh:
        curve_fh.write(CURVE_HEADER + "\n")
    amgm_violations = 0
    eval_slice = slice(0, min(cfg.batch_size, train_ds.n))
    r_above_d = net_config.output_dim > net_config.input_dim
    fitted_eval_mix = None  # warm start for the softmaxce term curves

    def write_row(step):
        nonlocal amgm_violations, fitted_eval_mix
        # one forward of the training rows serves every term of the row
        train_z = net.forward_fast(net_params, train_x, mode="eval")
        if cfg.method == "mass":
            eval_mix = mixture
        else:
            cap = min(train_ds.n, CURVE_FIT_ROWS)
            fit_steps = 150 if fitted_eval_mix is None else 50
            fitted_eval_mix = mx.mle_fit(train_z[:cap], train_y[:cap], n_classes,
                                         cfg.mixture_components, steps=fit_steps,
                                         seed=cfg.seed, lr=0.02, init=fitted_eval_mix)
            eval_mix = fitted_eval_mix
        cond, ent, jac, viol = _eval_terms(net_params, eval_mix, train_x[eval_slice],
                                           train_y[eval_slice], train_z[eval_slice], cfg)
        # jac is nan by definition when r > d; any other non-finite term diverged
        if not np.isfinite([cond, ent, 0.0 if r_above_d else jac]).all():
            raise TrainingDivergedError(step, f"curve row terms cond_entropy={cond}, "
                                              f"entropy={ent}, neg_log_jacobian={-jac}")
        amgm_violations += viol
        if cfg.method == "mass":
            tr_probs = mx.class_posterior(eval_mix, train_z)
            te_probs = (mx.class_posterior(eval_mix, net.forward_fast(net_params, test_x, mode="eval"))
                        if test_ds is not None else None)
        else:
            tr_probs = softmax_probabilities(train_z)
            te_probs = (softmax_probabilities(net.forward_fast(net_params, test_x, mode="eval"))
                        if test_ds is not None else None)
        # test rows enter none of the terms checked above and can overflow on their own
        bad = datamod.first_non_finite_row(te_probs) if te_probs is not None else None
        if bad is not None:
            raise TrainingDivergedError(step, f"non-finite class probability at test set "
                                              f"sample index {bad}")
        tr_acc = _accuracy(tr_probs, train_y)
        te_acc = _accuracy(te_probs, test_y) if te_probs is not None else float("nan")
        row = _format_row(step, cond, ent, jac, tr_acc, te_acc)
        curve_rows.append(row)
        if curve_fh:
            curve_fh.write(row + "\n")
            curve_fh.flush()

    normalized = datamod.Dataset(train_ds.name, train_x, train_y, n_classes)
    step = 0
    epoch = 0
    try:
        while step < cfg.steps:
            for bx, by in datamod.batch_iterator(normalized, cfg.batch_size, cfg.seed, epoch):
                step += 1
                mask = net.sample_dropout_mask(net_config, rngmod.stream(cfg.seed, rngmod.DROPOUT, step))
                batch = "loss sub-batch"
                try:
                    if cfg.method == "mass":
                        breakdown, grads, mix_grads = mass_minibatch_loss(
                            net_params, mixture, bx, by, cfg, dropout_mask=mask, update_running=True)
                        loss = breakdown.total
                        grads.update(mix_grads)
                    else:
                        loss, grads = softmaxce_minibatch_loss(net_params, bx, by, dropout_mask=mask,
                                                               update_running=True)
                    grads, grad_norm = optim.clip_global_norm(grads, cfg.clip_norm)
                    for term, value in (("loss", loss), ("gradient norm before clipping", grad_norm)):
                        if not np.isfinite(value):
                            raise TrainingDivergedError(step, f"{term} is {value}")
                    net.set_param_arrays(net_params, step_params(
                        net.param_arrays(net_params), grads, theta_state, cfg.lr))
                    if mixture is not None:
                        mx.set_mixture_param_arrays(mixture, step_params(
                            mx.mixture_param_arrays(mixture), grads, phi_state, cfg.variational_lr))
                    if step % cfg.eval_interval == 0 or step == cfg.steps:
                        batch = "curve row"
                        write_row(step)
                except np.linalg.LinAlgError:
                    raise TrainingDivergedError(step, "a mixture covariance factor is singular") from None
                except net.DegenerateJacobianError as err:
                    raise TrainingDivergedError(step, f"{err} of the {batch}") from None
                if step >= cfg.steps:
                    break
            epoch += 1
    finally:
        if curve_fh:
            curve_fh.close()

    ckpt = Checkpoint(method=cfg.method, net=net_params, mixture=mixture, norm=norm,
                      n_classes=n_classes, steps_trained=cfg.steps)
    return TrainResult(checkpoint=ckpt, curve_rows=curve_rows, amgm_violations=amgm_violations)
