"""Model checkpoint serialization.

A checkpoint bundles everything needed to reproduce predictions: the network
config and weights (including batchnorm running statistics), the variational
mixture when the method has one, the training-set normalization statistics,
and the method tag.  Files use the MASSCON1 container (see container.py);
array field order is the insertion order written below and round trips are
bit-exact.  Loading checks each metadata field's type and each array's shape
against the config, and names the first one that is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container
from .container import _array, _field
from .data import NormStats
from .mixtures import ClassConditionalMixture, mixture_param_arrays
from .network import MlpConfig, MlpParams

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    method: str                                 # "mass" or "softmaxce"
    net: MlpParams
    mixture: ClassConditionalMixture | None
    norm: NormStats | None
    n_classes: int
    steps_trained: int = 0


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    cfg = ckpt.net.config
    meta = {
        "kind": "checkpoint",
        "version": FORMAT_VERSION,
        "method": ckpt.method,
        "n_classes": ckpt.n_classes,
        "steps_trained": ckpt.steps_trained,
        "mlp_config": {
            "input_dim": cfg.input_dim,
            "hidden_dims": list(cfg.hidden_dims),
            "output_dim": cfg.output_dim,
            "nonlinearity": cfg.nonlinearity,
            "dropout_rate": cfg.dropout_rate,
            "use_batchnorm": cfg.use_batchnorm,
        },
        "has_mixture": ckpt.mixture is not None,
        "has_norm": ckpt.norm is not None,
    }
    arrays: dict[str, np.ndarray] = {}
    for li, (w, b) in enumerate(zip(ckpt.net.weights, ckpt.net.biases)):
        arrays[f"net_w{li}"] = w
        arrays[f"net_b{li}"] = b
    for li in range(len(ckpt.net.bn_scale)):
        arrays[f"net_bn_scale{li}"] = ckpt.net.bn_scale[li]
        arrays[f"net_bn_shift{li}"] = ckpt.net.bn_shift[li]
        arrays[f"net_bn_mean{li}"] = ckpt.net.bn_mean[li]
        arrays[f"net_bn_var{li}"] = ckpt.net.bn_var[li]
    if ckpt.mixture is not None:
        mix = ckpt.mixture
        meta["mixture"] = {"n_classes": mix.n_classes, "n_components": mix.n_components,
                           "dim": mix.dim}
        arrays.update(mixture_param_arrays(mix))
        arrays["mix_class_priors"] = mix.class_priors
    if ckpt.norm is not None:
        arrays["norm_mean"] = ckpt.norm.mean
        arrays["norm_std"] = ckpt.norm.std
    container.write_container(path, meta, arrays)


def _mlp_config(path, meta: dict) -> MlpConfig:
    c = _field(path, meta, "mlp_config", dict)
    get = lambda key, kind: _field(path, c, key, kind, "mlp_config.")
    hidden = get("hidden_dims", list)
    if any(type(h) is not int for h in hidden):
        raise container.ContainerError(f"{path}: field 'mlp_config.hidden_dims' must be a list "
                                       "of integers")
    fields = dict(input_dim=get("input_dim", int), hidden_dims=tuple(hidden),
                  output_dim=get("output_dim", int), nonlinearity=get("nonlinearity", str),
                  dropout_rate=get("dropout_rate", float), use_batchnorm=get("use_batchnorm", bool))
    try:
        return MlpConfig(**fields)
    except ValueError as e:
        raise container.ContainerError(f"{path}: field 'mlp_config': {e}") from None


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at path; ContainerError, naming the field or array, for
    a malformed file or metadata of the wrong type, and for an array whose
    shape does not match the config."""
    meta, arrays = container.read_container(path)
    if meta.get("kind") != "checkpoint":
        raise container.ContainerError(f"{path}: not a checkpoint")
    if meta.get("version") != FORMAT_VERSION:
        raise container.ContainerError(f"{path}: unsupported checkpoint version {meta.get('version')}")
    method = _field(path, meta, "method", str)
    n_classes = _field(path, meta, "n_classes", int)
    steps_trained = _field(path, meta, "steps_trained", int)
    has_mixture = _field(path, meta, "has_mixture", bool)
    has_norm = _field(path, meta, "has_norm", bool)
    if method not in ("mass", "softmaxce"):
        raise container.ContainerError(f"{path}: field 'method' must be mass or softmaxce, "
                                       f"got {method!r}")
    for key, low in (("n_classes", 1), ("steps_trained", 0)):
        if meta[key] < low:
            raise container.ContainerError(f"{path}: field {key!r} must be at least {low}")
    if method == "mass" and not has_mixture:
        raise container.ContainerError(f"{path}: field 'has_mixture' is false for a mass checkpoint")
    cfg = _mlp_config(path, meta)
    if method == "softmaxce" and cfg.output_dim != n_classes:
        raise container.ContainerError(f"{path}: field 'n_classes' is {n_classes} for "
                                       f"{cfg.output_dim} softmax outputs")
    dims = cfg.layer_dims
    weights = [_array(path, arrays, f"net_w{li}", (dims[li + 1], dims[li]))
               for li in range(len(dims) - 1)]
    biases = [_array(path, arrays, f"net_b{li}", (dims[li + 1],)) for li in range(len(dims) - 1)]
    bn = [[_array(path, arrays, f"net_bn_{key}{li}", (h,)) for li, h in enumerate(cfg.hidden_dims)]
          if cfg.use_batchnorm else [] for key in ("scale", "shift", "mean", "var")]
    net = MlpParams(cfg, weights, biases, *bn)

    mixture = None
    if has_mixture:
        mm = _field(path, meta, "mixture", dict)
        get = lambda key: _field(path, mm, key, int, "mixture.")
        c, k, r = get("n_classes"), get("n_components"), get("dim")
        if c != n_classes or r != cfg.output_dim or k < 1:
            raise container.ContainerError(
                f"{path}: field 'mixture' has (n_classes, n_components, dim) = ({c}, {k}, {r}) "
                f"for a model of {n_classes} classes and output_dim {cfg.output_dim}")
        mixture = ClassConditionalMixture(
            n_classes=c, n_components=k, dim=r,
            means=_array(path, arrays, "mix_means", (c, k, r)),
            chol_raw=_array(path, arrays, "mix_chol_raw", (c, k, r, r)),
            weight_logits=_array(path, arrays, "mix_weight_logits", (c, k)),
            class_priors=_array(path, arrays, "mix_class_priors", (c,)),
        )
    norm = None
    if has_norm:
        norm = NormStats(mean=_array(path, arrays, "norm_mean", (cfg.input_dim,)),
                         std=_array(path, arrays, "norm_std", (cfg.input_dim,)))
    return Checkpoint(method=method, net=net, mixture=mixture, norm=norm,
                      n_classes=n_classes, steps_trained=steps_trained)
