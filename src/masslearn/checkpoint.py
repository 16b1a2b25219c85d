"""Model checkpoint serialization.

A checkpoint bundles everything needed to reproduce predictions: the network
config and weights (including batchnorm running statistics), the variational
mixture when the method has one, the training-set normalization statistics,
and the method tag.  Files use the MASSCON1 container (see container.py);
array field order is the insertion order written below and round trips are
bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container
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


def load_checkpoint(path) -> Checkpoint:
    meta, arrays = container.read_container(path)
    if meta.get("kind") != "checkpoint":
        raise container.ContainerError(f"{path}: not a checkpoint")
    if meta.get("version") != FORMAT_VERSION:
        raise container.ContainerError(f"{path}: unsupported checkpoint version {meta.get('version')}")
    c = meta["mlp_config"]
    cfg = MlpConfig(input_dim=c["input_dim"], hidden_dims=tuple(c["hidden_dims"]),
                    output_dim=c["output_dim"], nonlinearity=c["nonlinearity"],
                    dropout_rate=c["dropout_rate"], use_batchnorm=c["use_batchnorm"])
    n_layers = len(cfg.hidden_dims) + 1
    weights = [arrays[f"net_w{li}"] for li in range(n_layers)]
    biases = [arrays[f"net_b{li}"] for li in range(n_layers)]
    bn_scale, bn_shift, bn_mean, bn_var = [], [], [], []
    if cfg.use_batchnorm:
        for li in range(len(cfg.hidden_dims)):
            bn_scale.append(arrays[f"net_bn_scale{li}"])
            bn_shift.append(arrays[f"net_bn_shift{li}"])
            bn_mean.append(arrays[f"net_bn_mean{li}"])
            bn_var.append(arrays[f"net_bn_var{li}"])
    net = MlpParams(cfg, weights, biases, bn_scale, bn_shift, bn_mean, bn_var)

    mixture = None
    if meta["has_mixture"]:
        mm = meta["mixture"]
        mixture = ClassConditionalMixture(
            n_classes=mm["n_classes"], n_components=mm["n_components"], dim=mm["dim"],
            means=arrays["mix_means"], chol_raw=arrays["mix_chol_raw"],
            weight_logits=arrays["mix_weight_logits"], class_priors=arrays["mix_class_priors"],
        )
    norm = None
    if meta["has_norm"]:
        norm = NormStats(mean=arrays["norm_mean"], std=arrays["norm_std"])
    return Checkpoint(method=meta["method"], net=net, mixture=mixture, norm=norm,
                      n_classes=meta["n_classes"], steps_trained=meta["steps_trained"])
