"""The benchmark's workloads, each a fixed sequence of `masslearn` commands.

Every workload runs the four commands a user runs after one another:
`train`, `eval` and `ood` on the trained checkpoint, and `cdi-demo`, because
every end-to-end metric is reported for every workload.  The short ones run
several times per round so that their medians are steady: `eval` and `ood`
`repeat` times, `cdi-demo` four times.  The datasets are synthetic `blobs`
specs whose seeds are derived from the workload seed, so nothing is
downloaded and the same seed gives the same inputs.  The command configs are
the `key=value` files a user would write.

Why each workload exists:

* readme_tour: the README quick start, cut to 200 steps.  Arrays are tiny,
  so per-op Python and tape overhead, import time and the k-NN entropy
  estimator dominate, not BLAS.  Its test accuracy is checked against the
  Bayes oracle.
* cifar_mass: the CIFAR-shaped `mass` config at beta=1e-3.  The volume term
  (Jacobian log-determinant and its double backward) is most of a step.
  Two steps per process: its tapes are freed only by a cyclic collection,
  so resident memory grows by gigabytes per step after the second.
* cifar_mass_beta0: the same shape at beta=0, which bypasses the volume
  term; the network, the mixture head and the optimizer carry the cost.
* cifar_softmaxce: the cross-entropy baseline at the same shape.  Its one
  curve row refits a C=K=10 mixture with `mixtures.mle_fit` over all 1024
  training features (150 Adam steps), which dominates its time, so mixture
  code is measured at four times the training batch with no network behind
  it.  Its checkpoint has no mixture, so `ood` uses the `entropy` score,
  the only one it supports.
"""

from __future__ import annotations

import os

COMMAND_KINDS = ("train", "eval", "ood", "cdi-demo")
CIFAR_SHAPE = {"classes": 10, "dim": 3072, "sep": 4.0}
README_SHAPE = {"classes": 3, "dim": 2, "sep": 4.0}

_CIFAR_TRAIN = {
    "hidden": "400,200",
    "representation_dim": "15",
    "mixture_components": "10",
    "batch_size": "256",
    "batchnorm": "true",
}

# name -> what differs between the workloads; every other setting is shared
WORKLOADS = {
    "readme_tour": {
        "shape": README_SHAPE,
        "n_train": 1536, "n_test": 600, "n_eval": 150000, "n_ood": 150000, "ood_shift": 2.0,
        "train": {"hidden": "16", "representation_dim": "2", "mixture_components": "3",
                  "beta": "0.001", "lr": "5e-3", "variational_lr": "2e-2",
                  "batch_size": "64", "steps": "200", "eval_interval": "25"},
        "score": "marginal_q", "repeat": 3,
    },
    "cifar_mass": {
        "shape": CIFAR_SHAPE,
        "n_train": 2560, "n_test": 1000, "n_eval": 10000, "n_ood": 5000, "ood_shift": 1.0,
        "train": {**_CIFAR_TRAIN, "beta": "0.001", "steps": "2", "eval_interval": "2"},
        "score": "marginal_q", "repeat": 3,
    },
    "cifar_mass_beta0": {
        "shape": CIFAR_SHAPE,
        "n_train": 2560, "n_test": 1000, "n_eval": 10000, "n_ood": 5000, "ood_shift": 1.0,
        "train": {**_CIFAR_TRAIN, "beta": "0.0", "steps": "30", "eval_interval": "10"},
        "score": "marginal_q", "repeat": 2,
    },
    "cifar_softmaxce": {
        "shape": CIFAR_SHAPE,
        "n_train": 1024, "n_test": 1000, "n_eval": 10000, "n_ood": 5000, "ood_shift": 1.0,
        "train": {**_CIFAR_TRAIN, "method": "softmaxce", "representation_dim": "10",
                  "steps": "10", "eval_interval": "10"},
        "score": "entropy", "repeat": 2,
    },
}


def blob_spec(shape: dict, n: int, seed: int, shift: float = 0.0) -> str:
    spec = (f"blobs:n={n},classes={shape['classes']},dim={shape['dim']},"
            f"sep={shape['sep']},seed={seed}")
    return spec + (f",shift={shift}" if shift else "")


def data_seeds(seed: int) -> dict:
    """Distinct dataset seeds derived from the workload seed."""
    base = 10 * seed
    return {"train": base + 1, "test": base + 2, "eval": base + 3, "ood_in": base + 4,
            "ood_out": base + 5}


def _write_cfg(path: str, items: dict) -> str:
    with open(path, "w") as fh:
        fh.write("".join(f"{k}={v}\n" for k, v in items.items()))
    return path


def commands(name: str, seed: int, cfg_dir: str, out_dir: str) -> dict:
    """argv of each command kind, with its config written into cfg_dir.

    Outputs go to out_dir/<kind>; eval and ood read the checkpoint that the
    train command writes there.
    """
    w = WORKLOADS[name]
    shape = w["shape"]
    seeds = data_seeds(seed)
    os.makedirs(cfg_dir, exist_ok=True)
    checkpoint = os.path.join(out_dir, "train", "model.ckpt")
    configs = {
        "train": {"dataset": blob_spec(shape, w["n_train"], seeds["train"]),
                  "test_dataset": blob_spec(shape, w["n_test"], seeds["test"]),
                  **w["train"]},
        "eval": {"checkpoint": checkpoint,
                 "dataset": blob_spec(shape, w["n_eval"], seeds["eval"])},
        "ood": {"checkpoint": checkpoint,
                "dataset_in": blob_spec(shape, w["n_ood"], seeds["ood_in"]),
                "dataset_out": blob_spec(shape, w["n_ood"], seeds["ood_out"], w["ood_shift"]),
                "score": w["score"]},
    }
    out = {}
    for kind in COMMAND_KINDS:
        argv = [kind, "--out", os.path.join(out_dir, kind), "--seed", str(seed)]
        if kind in configs:
            argv += ["--config", _write_cfg(os.path.join(cfg_dir, f"{kind}.cfg"), configs[kind])]
        out[kind] = argv
    return out
