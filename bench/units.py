"""Isolated layer units at a workload's shape: `python3 bench/units.py WORKLOAD RESULT`.

One `autodiff.backward` call covers every layer of a training step, so the
step cannot be split by layer from outside.  Each unit here builds a fresh
tape around one layer's public function and calls `backward` on it:

* network_fb: `network.forward_nodes` on one batch, then backward to the weights;
* mixture_fb: `mixtures.density_nodes` on one batch of representations (at
  the `mle_fit` size for cifar_softmaxce), backward to the mixture and to z;
* volume_fb: `network.log_jacobian_nodes` on the Jacobian sub-batch, with the
  batch statistics of the full batch as constants, backward to the weights;
* optimizer: `optim.clip_global_norm` plus `optim.adam_step` over every array
  a training step updates;
* knn_entropy: `cdi.knn_entropy` at the cdi-demo size (n=20000, k=3).

Each unit reports the median of its repetitions.  A cyclic collection runs
between repetitions, outside the timed region, so that each starts from the
same heap; tapes are reference cycles and would otherwise pile up.

The units run under the span tracer, followed by a short `mixtures.mle_fit`
at the mixture unit's size.  Their spans stand in for a function that the
workload's commands never call: the volume term at beta=0 or under
softmaxce, and `mle_fit` outside softmaxce.
"""

import gc
import json
import statistics
import sys

import numpy as np

import masslearn
import masslearn.cli  # noqa: F401  (loads every module the tracer hooks)
from masslearn import autodiff as ad
from masslearn import cdi, mixtures as mx, network as net, optim, training as tr

from spans import Tracer, clock
from workloads import WORKLOADS

MLE_FIT_CAP = 2000  # training.train refits softmaxce curve mixtures on this many rows
MLE_FIT_STEPS = 5


def _timed(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        gc.collect()
        t = clock()
        fn()
        times.append(clock() - t)
    return statistics.median(times)


def measure(name: str) -> dict:
    """Unit medians, and the units' trace under "trace"."""
    tracer = Tracer()
    tracer.install(masslearn)
    w = WORKLOADS[name]
    cfg = w["train"]
    dim, classes = w["shape"]["dim"], w["shape"]["classes"]
    batch = int(cfg["batch_size"])
    r = int(cfg["representation_dim"])
    k = int(cfg["mixture_components"])
    hidden = tuple(int(h) for h in cfg["hidden"].split(","))
    gen = np.random.default_rng(0)
    params = net.mlp_init(net.MlpConfig(dim, hidden, r, use_batchnorm=True), seed=0)
    x = gen.normal(size=(batch, dim))
    mixture = mx.mixture_init(classes, k, r, seed=0)
    n_mix = min(w["n_train"], MLE_FIT_CAP) if cfg.get("method") == "softmaxce" else batch
    z = gen.normal(size=(n_mix, r))
    y = np.arange(n_mix) % classes
    _, stats = net.forward_fast(params, x, mode="train", return_stats=True)
    x_sub = x[:tr.jacobian_subbatch_size(batch, r)]

    def network_fb():
        tape = ad.Tape()
        pnodes = net.make_param_nodes(tape, params)
        out, _ = net.forward_nodes(tape, pnodes, params, tape.constant(x), mode="train")
        ad.backward(ad.mean_all(out), list(pnodes.values()))

    def mixture_fb():
        tape = ad.Tape()
        mnodes = mx.make_mixture_nodes(tape, mixture)
        z_leaf = tape.leaf(z)
        dens = mx.density_nodes(tape, mnodes, mixture, z_leaf, y)
        ad.backward(ad.neg(ad.mean_all(dens.log_post_own)), list(mnodes.values()) + [z_leaf])

    def volume_fb():
        tape = ad.Tape()
        pnodes = net.make_param_nodes(tape, params)
        logdets = net.log_jacobian_nodes(tape, pnodes, params, tape.leaf(x_sub), mode="train",
                                         batch_stats=stats)
        total = logdets[0]
        for ld in logdets[1:]:
            total = ad.add(total, ld)
        ad.backward(total, list(pnodes.values()))

    arrays = net.param_arrays(params)
    if cfg.get("method") != "softmaxce":
        arrays.update(mx.mixture_param_arrays(mixture))
    grads = {name: gen.normal(size=a.shape) for name, a in arrays.items()}
    state = optim.AdamState()

    def optimizer():
        clipped, _ = optim.clip_global_norm(grads, 100.0)
        optim.adam_step(arrays, clipped, state, 1e-3)

    samples = np.random.default_rng(1).normal(size=20000)
    heavy = dim > 100  # a CIFAR-shaped volume rep takes seconds and gigabytes
    out = {
        "unit.network_fb.s": _timed(network_fb, 3 if heavy else 10),
        "unit.mixture_fb.s": _timed(mixture_fb, 3 if heavy else 10),
        "unit.volume_fb.s": _timed(volume_fb, 2 if heavy else 10),
        "unit.optimizer.s": _timed(optimizer, 10),
        "unit.knn_entropy.s": _timed(lambda: cdi.knn_entropy(samples, k=3), 5),
    }
    mx.mle_fit(z, y, classes, k, steps=MLE_FIT_STEPS, seed=0)
    out["trace"] = tracer.summary()
    return out


if __name__ == "__main__":
    result = measure(sys.argv[1])
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
