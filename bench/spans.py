"""Timing hooks around calls into masslearn, installed from outside the package.

A function is hooked by replacing the module attribute through which its
callers reach it.  A `from x import f` binding is a second name for the same
object, so every masslearn module attribute that holds the original is
replaced: that is how `metrics.predict_probabilities`, `cli.load_checkpoint`
and `cli.save_checkpoint` get hooked.

`Boundaries` stamps command boundaries (first optimizer step, first scored
sample) with a handful of clock reads per step; both untraced and traced runs
install it.  `Tracer` adds the per-layer spans, tape-node counts and GC pauses
of a traced run.  A span's self time is its duration minus the time covered
by the spans it encloses.

Every duration the benchmark reports is read from `clock`, the CPU time of
the process.  The benchmark's processes run one thread (BLAS is pinned to
one, and every command runs single-threaded by default), so on an idle
machine CPU time equals wall time.  On a shared virtual machine it leaves
out the time the host gives the virtual CPU to others: a fixed 0.15 s numpy
kernel on a 2-vCPU VM spread 0.24 (quartile distance over median, 40 runs)
in wall time and 0.08 in CPU time.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import defaultdict
from time import process_time as clock

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def patch(module, name: str, make_wrapper):
    """Replace every masslearn binding of module.name with make_wrapper(original)."""
    original = getattr(module, name)
    wrapped = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "masslearn" or mod_name.startswith("masslearn."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    return wrapped


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


class SetupReached(BaseException):
    """Raised at a command's first step or scored sample in a setup probe.

    A BaseException, so the CLI's `except Exception` boundary lets it through.
    """


class Boundaries:
    """Per-command timestamps: start of real work, loss calls, setup pieces."""

    def __init__(self):
        self.reset(setup_only=False)

    def reset(self, setup_only: bool):
        self.setup_only = setup_only
        self.first_work = None
        self.loss_start: list[float] = []
        self.loss_s: list[float] = []
        self.dataset_s = 0.0
        self.checkpoint_load_s = 0.0

    def _mark(self):
        if self.first_work is None:
            self.first_work = clock()
            if self.setup_only:
                raise SetupReached

    def install(self, ml):
        def work_start(fn):
            def wrapped(*args, **kwargs):
                self._mark()
                return fn(*args, **kwargs)
            return wrapped

        def loss(fn):
            def wrapped(*args, **kwargs):
                self._mark()
                t = clock()
                self.loss_start.append(t)
                out = fn(*args, **kwargs)
                self.loss_s.append(clock() - t)
                return out
            return wrapped

        def accumulate(field):
            def make(fn):
                def wrapped(*args, **kwargs):
                    t = clock()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        setattr(self, field, getattr(self, field) + clock() - t)
                return wrapped
            return make

        patch(ml.training, "mass_minibatch_loss", loss)
        patch(ml.training, "softmaxce_minibatch_loss", loss)
        patch(ml.training, "predict_probabilities", work_start)   # eval
        patch(ml.metrics, "ood_scores", work_start)               # ood
        patch(ml.cli, "parse_dataset_spec", accumulate("dataset_s"))
        patch(ml.checkpoint, "load_checkpoint", accumulate("checkpoint_load_s"))


# (module, function) pairs that get a span in a traced run
SPANS = [
    ("autodiff", "backward"),
    ("network", "log_jacobian_nodes"), ("network", "forward_nodes"),
    ("network", "forward_fast"), ("network", "jacobian_batch"),
    ("mixtures", "density_nodes"), ("mixtures", "mle_fit"),
    ("mixtures", "class_log_density_matrix"),
    ("training", "mass_minibatch_loss"), ("training", "softmaxce_minibatch_loss"),
    ("optim", "adam_step"), ("optim", "clip_global_norm"),
    ("cdi", "knn_entropy"),
    ("metrics", "ood_scores"), ("metrics", "auroc"), ("metrics", "average_precision_ood"),
    ("checkpoint", "save_checkpoint"), ("checkpoint", "load_checkpoint"),
    ("cli", "parse_dataset_spec"),
]
LOSS_SPANS = ("training.mass_minibatch_loss", "training.softmaxce_minibatch_loss")


class Tracer:
    """Spans with self time, tape-node counts, GC pauses and RSS after each step."""

    def __init__(self):
        self.stack: list[list] = []        # [name, time covered by child spans]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.nodes = defaultdict(list)     # count name -> one value per call
        self.step_arrays: list[int] = []   # arrays Adam updated, per training step
        self.loss_s: list[float] = []      # inclusive duration of each loss span
        self.step_backward_s = 0.0         # backward self time inside loss spans
        self.rss_after_step: list[float] = []
        self.gc_pause_s = defaultdict(float)
        self.phase = ""
        self._gc_start = None

    def _in(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def _close(self, frame: list, dt: float) -> float:
        """Pop a span that lasted dt; returns its self time."""
        self.stack.pop()
        self_dt = dt - frame[1]
        self.self_s[frame[0]] += self_dt
        self.calls[frame[0]] += 1
        if self.stack:
            self.stack[-1][1] += dt
        return self_dt

    def _span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            before = self._before(name, args)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t
                self._after(name, args, before, dt, self._close(frame, dt))
        return wrapped

    def _batch_span(self, name: str, fn):
        """Span each `next` of a generator function; the caller may stop early."""
        def wrapped(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                self.stack.append(frame)
                t = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(frame, clock() - t)
                yield item
        return wrapped

    def _before(self, name, args):
        if name == "autodiff.backward":
            return len(args[0].tape.nodes)
        if name in ("network.log_jacobian_nodes", "mixtures.density_nodes"):
            return len(args[0].nodes)
        if name in LOSS_SPANS:
            self.step_arrays.append(0)
        elif name == "optim.adam_step" and self.step_arrays and not self._in("mixtures.mle_fit"):
            self.step_arrays[-1] += len(args[0])
        return None

    def _after(self, name, args, before, dt, self_dt):
        if name == "autodiff.backward":
            if any(self._in(s) for s in LOSS_SPANS):
                self.step_backward_s += self_dt
                self.nodes["autodiff.tape_nodes"].append(before)
                self.nodes["autodiff.grad_nodes"].append(len(args[0].tape.nodes) - before)
        elif name in ("network.log_jacobian_nodes", "mixtures.density_nodes"):
            self.nodes[name + ".nodes"].append(len(args[0].nodes) - before)
        elif name in LOSS_SPANS:
            self.loss_s.append(dt)

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = clock()
        elif self._gc_start is not None:
            self.gc_pause_s[self.phase] += clock() - self._gc_start
            self._gc_start = None

    def install(self, ml):
        for mod_name, fn_name in SPANS:
            name = f"{mod_name}.{fn_name}"
            patch(getattr(ml, mod_name), fn_name, lambda fn, name=name: self._span(name, fn))
        patch(ml.data, "batch_iterator", lambda fn: self._batch_span("data.batch_iterator", fn))

        def after_step(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.rss_after_step.append(current_rss_mb())
                return out
            return wrapped

        # the training loop calls this once per step, after the network update
        patch(ml.network, "set_param_arrays", after_step)
        gc.callbacks.append(self._gc)

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "nodes": dict(self.nodes),
                "step_arrays": self.step_arrays, "loss_s": self.loss_s,
                "step_backward_s": self.step_backward_s,
                "rss_after_step": self.rss_after_step, "gc_pause_s": dict(self.gc_pause_s)}
