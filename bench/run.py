"""masslearn benchmark: end-to-end throughput and memory, plus a per-layer trace.

One run:   python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
All four:  python3 bench/run.py [--seed N] [--seconds S] [--label L]
           (one untraced and two traced runs of each workload, tracing
           overhead, beta_step_ratio; writes bench/out/BENCH_<label>.json)

Run from the root of a source checkout; the package is imported from `src/`.
A run repeats rounds until `--seconds` have passed (at least one round).
A round runs the workload's commands (train, eval, ood, cdi-demo; see
workloads.py) through `masslearn.cli.main` with the argv a user would type,
in two fresh processes: each runs cdi-demo, then one
trains and the other scores the checkpoint and repeats train's set-up (see
round_plan).
Every metric is the median of its samples over the run.

End-to-end metrics (`--trace 0`):
  setup_s             import plus what train, eval and ood do before their
                      first optimizer step or scored sample
  train_steps_per_s   optimizer steps per second of train after set-up, per
                      eval_interval window (its curve row included; the last
                      window also holds the checkpoint write)
  eval_samples_per_s  eval pool size / eval time after set-up
  ood_samples_per_s   in-pool plus out-pool size / ood time after set-up
  cdi_demo_s          time of cdi-demo, run twice first in each process
  peak_rss_mb         peak resident memory of the round's processes

`--trace 1` adds spans around calls into each module (spans.py), tape-node
counts and GC pauses, and runs the isolated layer units (units.py); it
prints the per-layer metrics instead.  layers.py says which end-to-end
metric each should move.

Output checks: every command exits 0 with an empty stderr, curves.csv is
finite, readme_tour's test accuracy is at least 0.95 of the Bayes oracle,
eval/ood reports are finite, and every cdi-demo verdict is `equal` for an
invertible map and `strict` for a folding one.  The last line of stdout is a
JSON object with `correct`, `attempted`, `failed` and `metrics`; the exit
code is 0 only when every check passed.  The sha256 of model.ckpt,
curves.csv and the reports is printed so that changed numerics show.

Times are CPU seconds of the benchmark's single-threaded worker processes
(see spans.py); a worker that ends with more than one thread fails the run.
BLAS runs one thread; the machine (nproc, MemTotal, BLAS and its threads,
versions, git sha) is printed with every result.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

from layers import MOVES  # noqa: E402
from workloads import COMMAND_KINDS, WORKLOADS, commands  # noqa: E402

SETUP_SAMPLES = 3          # train set-ups per round of an untraced run
RUN_DEADLINE_S = 170.0     # a run must end within 180 s
ORACLE_FLOOR = 0.95        # readme_tour test accuracy / Bayes oracle, as in the release gate
MEMORY_WARN_SHARE = 0.8
# per-layer counts that must read the same in every run of a workload
REPEATED_COUNTS = ("autodiff.tape_nodes", "autodiff.grad_nodes",
                   "network.log_jacobian_nodes.nodes", "mixtures.density_nodes.nodes",
                   "optim.arrays", "cdi.knn_entropy.calls")
# One BLAS thread (at most nproc): on two shared cores a second thread did not
# shorten a CIFAR-shaped step and made timings noisier.
BLAS_THREADS = 1
CDI_EXPECTED = {"identity": "equal", "scale2": "equal", "affine3": "equal", "cube": "equal",
                "xabs": "equal", "abs": "strict", "square": "strict", "absshift": "strict",
                "affine3(scale2)": "equal", "abs(scale2)": "strict", "xabs(abs)": "equal"}


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# machine


def mem_total_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # git must not look for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": nproc(), "cpu_count": os.cpu_count(),
            "mem_total_mb": round(mem_total_mb(), 1),
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(script: str, args: list, deadline: float) -> None:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH, script), *args],
                              env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{script} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or proc.stderr:
        raise CheckFailed(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")


# ---------------------------------------------------------------------------
# output checks


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_report(path: str) -> dict:
    with open(path) as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


def finite(value: str, what: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise CheckFailed(f"{what} is not finite: {value}")
    return x


@functools.cache
def bayes_floor(name: str) -> float:
    """ORACLE_FLOOR times the exact-rule accuracy for the workload's blob layout."""
    sys.path.insert(0, SRC)
    from masslearn import data
    s = WORKLOADS[name]["shape"]
    _, spec = data.gaussian_blobs(s["classes"], s["classes"], s["dim"], s["sep"], 0)
    return ORACLE_FLOOR * data.bayes_accuracy(spec, 200_000, seed=7)


def check_status(cmd: dict) -> None:
    """Exit 0 and an empty stderr; a set-up-only command stops before its exit code."""
    if cmd["raised"] or cmd["rc"] != (None if cmd["setup_only"] else 0) or cmd["stderr"]:
        raise CheckFailed(f"{cmd['kind']} failed (exit {cmd['rc']}, {cmd['raised']}): "
                          f"{cmd['stderr'].strip()[-2000:]}")


def check_artifacts(name: str, cmd: dict, out_dir: str) -> dict:
    """Validate one command's output files; returns its quality numbers and hashes."""
    kind = cmd["kind"]
    d = os.path.join(out_dir, kind)
    info = {}
    if kind == "train":
        with open(os.path.join(d, "curves.csv")) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for key, value in row.items():
                finite(value, f"curves.csv {key} at step {row['step']}")
        steps = int(WORKLOADS[name]["train"]["steps"])
        if not rows or int(rows[-1]["step"]) != steps or len(cmd["loss_s"]) != steps:
            raise CheckFailed(f"train ran {len(cmd['loss_s'])} of {steps} steps")
        info["test_acc"] = float(rows[-1]["test_acc"])
        if name == "readme_tour" and info["test_acc"] < bayes_floor(name):
            raise CheckFailed(f"test_acc {info['test_acc']:.4f} below the oracle floor "
                              f"{bayes_floor(name):.4f}")
        info["sha256"] = {"model.ckpt": sha256(os.path.join(d, "model.ckpt")),
                          "curves.csv": sha256(os.path.join(d, "curves.csv"))}
    elif kind in ("eval", "ood"):
        report = read_report(os.path.join(d, "report.txt"))
        for key, value in report.items():
            if key != "method":
                finite(value, f"{kind} report {key}")
        if kind == "eval":
            info["samples"] = int(report["n"])
        else:
            info["samples"] = int(report["n_in"]) + int(report["n_out"])
            info["ood_auroc"] = float(report["auroc"])
        info["sha256"] = {f"{kind}/report.txt": sha256(os.path.join(d, "report.txt"))}
    else:
        with open(os.path.join(d, "cdi.csv")) as fh:
            rows = list(csv.DictReader(fh))
        if [r["name"] for r in rows] != list(CDI_EXPECTED):
            raise CheckFailed(f"cdi.csv rows: {[r['name'] for r in rows]}")
        errors = []
        for r in rows:
            if r["verdict"] != CDI_EXPECTED[r["name"]]:
                raise CheckFailed(f"cdi-demo {r['name']}: verdict {r['verdict']}, "
                                  f"expected {CDI_EXPECTED[r['name']]}")
            estimate = finite(r["estimate"], f"cdi {r['name']} estimate")
            if r["reference"]:
                errors.append(abs(estimate - float(r["reference"])))
        info["cdi_max_abs_err"] = max(errors)
        info["sha256"] = {"cdi.csv": sha256(os.path.join(d, "cdi.csv"))}
    return info


# ---------------------------------------------------------------------------
# rounds


def train_windows(cmd: dict, interval: int) -> list:
    """Steps per second of each eval_interval window, which ends with its curve row."""
    starts = cmd["loss_start"] + [cmd["end"]]
    return [interval / (starts[i + interval] - starts[i])
            for i in range(0, len(starts) - 1, interval)]


def run_worker(out_dir: str, tag: str, cmds: list, trace: bool, deadline: float) -> dict:
    job = os.path.join(out_dir, f"{tag}.job.json")
    result = os.path.join(out_dir, f"{tag}.result.json")
    with open(job, "w") as fh:
        json.dump({"commands": cmds, "trace": trace}, fh)
    run_child("worker.py", [job, result], deadline)
    with open(result) as fh:
        return json.load(fh)


def round_plan(name: str, argv: dict, trace: bool) -> list:
    """Commands of each process of a round, as (kind, argv, set-up only).

    Each process starts with cdi-demo twice (the first run is what a user
    of a fresh process pays); samples in both processes, seconds apart, are
    steadier than samples in a row.  train runs alone in the first process:
    its tapes leave gigabytes of cyclic garbage that would slow whatever ran
    after it in the same process.  The second process scores the checkpoint, then repeats train's
    set-up (stopping at its first step, in another output directory) so that
    an untraced run measures train's set-up at least three times.
    """
    cdi = [("cdi-demo", argv["cdi-demo"], False)] * 2
    score = [(kind, argv[kind], False)
             for _ in range(WORKLOADS[name]["repeat"]) for kind in ("eval", "ood")]
    if not trace:
        probe = [a + "-probe" if a == argv["train"][2] else a for a in argv["train"]]
        score += [("train", probe, True)] * (SETUP_SAMPLES - 1)
    return [cdi + [("train", argv["train"], False)], cdi + score]


def run_round(name: str, seed: int, run_dir: str, tag: str, deadline: float, trace: bool) -> dict:
    """One round in fresh worker processes; checks its outputs and returns its samples."""
    out_dir = os.path.join(run_dir, tag)
    argv = commands(name, seed, os.path.join(out_dir, "cfg"), out_dir)
    procs = [run_worker(out_dir, f"p{i}", cmds, trace, deadline)
             for i, cmds in enumerate(round_plan(name, argv, trace))]
    cmds = [c for p in procs for c in p["commands"]]
    for c in cmds:
        check_status(c)
    if any(p["threads"] != 1 for p in procs):
        raise CheckFailed(f"workers ran {[p['threads'] for p in procs]} threads; with more "
                          "than one, CPU seconds are not wall seconds")
    runs = {kind: [c for c in cmds if c["kind"] == kind and not c["setup_only"]]
            for kind in COMMAND_KINDS}
    infos = {kind: check_artifacts(name, runs[kind][-1], out_dir) for kind in COMMAND_KINDS}
    interval = int(WORKLOADS[name]["train"]["eval_interval"])
    return {
        "commands": cmds,
        "import_s": [p["import_s"] for p in procs],
        "traces": [p["trace"] for p in procs],
        "hashes": {k: v for info in infos.values() for k, v in info.pop("sha256").items()},
        "quality": {"test_acc": infos["train"]["test_acc"],
                    "ood_auroc": infos["ood"]["ood_auroc"],
                    "cdi_max_abs_err": infos["cdi-demo"]["cdi_max_abs_err"]},
        "samples": {
            "train_steps_per_s": train_windows(runs["train"][0], interval),
            "eval_samples_per_s": [infos["eval"]["samples"] / (c["end"] - c["first_work"])
                                   for c in runs["eval"]],
            "ood_samples_per_s": [infos["ood"]["samples"] / (c["end"] - c["first_work"])
                                  for c in runs["ood"]],
            "cdi_demo_s": [c["end"] - c["start"] for c in runs["cdi-demo"]],
            "peak_rss_mb": [max(p["peak_rss_mb"] for p in procs)],
        },
    }


def setup_metrics(rounds: list) -> dict:
    """setup_s and its parts: medians over every set-up the run measured."""
    cmds = [c for r in rounds for c in r["commands"]]
    parts = {"import_s": statistics.median(v for r in rounds for v in r["import_s"]),
             "dataset_s": 0.0, "checkpoint_load_s": 0.0}
    setup = parts["import_s"]
    for kind in ("train", "eval", "ood"):
        of_kind = [c for c in cmds if c["kind"] == kind]
        if any(c["first_work"] is None for c in of_kind):
            raise CheckFailed(f"{kind} never reached its first step or scored sample")
        setup += statistics.median(c["first_work"] - c["start"] for c in of_kind)
        parts["dataset_s"] += statistics.median(c["dataset_s"] for c in of_kind)
        parts["checkpoint_load_s"] += statistics.median(c["checkpoint_load_s"] for c in of_kind)
    return {"setup_s": setup, "parts": parts}


def step_seconds(rounds: list, interval: int) -> float:
    """Median loss call plus median gap to the next step's loss call (the
    optimizer update); gaps that hold a curve row are left out."""
    loss, gaps = [], []
    for r in rounds:
        t = next(c for c in r["commands"] if c["kind"] == "train" and not c["setup_only"])
        loss += t["loss_s"]
        gaps += [t["loss_start"][i + 1] - t["loss_start"][i] - t["loss_s"][i]
                 for i in range(len(t["loss_s"]) - 1) if (i + 1) % interval]
    return statistics.median(loss) + (statistics.median(gaps) if gaps else 0.0)


def run_units(name: str, run_dir: str, deadline: float) -> dict:
    result = os.path.join(run_dir, "units.json")
    run_child("units.py", [name, result], deadline)
    with open(result) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# per-layer metrics


def one_value(values: list, what: str) -> int:
    """A count that must repeat exactly; 0 when the layer never ran."""
    if len(set(values)) > 1:
        raise CheckFailed(f"{what} differs between calls: {sorted(set(values))}")
    return values[0] if values else 0


def tail(samples: list) -> tuple:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(ordered) * (1.0 - pct / 100.0) >= 10:
            return pct, ordered[min(len(ordered) - 1, math.ceil(pct / 100.0 * len(ordered)) - 1)]
    return 100.0, ordered[-1]


def merged_trace(traces: list) -> dict:
    """One round's trace from its processes' traces."""
    out = {"self_s": defaultdict(float), "calls": defaultdict(int), "nodes": defaultdict(list),
           "gc_pause_s": defaultdict(float), "step_arrays": [], "loss_s": [],
           "rss_after_step": [], "step_backward_s": 0.0}
    for t in traces:
        for key in ("self_s", "calls", "gc_pause_s"):
            for k, v in t[key].items():
                out[key][k] += v
        for k, v in t["nodes"].items():
            out["nodes"][k] += v
        for key in ("step_arrays", "loss_s", "rss_after_step"):
            out[key] += t[key]
        out["step_backward_s"] += t["step_backward_s"]
    return out


def layer_metrics(rounds: list, units: dict) -> tuple:
    """Per-layer metrics, and the names of those taken from the units' trace."""
    from spans import LOSS_SPANS, SPANS
    traces = [merged_trace(r["traces"]) for r in rounds]
    unit_trace = units.pop("trace")
    steps = [len(t["loss_s"]) for t in traces]
    spans = [f"{mod}.{fn}" for mod, fn in SPANS + [("data", "batch_iterator")]
             if f"{mod}.{fn}" not in LOSS_SPANS]
    # a function the commands never call is timed as one call in the units
    from_units = [s for s in spans if not any(t["calls"].get(s) for t in traces)]
    per_round = {f"{s}.s": [t["self_s"].get(s, 0.0) for t in traces]
                 for s in spans if s not in from_units}
    per_round["autodiff.backward.s"] = [t["step_backward_s"] / n for t, n in zip(traces, steps)]
    per_round["process.import_s"] = [statistics.median(r["import_s"]) for r in rounds]
    per_round["process.gc_pause_s"] = [t["gc_pause_s"].get("train", 0.0) / n
                                       for t, n in zip(traces, steps)]
    per_round["process.rss_mb_after_step"] = [max(t["rss_after_step"]) for t in traces]
    out = {k: statistics.median(v) for k, v in per_round.items()}
    for s in from_units:
        if not unit_trace["calls"].get(s):
            raise CheckFailed(f"{s} ran neither in the commands nor in the units")
        out[f"{s}.s"] = unit_trace["self_s"][s] / unit_trace["calls"][s]
    for key in ("autodiff.tape_nodes", "autodiff.grad_nodes", "network.log_jacobian_nodes.nodes",
                "mixtures.density_nodes.nodes"):
        source = [unit_trace] if key.removesuffix(".nodes") in from_units else traces
        out[key] = one_value([v for t in source for v in t["nodes"].get(key, [])], key)
    out["optim.arrays"] = one_value([v for t in traces for v in t["step_arrays"]], "optim.arrays")
    out["cdi.knn_entropy.calls"] = one_value(
        [t["calls"].get("cdi.knn_entropy", 0) for t in traces], "cdi.knn_entropy calls per round")
    loss = [v for t in traces for v in t["loss_s"]]
    pct, value = tail(loss)
    out.update({"training.minibatch_loss.p50_s": statistics.median(loss),
                "training.minibatch_loss.tail_s": value,
                "training.minibatch_loss.tail_pct": pct,
                "training.minibatch_loss.samples": len(loss)})
    out.update(units)
    return out, [f"{s}.s" for s in from_units]


# ---------------------------------------------------------------------------
# one run


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds (and, traced, the layer units) of one workload; a failed check is recorded."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT)
    rounds, units, error, started = [], {}, None, 0
    start = time.monotonic()
    try:
        while not rounds or time.monotonic() - start < seconds:
            started += 1
            rounds.append(run_round(name, seed, run_dir, f"round{started}", deadline, trace))
        if trace:
            units = run_units(name, run_dir, deadline)
    except CheckFailed as e:
        error = str(e)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    # a failed check counts as one failed command of the round that ran it
    per_round = 5 + 2 * WORKLOADS[name]["repeat"]
    detail = {"workload": name, "seed": seed, "trace": trace, "error": error,
              "rounds": len(rounds), "attempted": per_round * started,
              "failed": 1 if error else 0}
    if error:
        return detail
    try:
        detail["samples"] = {k: [v for r in rounds for v in r["samples"][k]]
                             for k in rounds[0]["samples"]}
        detail["end_to_end"] = {k: statistics.median(v) for k, v in detail["samples"].items()}
        detail["quality"] = rounds[0]["quality"]
        detail["sha256"] = rounds[0]["hashes"]
        detail["sha256_stable"] = all(r["hashes"] == rounds[0]["hashes"] for r in rounds)
        detail["step_s"] = step_seconds(rounds, int(WORKLOADS[name]["train"]["eval_interval"]))
        detail["memory_warning"] = (max(detail["samples"]["peak_rss_mb"])
                                    > MEMORY_WARN_SHARE * mem_total_mb())
        if trace:
            detail["per_layer"], detail["from_units"] = layer_metrics(rounds, units)
        else:
            setup = setup_metrics(rounds)
            detail["end_to_end"]["setup_s"] = setup["setup_s"]
            detail["setup_parts"] = setup["parts"]
    except CheckFailed as e:
        detail["error"], detail["failed"] = str(e), 1
    return detail


def result_line(detail: dict, bench: dict) -> dict:
    specs = bench["per_layer"] if detail["trace"] else bench["end_to_end"]
    values = detail.get("per_layer" if detail["trace"] else "end_to_end", {})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs if m["name"] in values}
    return {"correct": detail["error"] is None, "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": metrics}


def print_detail(detail: dict, bench: dict) -> None:
    head = f"{detail['workload']} seed={detail['seed']} trace={int(detail['trace'])}"
    print(f"== {head}: {detail['rounds']} round(s)")
    if detail["error"]:
        print(f"CHECK FAILED: {detail['error']}")
    specs = bench["per_layer"] if detail["trace"] else bench["end_to_end"]
    values = detail.get("per_layer" if detail["trace"] else "end_to_end", {})
    for m in specs:
        if m["name"] in values:
            note = ""
            if detail["trace"]:
                unit = "one call in the units; " if m["name"] in detail["from_units"] else ""
                note = f"   ({unit}{MOVES[m['name']]})"
            print(f"  {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}{note}")
    if "setup_parts" in detail:
        parts = ", ".join(f"{k}={v:.4g}" for k, v in detail["setup_parts"].items())
        print(f"  setup breakdown (median s): {parts}")
    if "quality" in detail:
        q = detail["quality"]
        print(f"  quality: test_acc={q['test_acc']:.6g} ood_auroc={q['ood_auroc']:.6g} "
              f"cdi_max_abs_err={q['cdi_max_abs_err']:.6g} "
              f"error_rate={detail['failed'] / detail['attempted']:.3g}")
        for path, digest in detail["sha256"].items():
            print(f"  sha256 {path} {digest}")
        if not detail["sha256_stable"]:
            print("  note: artifact hashes differ between rounds of the same seed")
    if detail.get("memory_warning"):
        print(f"  warning: peak RSS above {MEMORY_WARN_SHARE:.0%} of MemTotal")


# ---------------------------------------------------------------------------
# all workloads


def run_all(seed: int, seconds: float, label: str, bench: dict) -> int:
    """Every workload untraced, then traced twice: tracing overhead, unchanged
    artifacts, counts that repeat between runs, beta_step_ratio, and
    BENCH_<label>.json under bench/out."""
    report = {"machine": machine(), "seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, trace=False)
        traced = run_workload(name, seed, seconds, trace=True)
        again = run_workload(name, seed, seconds, trace=True)
        for d in (plain, traced, again):
            print_detail(d, bench)
            ok = ok and d["error"] is None
        if not plain.get("sha256") == traced.get("sha256") == again.get("sha256"):
            print("  CHECK FAILED: tracing changed the artifacts")
            ok = False
        counts = [{k: d.get("per_layer", {}).get(k) for k in REPEATED_COUNTS}
                  for d in (traced, again)]
        if counts[0] != counts[1]:
            print(f"  CHECK FAILED: counts differ between traced runs: {counts}")
            ok = False
        if "end_to_end" in plain and "end_to_end" in traced:
            a = plain["end_to_end"]["train_steps_per_s"]
            b = traced["end_to_end"]["train_steps_per_s"]
            plain["trace_overhead"] = (a - b) / a
            print(f"  tracing overhead on train_steps_per_s: {plain['trace_overhead']:+.1%} "
                  f"({a:.4g} untraced, {b:.4g} traced)")
        report["workloads"][name] = {"untraced": plain, "traced": [traced, again]}
    step = {n: report["workloads"][n]["untraced"].get("step_s")
            for n in ("cifar_mass", "cifar_mass_beta0")}
    if all(step.values()):
        report["beta_step_ratio"] = step["cifar_mass"] / step["cifar_mass_beta0"]
        print(f"beta_step_ratio (step time, cifar_mass / cifar_mass_beta0): "
              f"{step['cifar_mass']:.4g} s / {step['cifar_mass_beta0']:.4g} s = "
              f"{report['beta_step_ratio']:.3f} (ROADMAP target <= 2)")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in report["machine"].items()))
    path = os.path.join(OUT, f"BENCH_{label}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics (all workloads: both kinds of run are made)")
    p.add_argument("--label", default="latest", help="all workloads: names BENCH_<label>.json")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "masslearn", "cli.py")):
        print(f"no masslearn sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_all(args.seed, seconds, args.label, bench)
    m = machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in m.items()))
    detail = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print_detail(detail, bench)
    line = result_line(detail, bench)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
