"""Command line front end: train / eval / ood / cdi-demo.

Configuration comes from plain `key=value` files (one pair per line, `#`
starts a comment); the three flags `--config`, `--seed` and `--out` are
the whole flag surface.  Every run writes a `config.echo` file
holding the fully resolved configuration, which reparses to the same
values.  Exit codes: 0 success, 2 for configuration problems, 3 for
runtime failures; stderr stays empty on success (warnings go to stdout).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import cdi as cdimod
from . import data as datamod
from . import metrics
from . import network as net
from . import rng as rngmod
from . import training as tr
from .checkpoint import load_checkpoint, save_checkpoint
from .container import ContainerError


class ConfigError(Exception):
    pass


class NonFiniteOutputError(RuntimeError):
    """The model gave a non-finite probability or score for a sample whose
    features were finite: they overflow the network after normalization."""


# ---------------------------------------------------------------------------
# key=value parsing


def parse_kv_text(text: str, source: str = "<config>") -> dict:
    """Ordered {key: raw string value}; rejects malformed and duplicate keys."""
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{ln}: expected key=value, got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{source}:{ln}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{ln}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    path = os.path.abspath(path)
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r") as fh:
        return parse_kv_text(fh.read(), source=os.path.basename(path))


_REQUIRED = object()

# schema: key -> (default raw string or _REQUIRED, type tag)
TRAIN_SCHEMA = {
    "method": ("mass", "str"),
    "dataset": (_REQUIRED, "str"),
    "test_dataset": ("", "str"),
    "hidden": ("400,400", "str"),
    "representation_dim": ("", "str"),
    "nonlinearity": ("elu", "str"),
    "batchnorm": ("true", "bool"),
    "dropout": ("0.0", "float"),
    "beta": ("0.001", "float"),
    "lr": ("0.0005", "float"),
    "variational_lr": ("2.5e-05", "float"),
    "batch_size": ("256", "int"),
    "steps": ("1000", "int"),
    "optimizer": ("adam", "str"),
    "subsample_jacobian": ("true", "bool"),
    "jitter": ("1e-12", "float"),
    "eval_interval": ("100", "int"),
    "mixture_components": ("10", "int"),
    "mean_scale": ("1.0", "float"),
    "clip_norm": ("100.0", "float"),
}

EVAL_SCHEMA = {
    "checkpoint": (_REQUIRED, "str"),
    "dataset": (_REQUIRED, "str"),
}

OOD_SCHEMA = {
    "checkpoint": (_REQUIRED, "str"),
    "dataset_in": (_REQUIRED, "str"),
    "dataset_out": (_REQUIRED, "str"),
    "score": ("entropy", "str"),
}

CDI_DEMO_SCHEMA = {
    "n": ("20000", "int"),
    "k": ("3", "int"),
}


def _coerce(key: str, raw: str, kind: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}") from None


def resolve_config(raw: dict, schema: dict) -> dict:
    """Apply defaults, reject unknown keys, coerce types."""
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r}")
    resolved = {}
    for key, (default, kind) in schema.items():
        if key in raw:
            value = raw[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            value = default
        resolved[key] = _coerce(key, value, kind)
    return resolved


def _canonical(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config_echo(out_dir: str, command: str, resolved: dict) -> None:
    lines = [f"# resolved configuration for `{command}`"]
    lines += [f"{k}={_canonical(v)}" for k, v in resolved.items()]
    with open(os.path.join(out_dir, "config.echo"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# dataset specs


CIFAR_ENV = "MASSLEARN_CIFAR10_DIR"


def _spec_params(body: str, key: str, allowed: dict) -> dict:
    """Parse `a=1,b=2` with defaults; `allowed` maps name -> (default, kind)."""
    raw = {}
    if body:
        for part in body.split(","):
            if "=" not in part:
                raise ConfigError(f"{key}: expected name=value in dataset spec, got {part!r}")
            name, _, value = part.partition("=")
            name = name.strip()
            if name not in allowed:
                raise ConfigError(f"{key}: unknown dataset parameter {name!r}")
            raw[name] = value.strip()
    out = {}
    for name, (default, kind) in allowed.items():
        if name in raw:
            out[name] = _coerce(f"{key}.{name}", raw[name], kind)
        elif default is _REQUIRED:
            raise ConfigError(f"{key}: dataset spec needs {name}=...")
        else:
            out[name] = default
    return out


def parse_dataset_spec(spec: str, key: str) -> datamod.Dataset:
    """Build a dataset from `blobs:...`, `cifar10:...` or `cache:PATH`; it
    must have rows and columns, and every feature must be finite."""
    ds = _build_dataset(spec, key)
    if ds.n == 0 or ds.dim == 0:
        raise ConfigError(f"{key}: dataset is empty ({ds.n} rows, {ds.dim} feature columns)")
    row = datamod.first_non_finite_row(ds.features)
    if row is not None:
        raise ConfigError(f"{key}: non-finite feature in row {row}")
    return ds


def _build_dataset(spec: str, key: str) -> datamod.Dataset:
    if spec.startswith("blobs:") or spec == "blobs":
        body = spec[len("blobs:"):] if ":" in spec else ""
        p = _spec_params(body, key, {
            "n": (600, "int"), "classes": (3, "int"), "dim": (6, "int"),
            "sep": (4.0, "float"), "seed": (0, "int"), "shift": (0.0, "float"),
        })
        try:
            ds, _ = datamod.gaussian_blobs(p["n"], p["classes"], p["dim"], p["sep"],
                                           p["seed"], shift=p["shift"])
        except ValueError as e:
            raise ConfigError(f"{key}: {e}") from None
        return ds
    if spec.startswith("cifar10:") or spec == "cifar10":
        body = spec[len("cifar10:"):] if ":" in spec else ""
        p = _spec_params(body, key, {
            "dir": ("", "str"), "split": (_REQUIRED, "str"), "limit": (0, "int"),
        })
        directory = p["dir"] or os.environ.get(CIFAR_ENV, "")
        if not directory:
            raise ConfigError(f"{key}: cifar10 needs dir=... or the {CIFAR_ENV} environment variable")
        directory = os.path.abspath(directory)
        if not os.path.isdir(directory):
            raise ConfigError(f"{key}: cifar10 directory not found: {directory}")
        try:
            return datamod.load_cifar10(directory, p["split"], limit=p["limit"] or None)
        except (ValueError, OSError) as e:
            raise ConfigError(f"{key}: {e}") from None
    if spec.startswith("cache:"):
        path = os.path.abspath(spec[len("cache:"):])
        if not os.path.isfile(path):
            raise ConfigError(f"{key}: cached dataset not found: {path}")
        try:
            return datamod.load_dataset(path)
        except (ContainerError, ValueError) as e:
            raise ConfigError(f"{key}: {e}") from None
    raise ConfigError(f"{key}: unknown dataset spec {spec!r} (use blobs:, cifar10: or cache:)")


def _load_checkpoint_file(path: str):
    path = os.path.abspath(path)
    if not os.path.isfile(path):
        raise ConfigError(f"checkpoint: file not found: {path}")
    try:
        return load_checkpoint(path)
    except (ContainerError, ValueError, KeyError) as e:
        raise ConfigError(f"checkpoint: {e}") from None


def _check_dims(ckpt, ds: datamod.Dataset, key: str) -> None:
    if ds.dim != ckpt.net.config.input_dim:
        raise ConfigError(f"{key}: dataset has {ds.dim} features but the model expects "
                          f"{ckpt.net.config.input_dim}")


def _check_outputs(values: np.ndarray, key: str, what: str) -> None:
    row = datamod.first_non_finite_row(values)
    if row is not None:
        raise NonFiniteOutputError(f"{key}: non-finite {what} at sample index {row}")


def _normalized(ckpt, ds: datamod.Dataset) -> np.ndarray:
    """ds.features normalized in place: eval and ood own the dataset and
    never read its raw features again, so no second pool is held."""
    if ckpt.norm is not None:
        datamod._normalize(ds.features, ckpt.norm, out=ds.features)
    return ds.features


# ---------------------------------------------------------------------------
# commands


def _fmt_float(v: float) -> str:
    return f"{v:.17g}"


def _write_report(out_dir: str, items: list) -> str:
    path = os.path.join(out_dir, "report.txt")
    lines = [f"{k}={_fmt_float(v) if isinstance(v, float) else v}" for k, v in items]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return path


def _parse_hidden(raw: str) -> tuple:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"key 'hidden': expected comma-separated integers, got {raw!r}") from None


def cmd_train(args, out_dir: str) -> None:
    resolved = resolve_config(load_config(args.config), TRAIN_SCHEMA)
    train_ds = parse_dataset_spec(resolved["dataset"], "dataset")
    test_ds = (parse_dataset_spec(resolved["test_dataset"], "test_dataset")
               if resolved["test_dataset"] else None)

    try:
        # every TrainConfig field but seed and curve_path is the config key of its name
        train_config = tr.TrainConfig(
            **{f.name: resolved[f.name] for f in fields(tr.TrainConfig) if f.name in resolved},
            seed=args.seed, curve_path=os.path.join(out_dir, "curves.csv"))
        # a bad method is named as such, not as a missing representation_dim
        train_config.validate()
        rep_raw = resolved["representation_dim"]
        if not rep_raw and train_config.method == "mass":
            raise ConfigError("missing required config key 'representation_dim' (for method=mass)")
        rep_dim = _coerce("representation_dim", rep_raw, "int") if rep_raw else train_ds.n_classes
        net_config = net.MlpConfig(
            input_dim=train_ds.dim, hidden_dims=_parse_hidden(resolved["hidden"]),
            output_dim=rep_dim, nonlinearity=resolved["nonlinearity"],
            dropout_rate=resolved["dropout"], use_batchnorm=resolved["batchnorm"])
        tr.check_run(train_ds, test_ds, net_config, train_config)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    write_config_echo(out_dir, "train", resolved)
    try:
        result = tr.train(train_ds, test_ds, net_config, train_config)
    except datamod.NormalizationError as e:
        raise ConfigError(f"dataset: {e}") from None
    save_checkpoint(os.path.join(out_dir, "model.ckpt"), result.checkpoint)
    print(f"trained {train_config.method} for {train_config.steps} steps on {train_ds.name} "
          f"(n={train_ds.n}, d={train_ds.dim}, classes={train_ds.n_classes})")
    if result.curve_rows:
        print("final curve row: " + result.curve_rows[-1])
    if result.amgm_violations:
        print(f"warning: {result.amgm_violations} Jacobian Gram matrices violated the "
              "trace/determinant bound")
    print(f"artifacts written to {out_dir}")


def cmd_eval(args, out_dir: str) -> None:
    resolved = resolve_config(load_config(args.config), EVAL_SCHEMA)
    ckpt = _load_checkpoint_file(resolved["checkpoint"])
    ds = parse_dataset_spec(resolved["dataset"], "dataset")
    _check_dims(ckpt, ds, "dataset")
    if ds.n_classes > ckpt.n_classes:
        raise ConfigError(f"dataset: {ds.n_classes} classes but the model knows {ckpt.n_classes}")
    write_config_echo(out_dir, "eval", resolved)

    probs = tr.predict_probabilities(ckpt, _normalized(ckpt, ds))
    _check_outputs(probs, "dataset", "class probability")
    entropy = metrics.predictive_entropy(probs)
    _write_report(out_dir, [
        ("accuracy", metrics.accuracy(probs, ds.labels)),
        ("nll", metrics.nll(probs, ds.labels)),
        ("brier", metrics.brier(probs, ds.labels)),
        ("mean_entropy", float(entropy.mean())),
        ("n", ds.n),
    ])
    predicted = probs.argmax(axis=1)
    p_true = probs[np.arange(ds.n), ds.labels]
    with open(os.path.join(out_dir, "scores.csv"), "w") as fh:
        fh.write("index,label,predicted,p_true,entropy\n")
        for i in range(ds.n):
            fh.write(f"{i},{ds.labels[i]},{predicted[i]},{p_true[i]:.12g},{entropy[i]:.12g}\n")


def cmd_ood(args, out_dir: str) -> None:
    resolved = resolve_config(load_config(args.config), OOD_SCHEMA)
    ckpt = _load_checkpoint_file(resolved["checkpoint"])
    ds_in = parse_dataset_spec(resolved["dataset_in"], "dataset_in")
    ds_out = parse_dataset_spec(resolved["dataset_out"], "dataset_out")
    _check_dims(ckpt, ds_in, "dataset_in")
    _check_dims(ckpt, ds_out, "dataset_out")
    score_name = resolved["score"]
    try:
        scores_in = metrics.ood_scores(ckpt, _normalized(ckpt, ds_in), score_name)
        scores_out = metrics.ood_scores(ckpt, _normalized(ckpt, ds_out), score_name)
    except ValueError as e:
        raise ConfigError(f"score: {e}") from None
    write_config_echo(out_dir, "ood", resolved)
    _check_outputs(scores_in, "dataset_in", f"{score_name} score")
    _check_outputs(scores_out, "dataset_out", f"{score_name} score")

    _write_report(out_dir, [
        ("auroc", metrics.auroc(scores_in, scores_out)),
        ("apr_in", metrics.average_precision_ood(scores_in, scores_out, "in")),
        ("apr_out", metrics.average_precision_ood(scores_in, scores_out, "out")),
        ("n_in", ds_in.n),
        ("n_out", ds_out.n),
        ("method", score_name),
    ])
    with open(os.path.join(out_dir, "scores.csv"), "w") as fh:
        fh.write("split,index,score\n")
        for i, s in enumerate(scores_in):
            fh.write(f"in,{i},{s:.12g}\n")
        for i, s in enumerate(scores_out):
            fh.write(f"out,{i},{s:.12g}\n")


def cmd_cdi_demo(args, out_dir: str) -> None:
    resolved = resolve_config(load_config(args.config), CDI_DEMO_SCHEMA)
    n, k = resolved["n"], resolved["k"]
    if n < 1000:
        raise ConfigError(f"key 'n': need at least 1000 samples, got {n}")
    if k < 1:
        raise ConfigError(f"key 'k': must be at least 1, got {k}")
    if k >= n // 10:
        raise ConfigError(f"key 'k': the standard error re-estimates on 10 folds, so k must be "
                          f"below n // 10 = {n // 10}, got {k}")
    write_config_echo(out_dir, "cdi-demo", resolved)

    x = rngmod.stream(args.seed, "cdi-demo").normal(size=n)
    identity = cdimod.AnalyticMap("identity", lambda v: v, lambda v: np.zeros_like(v),
                                  True, cdimod.STD_NORMAL_ENTROPY)
    catalog = cdimod.analytic_map_catalog()
    estimates = {"identity": cdimod.map_cdi_estimate(identity, x, k=k)}
    for name, m in catalog.items():
        estimates[name] = cdimod.map_cdi_estimate(m, x, k=k)

    def row(name, est, reference, verdict):
        ref = "" if math.isnan(reference) else f"{reference:.12g}"
        return f"{name},{est.n},{est.k},{est.value:.12g},{est.stderr:.12g},{ref},{verdict}"

    base = estimates["identity"]
    rows = [row("identity", base, cdimod.STD_NORMAL_ENTROPY, "equal")]
    for name, m in catalog.items():
        rows.append(row(name, estimates[name], m.reference_cdi,
                        cdimod.dpi_verdict(base, estimates[name])))
    # post-processing pairs: an invertible follow-up conserves C, a folding
    # one must lose some; the composite of two folds shows equality again
    for inner_name, outer_name in (("scale2", "affine3"), ("scale2", "abs"), ("abs", "xabs")):
        composite = cdimod.compose(catalog[outer_name], catalog[inner_name])
        down = cdimod.map_cdi_estimate(composite, x, k=k)
        verdict = cdimod.dpi_verdict(estimates[inner_name], down)
        rows.append(row(composite.name, down, composite.reference_cdi, verdict))

    header = "name,n,k,estimate,stderr,reference,verdict"
    with open(os.path.join(out_dir, "cdi.csv"), "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows) + "\n")
    print(header)
    for line in rows:
        print(line)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masslearn",
        description="train and evaluate entropy-regularized classifiers, "
                    "and measure how much information maps conserve")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "train": "train a model and write model.ckpt / curves.csv",
        "eval": "score a checkpoint on a dataset (accuracy, nll, brier, entropy)",
        "ood": "in- vs out-of-distribution detection report",
        "cdi-demo": "estimate conserved information of analytic maps",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value configuration file")
        p.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
        p.add_argument("--out", required=True, help="output directory for artifacts")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command != "cdi-demo" and args.config is None:
        print(f"config error: {args.command} needs --config", file=sys.stderr)
        return 2
    out_dir = os.path.abspath(args.out)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        print(f"config error: cannot create output directory: {e}", file=sys.stderr)
        return 2
    handlers = {"train": cmd_train, "eval": cmd_eval, "ood": cmd_ood, "cdi-demo": cmd_cdi_demo}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            handlers[args.command](args, out_dir)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        except Exception as e:
            print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
            return 3
        finally:
            for w in caught:
                print(f"warning: {w.message}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
