import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from masslearn import cdi
from masslearn import checkpoint
from masslearn import cli
from masslearn import container
from masslearn import data as datamod
from masslearn import metrics
from masslearn import mixtures as mx
from masslearn import network as net
from masslearn import training as tr
from masslearn.checkpoint import load_checkpoint

import helpers

BLOBS = "blobs:n=48,classes=3,dim=4,sep=4.0,seed=0"


def _write(path, text):
    path.write_text(text)
    return str(path)


def _train_cfg(tmp_path, extra="", name="train.cfg", steps=4):
    base = (
        f"dataset={BLOBS}\n"
        "hidden=6\n"
        "representation_dim=2\n"
        "batch_size=16\n"
        f"steps={steps}\n"
        "eval_interval=2\n"
        "mixture_components=2\n"
    )
    return _write(tmp_path / name, base + extra)


def test_parse_kv_text_comments_and_errors():
    parsed = cli.parse_kv_text("# full line\n a = 1 \nb=two # tail comment\n\nc=3")
    assert parsed == {"a": "1", "b": "two", "c": "3"}
    with pytest.raises(cli.ConfigError, match=":2"):
        cli.parse_kv_text("a=1\nnot a pair")
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.parse_kv_text("a=1\na=2")


def test_resolve_config_rejects_unknown_and_missing():
    with pytest.raises(cli.ConfigError, match="'betaa'"):
        cli.resolve_config({"betaa": "1"}, cli.TRAIN_SCHEMA)
    with pytest.raises(cli.ConfigError, match="'dataset'"):
        cli.resolve_config({}, cli.TRAIN_SCHEMA)
    resolved = cli.resolve_config({"dataset": "blobs:", "beta": "0.5"}, cli.TRAIN_SCHEMA)
    assert resolved["beta"] == 0.5
    assert resolved["steps"] == 1000  # default filled in


# a value survives the parser if it holds no '#' (which starts a comment),
# stays on one line and has no surrounding whitespace (which is stripped)
_VALUE_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#"),
                      max_size=12).map(str.strip)
_TYPED_VALUES = {
    "int": st.integers(-10**12, 10**12),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "str": _VALUE_TEXT,
}
_TRAIN_CONFIGS = st.fixed_dictionaries(
    {key: _TYPED_VALUES[kind] for key, (_, kind) in cli.TRAIN_SCHEMA.items()})
_COMMENT_LINES = st.one_of(st.just(""), st.just("   "),
                           _VALUE_TEXT.map(lambda text: "# " + text),
                           _VALUE_TEXT.map(lambda text: "  #" + text + "#"))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None,
          max_examples=40)
@given(resolved=_TRAIN_CONFIGS, data=st.data())
def test_config_echo_reparses_to_the_same_values(tmp_path, resolved, data):
    cli.write_config_echo(str(tmp_path), "train", resolved)
    lines = (tmp_path / "config.echo").read_text().splitlines()
    assert cli.resolve_config(cli.parse_kv_text("\n".join(lines)), cli.TRAIN_SCHEMA) == resolved

    # comment and blank lines anywhere, and trailing comments, change nothing
    noisy = []
    for line in lines:
        noisy += data.draw(st.lists(_COMMENT_LINES, max_size=2))
        noisy.append(line + data.draw(st.sampled_from(["", " # note", "#"])))
    parsed = cli.parse_kv_text("\n".join(noisy))
    assert cli.resolve_config(parsed, cli.TRAIN_SCHEMA) == resolved

    # a repeated key is rejected at the line that repeats it
    repeated = data.draw(st.sampled_from(sorted(parsed)))
    first = next(i for i, line in enumerate(noisy) if line.startswith(repeated + "="))
    at = data.draw(st.integers(first + 1, len(noisy)))
    dup = noisy[:at] + [f"{repeated}=1"] + noisy[at:]
    with pytest.raises(cli.ConfigError, match=f"^<config>:{at + 1}: duplicate key '{repeated}'$"):
        cli.parse_kv_text("\n".join(dup))

    # a key outside the schema is rejected by name
    unknown = data.draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(
        lambda key: key not in cli.TRAIN_SCHEMA))
    with pytest.raises(cli.ConfigError, match=f"unknown config key '{unknown}'"):
        cli.resolve_config(cli.parse_kv_text("\n".join(noisy + [f"{unknown}=1"])), cli.TRAIN_SCHEMA)


def test_train_writes_artifacts(tmp_path, capsys):
    cfg = _train_cfg(tmp_path)
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", cfg, "--out", str(out), "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    for artifact in ("model.ckpt", "curves.csv", "config.echo"):
        assert (out / artifact).is_file(), artifact
    lines = (out / "curves.csv").read_text().splitlines()
    assert lines[0] == "step,cond_entropy,entropy,neg_log_jacobian,train_acc,test_acc"
    assert len(lines) == 3  # rows at steps 2 and 4
    ckpt = load_checkpoint(str(out / "model.ckpt"))
    assert ckpt.method == "mass"
    assert ckpt.steps_trained == 4


def test_config_echo_roundtrip(tmp_path):
    cfg = _train_cfg(tmp_path, extra="beta=0.01\ndropout=0.1\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    original = cli.resolve_config(cli.load_config(cfg), cli.TRAIN_SCHEMA)
    echoed = cli.resolve_config(cli.load_config(str(out / "config.echo")), cli.TRAIN_SCHEMA)
    assert echoed == original


def test_train_zero_steps_header_only(tmp_path, capsys):
    cfg = _train_cfg(tmp_path, steps=0)
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert (out / "curves.csv").read_text() == tr.CURVE_HEADER + "\n"


def test_unknown_key_is_exit_2_and_names_it(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.cfg", f"dataset={BLOBS}\nbetaa=1\n")
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "betaa" in captured.err


def test_missing_dataset_path_names_key(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.cfg",
                 "dataset=cache:/nowhere/missing.bin\nrepresentation_dim=2\n")
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "dataset" in captured.err and "missing.bin" in captured.err


def test_non_finite_features_are_exit_2_and_name_the_row(tmp_path, capsys):
    ds, _ = datamod.gaussian_blobs(48, 3, 4, 4.0, 0)
    ds.features[3, 1] = np.nan
    path = tmp_path / "nan.bin"
    datamod.save_dataset(path, ds)
    train_cfg = _write(tmp_path / "train.cfg", f"dataset=cache:{path}\nrepresentation_dim=2\n")
    rc = cli.main(["train", "--config", train_cfg, "--out", str(tmp_path / "t")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "dataset: non-finite feature in row 3" in err

    ckpt_path = _quick_checkpoint(tmp_path)
    capsys.readouterr()
    eval_cfg = _write(tmp_path / "eval.cfg", f"checkpoint={ckpt_path}\ndataset=cache:{path}\n")
    rc = cli.main(["eval", "--config", eval_cfg, "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "dataset: non-finite feature in row 3" in err


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_first_non_finite_row_is_named(tmp_path, bad):
    ds, _ = datamod.gaussian_blobs(48, 3, 4, 4.0, 0)
    ds.features[7, 2] = bad
    ds.features[30, 0] = -bad
    path = tmp_path / "bad.bin"
    datamod.save_dataset(path, ds)
    with pytest.raises(cli.ConfigError, match="dataset: non-finite feature in row 7$"):
        cli.parse_dataset_spec(f"cache:{path}", "dataset")


@pytest.mark.parametrize("features", [np.zeros((0, 4)), np.zeros((5, 0))])
def test_empty_dataset_is_exit_2_and_names_the_key(tmp_path, capsys, features):
    path = tmp_path / "empty.bin"
    datamod.save_dataset(path, datamod.Dataset("empty", features,
                                                np.zeros(len(features), np.int64), 3))
    train_cfg = _write(tmp_path / "train.cfg",
                       f"dataset=cache:{path}\nrepresentation_dim=2\nsteps=1\n")
    rc = cli.main(["train", "--config", train_cfg, "--out", str(tmp_path / "t")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (f"config error: dataset: dataset is empty ({features.shape[0]} rows, "
                            f"{features.shape[1]} feature columns)\n")
    assert captured.out == ""


def test_overflowing_feature_statistics_are_exit_2_without_a_warning(tmp_path, capsys):
    cfg = _write(tmp_path / "big.cfg", "dataset=blobs:n=300,classes=3,dim=4,sep=1e300\n"
                 "representation_dim=2\nhidden=6\nbatch_size=64\nsteps=1\n")
    out = tmp_path / "o"
    rc = cli.main(["train", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ("config error: dataset: feature column 0 has a non-finite "
                            "standard deviation\n")
    assert captured.out == ""
    assert not (out / "curves.csv").exists()


def test_softmaxce_class_too_small_for_the_curve_fit_is_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path / "small.cfg",
                 "dataset=blobs:n=27,classes=3,dim=4,seed=1\nmethod=softmaxce\nhidden=6\n"
                 "steps=5\neval_interval=5\nbatch_size=9\n")
    out = tmp_path / "o"
    rc = cli.main(["train", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: softmaxce: class 0 has 9 of the first 27 training rows")
    assert "mixture_components=10" in err
    assert not (out / "model.ckpt").exists()


def test_malformed_container_files_are_exit_2(tmp_path, capsys):
    header = b"[]"
    path = tmp_path / "list_header.bin"
    path.write_bytes(b"MASSCON1" + len(header).to_bytes(8, "little") + header)
    train_cfg = _write(tmp_path / "train.cfg", f"dataset=cache:{path}\nrepresentation_dim=2\n")
    assert cli.main(["train", "--config", train_cfg, "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith("config error: dataset: ")
    eval_cfg = _write(tmp_path / "eval.cfg", f"checkpoint={path}\ndataset={BLOBS}\n")
    assert cli.main(["eval", "--config", eval_cfg, "--out", str(tmp_path / "e")]) == 2
    assert capsys.readouterr().err.startswith("config error: checkpoint: ")
    # a well-formed container whose dataset metadata lacks a key
    container.write_container(path, {"kind": "dataset"}, {})
    assert cli.main(["train", "--config", train_cfg, "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith("config error: dataset: ")


# One edit of a valid checkpoint: a metadata field (a key path) removed or
# set to a value of another JSON type, or an array removed, reshaped or
# stored as int64.  eval and ood must then stop with exit 2 and name it.
_CKPT_FIELDS = [("method",), ("n_classes",), ("steps_trained",), ("has_mixture",), ("has_norm",),
                ("mlp_config",), ("mixture",), ("mlp_config", "hidden_dims", 0),
                *[("mlp_config", key) for key in ("input_dim", "hidden_dims", "output_dim",
                                                  "nonlinearity", "dropout_rate", "use_batchnorm")],
                *[("mixture", key) for key in ("n_classes", "n_components", "dim")]]
_CKPT_ARRAYS = ["net_w0", "net_b0", "net_w1", "net_b1", "net_bn_scale0", "net_bn_shift0",
                "net_bn_mean0", "net_bn_var0", "mix_means", "mix_chol_raw", "mix_weight_logits",
                "mix_class_priors", "norm_mean", "norm_std"]
_FIELD_VALUES = st.sampled_from(["missing", None, "3", 2.5, True, 4, [], ["a"], {"x": 1}])
_CKPT_EDITS = st.one_of(
    st.tuples(st.just("field"), st.sampled_from(_CKPT_FIELDS), _FIELD_VALUES),
    st.tuples(st.just("array"), st.sampled_from(_CKPT_ARRAYS),
              st.sampled_from(["missing", "shape", "dtype"])))


def _write_valid_checkpoint(path):
    params = net.mlp_init(net.MlpConfig(4, (5,), 2, use_batchnorm=True), seed=0)
    norm = datamod.NormStats(mean=np.zeros(4), std=np.ones(4))
    checkpoint.save_checkpoint(path, checkpoint.Checkpoint(
        method="mass", net=params, mixture=mx.mixture_init(3, 2, 2, seed=1), norm=norm,
        n_classes=3, steps_trained=5))


def _edit_container(path, edit):
    """Apply one edit to the checkpoint or dataset cache at path; returns the
    name the error must carry."""
    meta, arrays = container.read_container(path)
    kind, where, change = edit
    if kind == "array":
        if change == "missing":
            del arrays[where]
        elif change == "shape":
            arrays[where] = arrays[where][..., None]
        elif change == "rows":
            arrays[where] = arrays[where][1:]
        else:  # the other stored dtype
            arrays[where] = arrays[where].astype(np.float64 if arrays[where].dtype == np.int64
                                                 else np.int64)
        name = where
    else:
        *keys, last = where
        holder = meta
        for key in keys:
            holder = holder[key]
        old = holder[last]
        if change == "missing" and type(last) is str:
            del holder[last]
        else:
            # a value of the field's own JSON type (or an integer for a number) is no type error
            assume(type(change) is not type(old) and not (type(old) is float and type(change) is int))
            holder[last] = change
        name = ".".join(k for k in where if type(k) is str)
    container.write_container(path, meta, arrays)
    return name


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None,
          max_examples=60)
@given(edit=_CKPT_EDITS)
@example(edit=("field", ("mlp_config",), ["a"]))
@example(edit=("field", ("n_classes",), "3"))
@example(edit=("field", ("has_mixture",), "missing"))
def test_checkpoint_with_one_bad_field_is_exit_2(tmp_path, capsys, edit):
    path = tmp_path / "model.ckpt"
    _write_valid_checkpoint(path)
    name = _edit_container(path, edit)
    for command, cfg in _eval_and_ood_configs(tmp_path, path).items():
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("config error: checkpoint: ") and repr(name) in err, (command, err)


def _eval_and_ood_configs(tmp_path, path):
    texts = {"eval": f"checkpoint={path}\ndataset={BLOBS}\n",
             "ood": f"checkpoint={path}\ndataset_in={BLOBS}\ndataset_out={BLOBS}\nscore=max_q\n"}
    return {command: _write(tmp_path / f"{command}.cfg", text) for command, text in texts.items()}


def test_valid_checkpoint_for_the_edits_loads(tmp_path, capsys):
    # the unedited checkpoint behind the test above evaluates and scores
    path = tmp_path / "model.ckpt"
    _write_valid_checkpoint(path)
    for command, cfg in _eval_and_ood_configs(tmp_path, path).items():
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0, command
        assert capsys.readouterr().err == ""


# The same edits of a valid dataset cache, and (as an example) labels one
# row short of the features.
_CACHE_EDITS = st.one_of(
    st.tuples(st.just("field"), st.sampled_from([("name",), ("n_classes",), ("version",)]),
              _FIELD_VALUES),
    st.tuples(st.just("array"), st.sampled_from(["features", "labels"]),
              st.sampled_from(["missing", "shape", "dtype"])))


def _save_blobs_cache(path):
    datamod.save_dataset(path, datamod.gaussian_blobs(48, 3, 4, 4.0, 0)[0])


def _assert_train_on_cache_is_exit_2(tmp_path, capsys, path, name):
    cfg = _write(tmp_path / "train.cfg", f"dataset=cache:{path}\nrepresentation_dim=2\n")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dataset: ") and repr(name) in err, err


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None,
          max_examples=40)
@given(edit=_CACHE_EDITS)
@example(edit=("field", ("n_classes",), "3"))
@example(edit=("field", ("name",), [1]))
@example(edit=("array", "labels", "dtype"))
@example(edit=("array", "labels", "rows"))
def test_dataset_cache_with_one_bad_field_is_exit_2(tmp_path, capsys, edit):
    path = tmp_path / "blobs.bin"
    _save_blobs_cache(path)
    _assert_train_on_cache_is_exit_2(tmp_path, capsys, path, _edit_container(path, edit))


@pytest.mark.parametrize("key,value", [("n_classes", 0), ("version", 2)])
def test_dataset_cache_field_out_of_range_is_exit_2(tmp_path, capsys, key, value):
    path = tmp_path / "blobs.bin"
    _save_blobs_cache(path)
    meta, arrays = container.read_container(path)
    meta[key] = value
    container.write_container(path, meta, arrays)
    _assert_train_on_cache_is_exit_2(tmp_path, capsys, path, key)


@pytest.mark.parametrize("key,value,why", helpers.OUT_OF_RANGE)
def test_out_of_range_training_values_are_exit_2(tmp_path, capsys, key, value, why):
    out = tmp_path / "o"
    rc = cli.main(["train", "--config", _train_cfg(tmp_path, f"{key}={value}\n"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be {why}")
    assert not (out / "model.ckpt").exists()


def test_one_row_batch_under_batchnorm_is_exit_2(tmp_path, capsys):
    # 129 rows in batches of 64: the third batch of each epoch is one row
    base = "dataset=blobs:n=129,classes=3\nhidden=6\nrepresentation_dim=2\nbatch_size=64\n"
    out = tmp_path / "o"
    rc = cli.main(["train", "--config", _write(tmp_path / "a.cfg", base + "steps=3\n"),
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: batch_size=64 over 129 training rows")
    assert not (out / "model.ckpt").exists()
    for extra in ("steps=2\n", "steps=3\nbatchnorm=false\n"):
        assert cli.main(["train", "--config", _write(tmp_path / "b.cfg", base + extra),
                         "--out", str(out)]) == 0


_RULE_BASE = ("dataset=blobs:n=120,classes=3,dim=4,seed=1\nhidden=6\nbatch_size=16\nsteps=3\n"
              "mixture_components=2\n")
# one broken run rule each: the config lines, then the TrainConfig fields and
# the MlpConfig output_dim of the same run (40 rows per class; 120 % 119
# leaves a one-row batch)
_BROKEN_RULES = [
    ("method=foo\nrepresentation_dim=2", dict(method="foo"), 2),
    ("lr=0\nrepresentation_dim=2", dict(lr=0.0), 2),
    ("method=softmaxce\nrepresentation_dim=4", dict(method="softmaxce"), 4),
    ("representation_dim=5", {}, 5),
    ("method=softmaxce\nmixture_components=41", dict(method="softmaxce", mixture_components=41), 3),
    ("representation_dim=2\nbatch_size=119", dict(batch_size=119), 2),
    ("representation_dim=2\ntest_dataset=blobs:n=60,classes=3,dim=5,seed=2", {}, 2),
    ("representation_dim=2\ntest_dataset=blobs:n=60,classes=5,dim=4,seed=2", {}, 2),
]


def _rule_run(tmp_path, lines):
    """The _RULE_BASE config with `lines` replacing its keys: (keys, config path)."""
    raw = {**cli.parse_kv_text(_RULE_BASE), **cli.parse_kv_text(lines)}
    return raw, _write(tmp_path / "run.cfg", "".join(f"{k}={v}\n" for k, v in raw.items()))


@pytest.mark.parametrize("lines,train_fields,output_dim", _BROKEN_RULES)
def test_each_run_rule_reads_the_same_from_train_and_the_cli(tmp_path, capsys, monkeypatch,
                                                             lines, train_fields, output_dim):
    raw, cfg_path = _rule_run(tmp_path, lines)
    train_ds = cli.parse_dataset_spec(raw["dataset"], "dataset")
    test_ds = (cli.parse_dataset_spec(raw["test_dataset"], "test_dataset")
               if "test_dataset" in raw else None)
    net_config = net.MlpConfig(4, (6,), output_dim, use_batchnorm=True)
    cfg = tr.TrainConfig(**{"batch_size": 16, "steps": 3, "mixture_components": 2, **train_fields})
    with monkeypatch.context() as m:
        m.setattr(datamod, "normalize_fit", lambda *a: pytest.fail("the features were normalized"))
        with pytest.raises(ValueError) as caught:
            tr.train(train_ds, test_ds, net_config, cfg)
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {caught.value}\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize("lines,why", [
    ("representation_dim=0", "output_dim must be positive, got 0"),
    ("representation_dim=2\nhidden=0", "hidden_dims must be positive, got 0"),
    ("representation_dim=2\nhidden=-3", "hidden_dims must be positive, got -3"),
    ("representation_dim=2\ndropout=1", "dropout_rate must be in [0, 1), got 1.0"),
    ("representation_dim=2\nnonlinearity=relu", "nonlinearity must be elu or identity, got 'relu'"),
])
def test_network_config_errors_name_the_field_and_value(tmp_path, capsys, lines, why):
    out = tmp_path / "o"
    assert cli.main(["train", "--config", _rule_run(tmp_path, lines)[1], "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {why}\n"
    assert os.listdir(out) == []


def test_mass_beta_zero_and_softmaxce_both_run(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = _train_cfg(tmp_path, extra="beta=0.0\n", name="a.cfg")
    cfg_b = _write(tmp_path / "b.cfg",
                   f"dataset={BLOBS}\nmethod=softmaxce\nhidden=6\nbatch_size=16\n"
                   "steps=4\neval_interval=2\nmixture_components=1\n")
    assert cli.main(["train", "--config", cfg_a, "--out", str(out_a), "--seed", "5"]) == 0
    assert cli.main(["train", "--config", cfg_b, "--out", str(out_b), "--seed", "5"]) == 0
    bytes_a = (out_a / "model.ckpt").read_bytes()
    bytes_b = (out_b / "model.ckpt").read_bytes()
    assert bytes_a != bytes_b


def test_train_is_bit_reproducible(tmp_path):
    cfg = _train_cfg(tmp_path, extra="dropout=0.2\n")
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    assert cli.main(["train", "--config", cfg, "--out", str(out_a), "--seed", "3"]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(out_b), "--seed", "3"]) == 0
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()
    assert (out_a / "curves.csv").read_text() == (out_b / "curves.csv").read_text()


def _quick_checkpoint(tmp_path, extra="", seed="1", steps=4):
    cfg = _train_cfg(tmp_path, extra=extra, name="for_ckpt.cfg", steps=steps)
    out = tmp_path / "ckpt_run"
    assert cli.main(["train", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
    return str(out / "model.ckpt")


def test_eval_report_schema_and_values(tmp_path, capsys):
    ckpt_path = _quick_checkpoint(tmp_path)
    cfg = _write(tmp_path / "eval.cfg", f"checkpoint={ckpt_path}\ndataset={BLOBS}\n")
    out = tmp_path / "eval_out"
    rc = cli.main(["eval", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    report = dict(line.split("=", 1) for line in
                  (out / "report.txt").read_text().splitlines())
    assert list(report) == ["accuracy", "nll", "brier", "mean_entropy", "n"]
    assert report["n"] == "48"

    # report values must match the metrics functions to full precision
    ckpt = load_checkpoint(ckpt_path)
    ds, _ = datamod.gaussian_blobs(48, 3, 4, 4.0, 0)
    probs = tr.predict_probabilities(ckpt, datamod.normalize_apply(ds.features, ckpt.norm))
    assert abs(float(report["accuracy"]) - metrics.accuracy(probs, ds.labels)) <= 1e-12
    assert abs(float(report["nll"]) - metrics.nll(probs, ds.labels)) <= 1e-12
    assert abs(float(report["brier"]) - metrics.brier(probs, ds.labels)) <= 1e-12
    scores = (out / "scores.csv").read_text().splitlines()
    assert scores[0] == "index,label,predicted,p_true,entropy"
    assert len(scores) == 49


def test_eval_dim_mismatch_is_exit_2(tmp_path, capsys):
    ckpt_path = _quick_checkpoint(tmp_path)
    cfg = _write(tmp_path / "eval.cfg",
                 f"checkpoint={ckpt_path}\ndataset=blobs:n=30,classes=3,dim=5,sep=4.0,seed=0\n")
    rc = cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "features" in captured.err


def test_eval_fresh_init_ten_classes_near_uniform(tmp_path):
    # an untrained model should be close to ignorant: nll about log 10
    blobs10 = "blobs:n=400,classes=10,dim=6,sep=4.0,seed=0"
    cfg = _write(tmp_path / "t.cfg",
                 f"dataset={blobs10}\nhidden=8\nrepresentation_dim=2\nsteps=0\n"
                 "mean_scale=0.25\n")
    out = tmp_path / "init_run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    ecfg = _write(tmp_path / "e.cfg",
                  f"checkpoint={out / 'model.ckpt'}\ndataset={blobs10}\n")
    eout = tmp_path / "eval_out"
    assert cli.main(["eval", "--config", ecfg, "--out", str(eout)]) == 0
    report = dict(line.split("=", 1) for line in
                  (eout / "report.txt").read_text().splitlines())
    assert abs(float(report["nll"]) - math.log(10.0)) < 0.05


def test_ood_same_dataset_is_chance(tmp_path, capsys):
    ckpt_path = _quick_checkpoint(tmp_path)
    cfg = _write(tmp_path / "ood.cfg",
                 f"checkpoint={ckpt_path}\ndataset_in={BLOBS}\ndataset_out={BLOBS}\n"
                 "score=entropy\n")
    out = tmp_path / "ood_out"
    rc = cli.main(["ood", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    report = dict(line.split("=", 1) for line in
                  (out / "report.txt").read_text().splitlines())
    assert list(report) == ["auroc", "apr_in", "apr_out", "n_in", "n_out", "method"]
    assert abs(float(report["auroc"]) - 0.5) <= 0.02
    assert report["method"] == "entropy"
    scores = (out / "scores.csv").read_text().splitlines()
    assert scores[0] == "split,index,score"
    assert len(scores) == 1 + 48 + 48


def test_ood_shifted_blobs_density_score(tmp_path):
    ckpt_path = _quick_checkpoint(tmp_path, steps=40)
    shifted = BLOBS + ",shift=10.0"
    cfg = _write(tmp_path / "ood.cfg",
                 f"checkpoint={ckpt_path}\ndataset_in={BLOBS}\ndataset_out={shifted}\n"
                 "score=max_q\n")
    out = tmp_path / "ood_out"
    assert cli.main(["ood", "--config", cfg, "--out", str(out)]) == 0
    report = dict(line.split("=", 1) for line in
                  (out / "report.txt").read_text().splitlines())
    assert float(report["auroc"]) >= 0.99
    assert float(report["apr_in"]) >= 0.99


def test_ood_density_score_needs_mixture(tmp_path, capsys):
    cfg_train = _write(tmp_path / "sm.cfg",
                       f"dataset={BLOBS}\nmethod=softmaxce\nhidden=6\nsteps=2\n"
                       "batch_size=16\nmixture_components=1\n")
    out = tmp_path / "sm_run"
    assert cli.main(["train", "--config", cfg_train, "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = _write(tmp_path / "ood.cfg",
                 f"checkpoint={out / 'model.ckpt'}\ndataset_in={BLOBS}\n"
                 f"dataset_out={BLOBS},shift=9.0\nscore=max_q\n")
    rc = cli.main(["ood", "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "mle_fit" in captured.err and "entropy" in captured.err


def test_cdi_demo_rows_and_determinism(tmp_path, capsys):
    cfg = _write(tmp_path / "cdi.cfg", "n=2000\nk=3\n")
    out_a, out_b = tmp_path / "ca", tmp_path / "cb"
    assert cli.main(["cdi-demo", "--config", cfg, "--out", str(out_a), "--seed", "2"]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(["cdi-demo", "--config", cfg, "--out", str(out_b), "--seed", "2"]) == 0
    text = (out_a / "cdi.csv").read_text()
    assert text == (out_b / "cdi.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "name,n,k,estimate,stderr,reference,verdict"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["scale2"][5].startswith("1.4189385332")
    assert rows["scale2"][6] == "equal"
    assert rows["abs"][6] == "strict"
    assert rows["abs(scale2)"][6] == "strict"
    assert rows["affine3(scale2)"][6] == "equal"
    # a different seed draws different samples
    out_c = tmp_path / "cc"
    assert cli.main(["cdi-demo", "--config", cfg, "--out", str(out_c), "--seed", "3"]) == 0
    assert (out_c / "cdi.csv").read_text() != text


def test_cdi_demo_writes_every_closed_form_reference(tmp_path, capsys):
    # a nan reference is written as an empty cell, so a reference broken to
    # nan would pass unseen; only a fold after an invertible map has none
    cfg = _write(tmp_path / "cdi.cfg", "n=1000\nk=3\n")
    assert cli.main(["cdi-demo", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    catalog = cdi.analytic_map_catalog()
    expected = {"identity": cdi.STD_NORMAL_ENTROPY,
                **{name: m.reference_cdi for name, m in catalog.items()}}
    for inner, outer in (("scale2", "affine3"), ("scale2", "abs"), ("abs", "xabs")):
        composite = cdi.compose(catalog[outer], catalog[inner])
        expected[composite.name] = composite.reference_cdi
    rows = [line.split(",") for line in (tmp_path / "c" / "cdi.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == list(expected)
    for name, *_, reference, _ in rows:
        if name == "abs(scale2)":
            assert reference == ""
        else:
            assert math.isfinite(expected[name]), name
            assert reference == f"{expected[name]:.12g}", name


@pytest.mark.parametrize("n,k", [(1000, 100), (1000, 150), (1999, 199)])
def test_cdi_demo_k_must_leave_each_fold_more_than_k_samples(tmp_path, capsys, n, k):
    cfg = _write(tmp_path / "cdi.cfg", f"n={n}\nk={k}\n")
    assert cli.main(["cdi-demo", "--config", cfg, "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'k': ") and f"n // 10 = {n // 10}, got {k}" in err


def test_missing_config_flag_is_exit_2(tmp_path, capsys):
    rc = cli.main(["train", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--config" in captured.err


def test_warnings_go_to_stdout(tmp_path, capsys):
    cfg = _write(tmp_path / "w.cfg",
                 f"dataset={BLOBS}\nhidden=\nrepresentation_dim=2\nbatch_size=1\n"
                 "steps=1\nmixture_components=1\n")
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert "warning:" in captured.out


README_BLOBS_CFG = (
    "dataset=blobs:n=1536,classes=3,dim=2,sep=4.0,seed=31\n"
    "test_dataset=blobs:n=600,classes=3,dim=2,sep=4.0,seed=32\n"
    "hidden=16\nrepresentation_dim=2\nmixture_components=3\nbeta=0.001\n"
    "batch_size=64\nsteps=2000\neval_interval=500\n"
)


def test_divergent_training_is_exit_3_and_names_the_step(tmp_path, capsys):
    cfg = _write(tmp_path / "train.cfg", README_BLOBS_CFG + "lr=1e3\nvariational_lr=1e3\n")
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run"), "--seed", "11"])
    err = capsys.readouterr().err
    assert rc == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("error: TrainingDivergedError: training diverged at step ")


def test_degenerate_jacobian_in_training_is_exit_3_and_names_the_step(tmp_path, capsys):
    cfg = _write(tmp_path / "train.cfg",
                 "dataset=blobs:n=600,classes=3,dim=4,seed=1\nhidden=8\nrepresentation_dim=3\n"
                 "mixture_components=3\nlr=1e6\nsteps=200\nbatch_size=64\neval_interval=25\n")
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run"), "--seed", "0"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == ("error: TrainingDivergedError: training diverged at step 2: "
                   "degenerate Jacobian at sample index 4 of the loss sub-batch\n")


def test_sgd_momentum_optimizer_trains(tmp_path, capsys):
    cfg = _train_cfg(tmp_path, extra="optimizer=sgd_momentum\nlr=1e-2\nvariational_lr=1e-2\n")
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "run" / "curves.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:3])


# the values of each train key that the README documents or that make a valid
# run, and the edge values; huge values only for rates and scales, and every
# size small enough that no example allocates much memory
_FUZZ_VALID = {
    "method": ["mass", "softmaxce"],
    "hidden": ["", "6", "16", "8,4", "400,400", "400,200"],
    "nonlinearity": ["elu", "identity"],
    "batchnorm": ["true", "false", "1", "0", "yes", "no"],
    "dropout": ["0.0", "0.2", "0.5"],
    "beta": ["0.001", "0.0", "1.0"],
    "lr": ["0.0005", "0.005", "0.01"],
    "variational_lr": ["2.5e-05", "0.01"],
    "batch_size": ["2", "16", "64", "256"],
    "steps": ["0", "1", "2", "3"],
    "optimizer": ["adam", "sgd_momentum"],
    "subsample_jacobian": ["true", "false"],
    "jitter": ["1e-12", "0", "1e-08"],
    "eval_interval": ["1", "2", "100"],
    "mixture_components": ["1", "2", "3", "10"],
    "mean_scale": ["1.0", "0.25", "0"],
    "clip_norm": ["100.0", "1.0"],
}
# (spec, classes, feature columns); the valid test_dataset and
# representation_dim values follow from the drawn dataset
_FUZZ_DATASETS = [("blobs:n=120,classes=3,dim=4,seed=1", 3, 4),
                  ("blobs:n=48,classes=2,dim=3,seed=2", 2, 3),
                  ("blobs:n=36,classes=3,dim=2,sep=4.0,seed=31", 3, 2),
                  ("blobs:n=60,classes=4,dim=6,seed=3,shift=2.5", 4, 6)]
_FUZZ_EDGE = ["0", "1", "-1", "-3", "nan", "inf", "-inf", "", "x", "1.5", "true"]
_FUZZ_HUGE = ["1e30", "1e200", "1e308"]
_FUZZ_EDGE_BY_KEY = {
    **{key: _FUZZ_HUGE for key in ("beta", "lr", "variational_lr", "mean_scale", "clip_norm")},
    "dataset": ["blobs:n=2,classes=3", "blobs:n=3,classes=3,dim=2", "blobs:classes=1",
                "blobs:n=60,dim=1", "blobs:n=60,sep=nan", "blobs:n=60,sep=inf",
                "blobs:n=300,classes=3,dim=4,seed=1,sep=1e300", "blobs:n=x", "cache:", "cifar10"],
    "test_dataset": ["blobs:n=60,classes=3,dim=5,seed=2", "blobs:n=60,classes=5,dim=4,seed=2",
                     "blobs:n=60,classes=3,dim=4,sep=1e300"],
    "hidden": ["8,0", "8,-3", "8,", ",", "a,b", "300,1"],
}
# every name an exit-2 line may name
_FUZZ_NAMES = set(cli.TRAIN_SCHEMA) | {"hidden_dims", "input_dim", "output_dim", "dropout_rate"}


@st.composite
def _train_configs(draw):
    """A train config of valid values with at most two keys at an edge value;
    some keys are left out and take their defaults, never steps."""
    spec, classes, dim = draw(st.sampled_from(_FUZZ_DATASETS))
    method = draw(st.sampled_from(_FUZZ_VALID["method"]))
    valid = {**_FUZZ_VALID, "method": [method], "dataset": [spec],
             "test_dataset": ["", f"blobs:n=30,classes={classes},dim={dim},seed=9"],
             "representation_dim": (["", str(classes)] if method == "softmaxce"
                                    else [str(r) for r in range(1, dim + 1)])}
    edged = draw(st.sets(st.sampled_from(sorted(cli.TRAIN_SCHEMA)), max_size=2))
    config = {}
    for key, values in valid.items():
        if key in edged:
            config[key] = draw(st.sampled_from(_FUZZ_EDGE + _FUZZ_EDGE_BY_KEY.get(key, [])))
        elif key in ("method", "dataset", "representation_dim", "steps") or draw(st.booleans()):
            config[key] = draw(st.sampled_from(values))
    return config


def _fuzz_base(**overrides):
    return {"dataset": "blobs:n=120,classes=3,dim=4,seed=1", "hidden": "6",
            "representation_dim": "2", "batch_size": "16", "steps": "3",
            "mixture_components": "2", **overrides}


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None,
          max_examples=80)
@given(config=_train_configs())
@example(config=_fuzz_base(test_dataset="blobs:n=60,classes=3,dim=5,seed=2"))
@example(config=_fuzz_base(test_dataset="blobs:n=60,classes=5,dim=4,seed=2"))
@example(config=_fuzz_base(representation_dim="0"))
@example(config=_fuzz_base(hidden="0"))
@example(config=_fuzz_base(hidden="-3"))
@example(config=_fuzz_base(lr="1e308"))
@example(config=_fuzz_base(variational_lr="1e308"))
@example(config=_fuzz_base(mean_scale="1e200"))
@example(config=_fuzz_base(beta="1e308"))
@example(config=_fuzz_base(dataset="blobs:n=300,classes=3,dim=4,seed=1,sep=1e300"))
@example(config=_fuzz_base(dataset="blobs:n=600,classes=3,dim=4,seed=1", hidden="8",
                           representation_dim="3", mixture_components="3", lr="1e6",
                           batch_size="64"))
@example(config=_fuzz_base(lr="1e3", variational_lr="1e3"))
def test_train_config_fuzz_exits_cleanly(tmp_path_factory, capsys, config):
    out = tmp_path_factory.mktemp("fuzz")
    text = "".join(f"{key}={value}\n" for key, value in config.items())
    capsys.readouterr()
    rc = cli.main(["train", "--config", _write(out / "train.cfg", text), "--out", str(out / "o")])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    lines = captured.err.splitlines()
    if rc == 0:
        assert captured.err == ""
        ckpt = load_checkpoint(out / "o" / "model.ckpt")
        header, *rows = (out / "o" / "curves.csv").read_text().splitlines()
        # documented nan columns: no test set, and no Jacobian when r > d
        may_be_nan = {"test_acc": not config.get("test_dataset"),
                      "neg_log_jacobian": ckpt.net.config.output_dim > ckpt.net.config.input_dim}
        for row in rows:
            for name, value in zip(header.split(","), row.split(",")):
                assert math.isfinite(float(value)) or may_be_nan.get(name), (name, row)
    elif rc == 2:
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert any(re.search(rf"\b{name}\b", lines[0]) for name in _FUZZ_NAMES), lines
    else:
        assert rc == 3, (rc, lines)
        assert len(lines) == 1, lines
        assert re.match(r"error: TrainingDivergedError: training diverged at step [1-9]", lines[0])


_OVERFLOW_BLOBS = "blobs:n=60,classes=3,dim=4,sep=1e300"  # finite features the network overflows on


@pytest.fixture(scope="module")
def blob_checkpoint(tmp_path_factory):
    """A mass checkpoint trained for 4 steps on blobs:n=120,classes=3,dim=4,seed=1."""
    out = tmp_path_factory.mktemp("blob_ckpt")
    config = _fuzz_base(hidden="16", mixture_components="3", batch_size="32", steps="4")
    text = "".join(f"{key}={value}\n" for key, value in config.items())
    assert cli.main(["train", "--config", _write(out / "train.cfg", text), "--out", str(out / "run")]) == 0
    return str(out / "run" / "model.ckpt")


def test_train_curve_row_with_non_finite_test_probabilities_is_exit_3(tmp_path, capsys):
    config = _fuzz_base(test_dataset=_OVERFLOW_BLOBS, hidden="16", mixture_components="3",
                        batch_size="32", steps="4", eval_interval="2")
    text = "".join(f"{key}={value}\n" for key, value in config.items())
    rc = cli.main(["train", "--config", _write(tmp_path / "t.cfg", text), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == ("error: TrainingDivergedError: training diverged at step 2: non-finite class "
                   "probability at test set sample index 0\n")


def test_eval_on_non_finite_model_outputs_is_exit_3(tmp_path, capsys, blob_checkpoint):
    cfg = _write(tmp_path / "e.cfg", f"checkpoint={blob_checkpoint}\ndataset={_OVERFLOW_BLOBS}\n")
    rc = cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == ("error: NonFiniteOutputError: dataset: non-finite class probability at "
                   "sample index 0\n")
    assert not (tmp_path / "o" / "report.txt").exists()


def test_ood_on_non_finite_model_outputs_is_exit_3(tmp_path, capsys, blob_checkpoint):
    cfg = _write(tmp_path / "o.cfg", f"checkpoint={blob_checkpoint}\ndataset_in={_FUZZ_DATASETS[0][0]}\n"
                                     f"dataset_out={_OVERFLOW_BLOBS}\nscore=marginal_q\n")
    rc = cli.main(["ood", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == ("error: NonFiniteOutputError: dataset_out: non-finite marginal_q score at "
                   "sample index 0\n")
    assert not (tmp_path / "o" / "report.txt").exists()


# valid values and edge values of the eval, ood and cdi-demo keys; "{ckpt}"
# stands for the module's checkpoint and "{dir}" for a directory.  n stays
# below any size whose samples would need much memory.
_SCORING_VALID_DATASETS = [_FUZZ_DATASETS[0][0], "blobs:n=60,classes=3,dim=4,seed=2",
                           "blobs:n=30,classes=2,dim=4,seed=3",
                           "blobs:n=48,classes=3,dim=4,seed=0,shift=2.5"]
_SCORING_EDGE_DATASETS = ["blobs:n=0,classes=3,dim=4", "blobs:n=1,classes=3,dim=4",
                          "blobs:n=-1,dim=4", "blobs:n=60,classes=3,dim=4,sep=nan",
                          "blobs:n=60,classes=3,dim=4,sep=inf", _OVERFLOW_BLOBS,
                          "blobs:n=60,classes=3,dim=4,shift=1e300",
                          "blobs:n=60,classes=3,dim=4,shift=-1e300",
                          "blobs:n=60,classes=3,dim=4,shift=1e30", "blobs:n=60,classes=5,dim=4",
                          "blobs:n=60,classes=3,dim=5", "blobs:n=60,classes=0,dim=4",
                          "blobs:n=x,dim=4", "blobs:n=1.5,dim=4", "blobs:n=60,dim=4,sep=",
                          "blobs:n=60,dim=4,bogus=1", "", "cache:", "cache:{dir}", "cifar10", "0"]
_SCORING_VALUES = {
    "eval": {"checkpoint": (["{ckpt}"], ["", "0", "missing.ckpt", "{dir}", "{dir}/cfg"]),
             "dataset": (_SCORING_VALID_DATASETS, _SCORING_EDGE_DATASETS)},
    "ood": {"checkpoint": (["{ckpt}"], ["", "0", "missing.ckpt", "{dir}", "{dir}/cfg"]),
            "dataset_in": (_SCORING_VALID_DATASETS, _SCORING_EDGE_DATASETS),
            "dataset_out": (_SCORING_VALID_DATASETS, _SCORING_EDGE_DATASETS),
            "score": (list(metrics.OOD_SCORE_NAMES), ["", "x", "0", "MAX_Q", "nan"])},
    "cdi-demo": {"n": (["1000", "1200", "2000"],
                       ["0", "1", "-1", "999", "nan", "inf", "", "x", "1.5", "true", "1e30"]),
                 "k": (["1", "3", "5", "99"],
                       ["0", "-1", "100", "200", "nan", "", "x", "1.5", "100000000000000000000"])},
}


@st.composite
def _scoring_configs(draw):
    """(command, config): valid values with at most two keys at an edge
    value; a key may be left out, required or not."""
    command = draw(st.sampled_from(sorted(_SCORING_VALUES)))
    edged = draw(st.sets(st.sampled_from(sorted(_SCORING_VALUES[command])), max_size=2))
    config = {}
    for key, (valid, edge) in _SCORING_VALUES[command].items():
        if draw(st.integers(0, 9)) == 0:
            continue
        config[key] = draw(st.sampled_from(edge if key in edged else valid))
    return command, config


def _finite_report(path):
    report = dict(line.split("=", 1) for line in path.read_text().splitlines())
    assert all(math.isfinite(float(v)) for k, v in report.items() if k != "method"), report


def _finite_cdi_csv(path):
    header, *rows = path.read_text().splitlines()
    assert header == "name,n,k,estimate,stderr,reference,verdict"
    for row in rows:
        _, _, _, estimate, stderr, reference, _ = row.split(",")
        assert math.isfinite(float(estimate)) and math.isfinite(float(stderr)), row
        assert reference == "" or math.isfinite(float(reference)), row


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None,
          max_examples=100)
@given(command_config=_scoring_configs())
@example(command_config=("eval", {"checkpoint": "{ckpt}", "dataset": _OVERFLOW_BLOBS}))
@example(command_config=("ood", {"checkpoint": "{ckpt}", "dataset_in": _FUZZ_DATASETS[0][0],
                                 "dataset_out": _OVERFLOW_BLOBS, "score": "marginal_q"}))
def test_scoring_config_fuzz_exits_cleanly(tmp_path_factory, capsys, blob_checkpoint, command_config):
    command, config = command_config
    schemas = {"eval": cli.EVAL_SCHEMA, "ood": cli.OOD_SCHEMA, "cdi-demo": cli.CDI_DEMO_SCHEMA}
    assert set(_SCORING_VALUES[command]) == set(schemas[command])
    out = tmp_path_factory.mktemp("fuzz")
    _write(out / "cfg", "n=1000\n")
    text = "".join(f"{key}={value}\n" for key, value in config.items())
    text = text.replace("{ckpt}", blob_checkpoint).replace("{dir}", str(out))
    capsys.readouterr()
    start = time.perf_counter()
    rc = cli.main([command, "--config", _write(out / "run.cfg", text), "--out", str(out / "o")])
    assert time.perf_counter() - start <= 60.0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    lines = captured.err.splitlines()
    if rc == 0:
        assert captured.err == ""
        if command == "cdi-demo":
            _finite_cdi_csv(out / "o" / "cdi.csv")
        else:
            _finite_report(out / "o" / "report.txt")
    elif rc == 2:
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert any(re.search(rf"\b{key}\b", lines[0]) for key in _SCORING_VALUES[command]), lines
    else:
        assert rc == 3, (rc, lines)
        assert len(lines) == 1, lines
        assert re.match(r"error: \w+Error: .*sample index \d+$", lines[0]), lines


# importing scipy.special alone took about 0.25 s of a 0.4 s start-up, and
# scipy.stats more; no command needs any of scipy (cKDTree serves only
# samples of two or more dimensions, which no command draws).  The script
# lists the loaded modules under these packages after the import and after
# each command.
_HEAVY_SCIPY = ("scipy",)
_IMPORT_GUARD_SCRIPT = """
import json, os, sys
from masslearn import cli

heavy, out = json.loads(sys.argv[1]), sys.argv[2]

def heavy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in heavy)

loaded = {"import": heavy_loaded(), "numpy.random": "numpy.random" in sys.modules}

def run(command, text):
    path = os.path.join(out, command + ".cfg")
    with open(path, "w") as fh:
        fh.write(text)
    code = cli.main([command, "--config", path, "--out", os.path.join(out, command)])
    loaded[command] = heavy_loaded() + ([] if code == 0 else [code])

blobs = "blobs:n=120,classes=3,dim=4,seed=1"
run("cdi-demo", "n=1000\\nk=3\\n")
run("train", f"dataset={blobs}\\nhidden=6\\nrepresentation_dim=2\\nbatch_size=16\\nsteps=2\\n"
             "mixture_components=2\\n")
ckpt = os.path.join(out, "train", "model.ckpt")
run("eval", f"checkpoint={ckpt}\\ndataset={blobs}\\n")
run("ood", f"checkpoint={ckpt}\\ndataset_in={blobs}\\ndataset_out={blobs},shift=3\\nscore=max_q\\n")
print(json.dumps(loaded))
"""


def test_commands_never_load_the_heavy_scipy_subpackages(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD_SCRIPT, json.dumps(_HEAVY_SCIPY),
                           str(tmp_path)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    # numpy.random is loaded at import, not by the first command that draws
    assert loaded.pop("numpy.random") is True
    assert loaded == {step: [] for step in ("import", "cdi-demo", "train", "eval", "ood")}, loaded


def test_installed_entry_point(tmp_path):
    cfg = _write(tmp_path / "cdi.cfg", "n=1200\n")
    out = tmp_path / "sub"
    proc = subprocess.run(
        ["masslearn", "cdi-demo", "--config", str(cfg), "--out", str(out), "--seed", "4"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "name,n,k,estimate" in proc.stdout
    assert (out / "cdi.csv").is_file()
