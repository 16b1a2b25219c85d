import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

from masslearn import checkpoint as ckpt_mod
from masslearn import cli
from masslearn import container
from masslearn import data
from masslearn import metrics
from masslearn import mixtures as mx
from masslearn import network as net
from masslearn import rng as rngmod
from masslearn import training as tr


def test_blobs_deterministic_and_balanced():
    a, _ = data.gaussian_blobs(900, 3, 2, separation=4.0, seed=7)
    b, _ = data.gaussian_blobs(900, 3, 2, separation=4.0, seed=7)
    c, _ = data.gaussian_blobs(900, 3, 2, separation=4.0, seed=8)
    np.testing.assert_array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)
    counts = np.bincount(a.labels)
    np.testing.assert_array_equal(counts, [300, 300, 300])


def test_blobs_truncates_to_equal_classes():
    ds, _ = data.gaussian_blobs(10, 3, 2, separation=2.0, seed=0)
    assert ds.n == 9
    np.testing.assert_array_equal(np.bincount(ds.labels), [3, 3, 3])


def test_blobs_means_near_spec():
    ds, spec = data.gaussian_blobs(3000, 3, 4, separation=6.0, seed=1)
    per = 1000
    tol = 4.0 / np.sqrt(per)
    for c in range(3):
        emp = ds.features[ds.labels == c].mean(axis=0)
        assert np.abs(emp - spec.means[c]).max() < tol
    # circle layout: radius 3 in the first two coordinates, zero elsewhere
    np.testing.assert_allclose(np.hypot(spec.means[:, 0], spec.means[:, 1]), 3.0, atol=1e-12)
    np.testing.assert_array_equal(spec.means[:, 2:], np.zeros((3, 2)))


def test_blobs_shift_moves_everything():
    base, _ = data.gaussian_blobs(60, 2, 2, separation=4.0, seed=3)
    moved, _ = data.gaussian_blobs(60, 2, 2, separation=4.0, seed=3, shift=10.0)
    np.testing.assert_allclose(moved.features, base.features + 10.0, atol=0)


def _reference_blobs(n, n_classes, dim, separation, seed, shift):
    """The generator as it was before it filled one array in place: a list
    of class blocks, vstack, a permuted copy and a shifted copy."""
    per_class = n // n_classes
    radius = separation / 2.0
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    means = np.zeros((n_classes, dim))
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    gen = rngmod.stream(seed, "blobs")
    feats = np.vstack([means[c] + gen.normal(size=(per_class, dim)) for c in range(n_classes)])
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    order = gen.permutation(per_class * n_classes)
    return feats[order] + shift, labels[order]


@settings(deadline=None, max_examples=60)
@given(n_classes=st.integers(2, 12), extra=st.integers(0, 300), dim=st.integers(2, 64),
       separation=st.floats(0.0, 20.0), seed=st.integers(0, 2**31),
       shift=st.one_of(st.just(0.0), st.floats(1e-3, 50.0), st.floats(-50.0, -1e-3)),
       strip_bytes=st.one_of(st.just(data._STRIP_BYTES), st.integers(1, 4096)))
def test_blobs_match_the_reference_generator_bit_for_bit(n_classes, extra, dim, separation,
                                                         seed, shift, strip_bytes):
    # small strip budgets make the in-place permutation run in many strips
    n = n_classes + extra
    with mock.patch.object(data, "_STRIP_BYTES", strip_bytes):
        ds, _ = data.gaussian_blobs(n, n_classes, dim, separation, seed, shift=shift)
    feats, labels = _reference_blobs(n, n_classes, dim, separation, seed, shift)
    assert ds.features.tobytes() == feats.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()
    assert ds.features.shape == feats.shape


def test_parse_blobs_holds_one_feature_array():
    # numpy reports its buffers to tracemalloc, so the bound holds on any machine:
    # the features, one permutation strip, and a megabyte for the rest
    tracemalloc.start()
    try:
        ds = cli.parse_dataset_spec("blobs:n=4000,classes=10,dim=2048,sep=4.0,seed=1,shift=1.0",
                                    "dataset")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (4000, 2048)
    assert peak <= ds.features.nbytes + data._STRIP_BYTES + 2**20, peak / ds.features.nbytes


def test_two_class_bayes_oracle():
    _, spec = data.gaussian_blobs(100, 2, 2, separation=4.0, seed=0)
    mc = data.bayes_accuracy(spec, n_samples=200_000, seed=11)
    closed = data.two_class_bayes_accuracy(4.0)
    assert closed == pytest.approx(0.9772498680518208, abs=1e-12)
    assert mc == pytest.approx(closed, abs=0.002)


def test_two_class_bayes_accuracy_matches_the_normal_cdf():
    for sep in np.linspace(-10.0, 40.0, 2001):
        assert abs(data.two_class_bayes_accuracy(sep) - norm.cdf(sep / 2.0)) <= 4e-16, sep


@pytest.mark.parametrize("shape", [(0,), (0, 3), (5,), (5, 3)])
def test_first_non_finite_row(shape):
    a = np.zeros(shape)
    assert data.first_non_finite_row(a) is None
    for bad in (np.nan, np.inf, -np.inf) if a.size else ():
        b = a.copy()
        b[3] = b[4] = bad
        assert data.first_non_finite_row(b) == 3


def _write_cifar_fixture(root, n_files=2, records=6, seed=0):
    gen = np.random.default_rng(seed)
    for i in range(1, n_files + 1):
        rec = np.zeros((records, data.CIFAR_RECORD_BYTES), dtype=np.uint8)
        rec[:, 0] = gen.integers(0, 10, size=records)
        rec[:, 1:] = gen.integers(0, 256, size=(records, 3072))
        (root / f"data_batch_{i}.bin").write_bytes(rec.tobytes())
    rec = np.zeros((records, data.CIFAR_RECORD_BYTES), dtype=np.uint8)
    rec[:, 0] = gen.integers(0, 10, size=records)
    rec[:, 1:] = gen.integers(0, 256, size=(records, 3072))
    (root / "test_batch.bin").write_bytes(rec.tobytes())
    return rec


def test_cifar_loader_reads_records(tmp_path):
    for i in range(3, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(b"")
    last_test = _write_cifar_fixture(tmp_path, n_files=2, records=6)
    # empty batch files must be rejected before any parsing happens
    with pytest.raises(ValueError, match="3073"):
        data.load_cifar10(tmp_path, "train")

    ds = data.load_cifar10(tmp_path, "test")
    assert ds.features.shape == (6, 3072)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    np.testing.assert_array_equal(ds.labels, last_test[:, 0])
    np.testing.assert_allclose(ds.features[0], last_test[0, 1:] / 255.0, atol=0)

    limited = data.load_cifar10(tmp_path, "test", limit=2)
    assert limited.n == 2


def _reference_cifar10(dir_path, split, limit=None):
    """The loader as it was before it filled one array: every file read
    whole, vstacked, then a view of the first `limit` rows."""
    files = data.CIFAR_TRAIN_FILES if split == "train" else data.CIFAR_TEST_FILES
    feats, labels = [], []
    for fname in files:
        raw = np.frombuffer((dir_path / fname).read_bytes(), dtype=np.uint8)
        rec = raw.reshape(-1, data.CIFAR_RECORD_BYTES)
        labels.append(rec[:, 0].astype(np.int64))
        feats.append(rec[:, 1:].astype(np.float64) / 255.0)
    features = np.vstack(feats)
    labels = np.concatenate(labels)
    if limit is not None:
        features = features[:limit]
        labels = labels[:limit]
    return features, labels


@pytest.mark.parametrize("split,limit", [
    ("train", None), ("test", None), ("train", 4),
    ("train", 9),     # crosses from the first file into the second
    ("train", 30), ("train", 100), ("test", 1),
])
def test_cifar_loader_matches_the_reference_loader(tmp_path, split, limit):
    _write_cifar_fixture(tmp_path, n_files=5, records=6, seed=3)
    ds = data.load_cifar10(tmp_path, split, limit=limit)
    feats, labels = _reference_cifar10(tmp_path, split, limit)
    assert ds.features.shape == feats.shape
    assert ds.features.tobytes() == feats.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()
    # the rows kept own their data, so no unused rows are held
    assert ds.features.base is None and ds.features.flags.owndata


def test_cifar_loader_rejects_a_limit_below_one(tmp_path):
    _write_cifar_fixture(tmp_path, n_files=5)
    with pytest.raises(ValueError, match="limit"):
        data.load_cifar10(tmp_path, "train", limit=0)


def test_cifar_loader_corrupt_file(tmp_path):
    (tmp_path / "test_batch.bin").write_bytes(b"\x00" * 100)
    with pytest.raises(ValueError, match="3073"):
        data.load_cifar10(tmp_path, "test")


def test_cifar_loader_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        data.load_cifar10(tmp_path, "train")


def test_normalize_train_stats_only():
    gen = np.random.default_rng(5)
    train = gen.normal(loc=3.0, scale=2.0, size=(500, 4))
    test = gen.normal(size=(100, 4))
    stats = data.normalize_fit(train)
    norm_train = data.normalize_apply(train, stats)
    norm_test = data.normalize_apply(test, stats)
    np.testing.assert_allclose(norm_train.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(norm_train.std(axis=0), 1.0, atol=1e-12)
    # test stats must NOT be centered (they came from a different distribution)
    assert np.abs(norm_test.mean(axis=0)).max() > 0.5


def test_normalize_overflow_names_the_column():
    feats = np.random.default_rng(2).normal(size=(40, 4))
    feats[:, 2] *= 1e300
    with np.errstate(all="raise"):
        with pytest.raises(data.NormalizationError, match="feature column 2 "):
            data.normalize_fit(feats)
    # non-finite features are not an overflow: their statistics pass through
    feats[:, 2] = np.nan
    assert np.isnan(data.normalize_fit(feats).std[2])


def test_normalize_in_place_matches_normalize_apply():
    gen = np.random.default_rng(4)
    feats = gen.normal(loc=2.0, scale=3.0, size=(64, 5))
    stats = data.NormStats(mean=gen.normal(size=5), std=gen.uniform(0.5, 2.0, size=5))
    expected = (feats - stats.mean) / stats.std
    fresh = data.normalize_apply(feats, stats)
    assert fresh.tobytes() == expected.tobytes()
    owned = feats.copy()
    assert data._normalize(owned, stats, out=owned) is owned
    assert owned.tobytes() == expected.tobytes()


def test_normalize_degenerate_feature_warns():
    feats = np.ones((50, 3))
    feats[:, 1] = np.arange(50)
    with pytest.warns(UserWarning, match="zero-variance"):
        stats = data.normalize_fit(feats)
    assert stats.std[0] == 1.0 and stats.std[2] == 1.0
    assert stats.std[1] > 1.0


def test_batch_iterator_covers_dataset_once():
    ds, _ = data.gaussian_blobs(103 * 2, 2, 2, separation=1.0, seed=2)
    seen = []
    sizes = []
    for feats, labels in data.batch_iterator(ds, 32, seed=4, epoch=0):
        sizes.append(len(labels))
        seen.append(feats)
    assert sizes == [32, 32, 32, 32, 32, 32, 14]
    stacked = np.vstack(seen)
    np.testing.assert_array_equal(np.sort(stacked[:, 0]), np.sort(ds.features[:, 0]))


def test_batch_iterator_seeded_by_epoch():
    ds, _ = data.gaussian_blobs(64, 2, 2, separation=1.0, seed=2)
    e0a = next(iter(data.batch_iterator(ds, 16, seed=9, epoch=0)))[0]
    e0b = next(iter(data.batch_iterator(ds, 16, seed=9, epoch=0)))[0]
    e1 = next(iter(data.batch_iterator(ds, 16, seed=9, epoch=1)))[0]
    np.testing.assert_array_equal(e0a, e0b)
    assert not np.array_equal(e0a, e1)


def test_dataset_cache_roundtrip(tmp_path):
    ds, _ = data.gaussian_blobs(90, 3, 5, separation=2.5, seed=6)
    path = tmp_path / "blobs.dsc"
    data.save_dataset(path, ds)
    back = data.load_dataset(path)
    assert back.name == ds.name and back.n_classes == 3
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = net.MlpConfig(input_dim=4, hidden_dims=(5, 3), output_dim=2,
                        dropout_rate=0.1, use_batchnorm=True)
    params = net.mlp_init(cfg, seed=3)
    params.bn_mean[0] = np.random.default_rng(1).normal(size=5)
    mix = mx.mixture_init(3, 2, 2, seed=4)
    norm = data.NormStats(mean=np.arange(4.0), std=np.arange(1.0, 5.0))
    ck = ckpt_mod.Checkpoint(method="mass", net=params, mixture=mix, norm=norm,
                             n_classes=3, steps_trained=17)
    path = tmp_path / "model.ckpt"
    ckpt_mod.save_checkpoint(path, ck)
    back = ckpt_mod.load_checkpoint(path)

    assert back.method == "mass" and back.steps_trained == 17 and back.n_classes == 3
    assert back.net.config == cfg
    for a, b in zip(back.net.weights, params.weights):
        assert a.tobytes() == b.tobytes()
    assert back.net.bn_mean[0].tobytes() == params.bn_mean[0].tobytes()
    assert back.mixture is not None
    assert back.mixture.means.tobytes() == mix.means.tobytes()
    assert back.mixture.chol_raw.shape == (3, 2, 2, 2)
    assert back.norm.std.tobytes() == norm.std.tobytes()


def test_checkpoint_without_mixture(tmp_path):
    cfg = net.MlpConfig(input_dim=3, hidden_dims=(), output_dim=2)
    ck = ckpt_mod.Checkpoint(method="softmaxce", net=net.mlp_init(cfg, 0),
                             mixture=None, norm=None, n_classes=2)
    path = tmp_path / "m.ckpt"
    ckpt_mod.save_checkpoint(path, ck)
    back = ckpt_mod.load_checkpoint(path)
    assert back.mixture is None and back.norm is None


def test_container_rejects_garbage(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"not a container at all")
    with pytest.raises(Exception, match="magic"):
        ckpt_mod.load_checkpoint(p)


_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_arrays = st.one_of(hnp.arrays(np.float64, _shapes), hnp.arrays(np.int64, _shapes))
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
                          st.floats(allow_nan=False))
_meta = st.dictionaries(st.text(), st.recursive(
    _json_scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8), max_size=4)
_fixture_ok = settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)


@_fixture_ok
@given(meta=_meta, arrays=st.dictionaries(st.text(), _arrays, max_size=4))
def test_container_roundtrip_is_bit_exact(tmp_path, meta, arrays):
    path = tmp_path / "c.bin"
    container.write_container(path, meta, arrays)
    meta_back, arrays_back = container.read_container(path)
    assert meta_back == meta
    assert list(arrays_back) == list(arrays)
    for name, arr in arrays.items():
        back = arrays_back[name]
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


@settings(_fixture_ok, max_examples=30)
@given(meta=st.dictionaries(st.text(max_size=3), _json_scalars, max_size=3),
       arrays=st.dictionaries(st.text(max_size=3), _arrays, max_size=3))
def test_every_strict_prefix_of_a_container_is_rejected(tmp_path, meta, arrays):
    path = tmp_path / "c.bin"
    container.write_container(path, meta, arrays)
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(container.ContainerError):
            container.read_container(path)


def _raw_container(header) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return container.MAGIC + len(text).to_bytes(8, "little") + text + bytes(8)


@pytest.mark.parametrize("header", [
    [],
    {"meta": {}},
    {"meta": [], "arrays": []},
    {"meta": {}, "arrays": {}},
    {"meta": {}, "arrays": [[]]},
    {"meta": {}, "arrays": [{"name": "a", "dtype": "<f4", "shape": [1], "offset": 0, "nbytes": 4}]},
    {"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "shape": [2], "offset": 0, "nbytes": 8}]},
    {"meta": {}, "arrays": [{"name": "a", "dtype": "<i8", "shape": [-1], "offset": 0, "nbytes": 8}]},
    {"meta": {}, "arrays": [{"name": "a", "dtype": "<i8", "shape": [1.0], "offset": 0, "nbytes": 8}]},
    {"meta": {}, "arrays": [{"name": "a", "dtype": "<i8", "shape": [1], "offset": -8, "nbytes": 8}]},
    {"meta": {}, "arrays": [{"name": 1, "dtype": "<i8", "shape": [1], "offset": 0, "nbytes": 8}]},
])
def test_malformed_container_header_is_a_container_error(tmp_path, header):
    path = tmp_path / "bad.bin"
    path.write_bytes(_raw_container(header))
    with pytest.raises(container.ContainerError):
        container.read_container(path)


def test_well_formed_raw_container_reads(tmp_path):
    # the builder above makes a readable file once its header is well formed
    path = tmp_path / "good.bin"
    path.write_bytes(_raw_container(
        {"meta": {"k": 1}, "arrays": [{"name": "a", "dtype": "<i8", "shape": [1], "offset": 0, "nbytes": 8}]}))
    meta, arrays = container.read_container(path)
    assert meta == {"k": 1}
    assert arrays["a"].tolist() == [0]


def test_library_functions_leave_their_inputs_unchanged():
    train_ds, _ = data.gaussian_blobs(96, 3, 4, 4.0, seed=5)
    test_ds, _ = data.gaussian_blobs(30, 3, 4, 4.0, seed=6)
    inputs = [train_ds.features, train_ds.labels, test_ds.features, test_ds.labels]
    before = [a.copy() for a in inputs]

    cfg_net = net.MlpConfig(input_dim=4, hidden_dims=(6,), output_dim=2)
    cfg = tr.TrainConfig(method="mass", beta=1e-3, batch_size=32, steps=2, eval_interval=2,
                         mixture_components=2)
    ckpt = tr.train(train_ds, test_ds, cfg_net, cfg).checkpoint
    features = data.normalize_apply(test_ds.features, ckpt.norm)
    normalized = features.copy()
    tr.predict_probabilities(ckpt, features)
    for name in metrics.OOD_SCORE_NAMES:
        metrics.ood_scores(ckpt, features, name)

    for arr, old in zip(inputs, before):
        assert arr.tobytes() == old.tobytes()
    assert features.tobytes() == normalized.tobytes()
