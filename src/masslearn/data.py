"""Datasets: synthetic Gaussian blobs, the CIFAR-10 binary format, feature
normalization, seeded batch iteration, and a bit-exact cache format.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container
from . import rng as rngmod
from .container import _array, _field

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 channel-major pixels
CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILES = ("test_batch.bin",)
_STRIP_BYTES = 16 * 2**20  # bound on the temporary of one in-place row permutation strip


@dataclass
class Dataset:
    name: str
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64
    n_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("Dataset: features must be (n, d), labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("Dataset: feature/label count mismatch")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("Dataset: label out of range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class BlobSpec:
    """Generative description of a blob dataset: class means on a circle,
    unit isotropic covariance, equal priors."""

    means: np.ndarray  # (C, dim)
    n_classes: int
    dim: int


def gaussian_blobs(n: int, n_classes: int, dim: int, separation: float, seed: int,
                   shift: float = 0.0) -> tuple[Dataset, BlobSpec]:
    """Equal-sized Gaussian classes with means spaced on a circle.

    Means sit on a circle of radius separation/2 in the first two feature
    coordinates (remaining coordinates zero); every class has unit isotropic
    covariance.  n is truncated down to a multiple of n_classes so class
    sizes are exactly equal.  `shift` is added to every feature, which is
    how out-of-distribution variants are produced.
    """
    if n_classes < 2:
        raise ValueError("gaussian_blobs: need at least 2 classes")
    if dim < 2:
        raise ValueError("gaussian_blobs: need dim >= 2 for the circular layout")
    per_class = n // n_classes
    if per_class < 1:
        raise ValueError("gaussian_blobs: n too small for the class count")

    radius = separation / 2.0
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    means = np.zeros((n_classes, dim))
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)

    # one (n, dim) array from the first draw on: standard_normal(out=) makes
    # the draws normal(size=) would, and the rows are permuted a column strip
    # at a time so that the permutation's temporary stays near _STRIP_BYTES
    n_rows = per_class * n_classes
    gen = rngmod.stream(seed, "blobs")
    feats = np.empty((n_rows, dim))
    for c in range(n_classes):
        block = feats[c * per_class:(c + 1) * per_class]
        gen.standard_normal(out=block)
        block += means[c]
    order = gen.permutation(n_rows)
    width = max(1, _STRIP_BYTES // (feats.itemsize * n_rows))
    for j in range(0, dim, width):
        feats[:, j:j + width] = feats[order, j:j + width]
    feats += shift
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)[order]
    ds = Dataset(name=f"blobs(c={n_classes},d={dim},sep={separation:g})",
                 features=feats, labels=labels, n_classes=n_classes)
    return ds, BlobSpec(means=means, n_classes=n_classes, dim=dim)


def bayes_accuracy(spec: BlobSpec, n_samples: int, seed: int) -> float:
    """Monte-Carlo accuracy of the exact posterior classifier for a BlobSpec.

    With unit isotropic covariance and equal priors the Bayes rule is
    nearest-mean; for two classes this converges to Phi(separation/2).
    """
    gen = rngmod.stream(seed, "bayes-oracle")
    per = n_samples // spec.n_classes
    correct = 0
    total = 0
    for c in range(spec.n_classes):
        x = spec.means[c] + gen.normal(size=(per, spec.dim))
        d2 = ((x[:, None, :] - spec.means[None, :, :]) ** 2).sum(axis=2)
        correct += int((d2.argmin(axis=1) == c).sum())
        total += per
    return correct / total


def two_class_bayes_accuracy(separation: float) -> float:
    """Closed form for C=2: Phi(separation/2) = erfc(-separation/(2 sqrt 2))/2."""
    return 0.5 * math.erfc(-separation / (2.0 * math.sqrt(2.0)))


def load_cifar10(dir_path, split: str, limit: int | None = None) -> Dataset:
    """Read the CIFAR-10 binary batches from a directory.

    Records are 3073 bytes: one label byte then 3072 pixel bytes
    (channel-major: 1024 red, 1024 green, 1024 blue, each row-major 32x32).
    Features are scaled to [0, 1].  `limit` keeps only the first rows; the
    files are read in order into one array of that many rows, and the label
    bytes are checked on the rows read.
    """
    if split not in ("train", "test"):
        raise ValueError(f"load_cifar10: split must be train or test, got {split!r}")
    if limit is not None and limit < 1:
        raise ValueError(f"load_cifar10: limit must be at least 1, got {limit}")
    files = CIFAR_TRAIN_FILES if split == "train" else CIFAR_TEST_FILES
    root = Path(dir_path)
    records = []
    for fname in files:
        path = root / fname
        if not path.exists():
            raise FileNotFoundError(f"load_cifar10: missing {path}")
        size = path.stat().st_size
        if size == 0 or size % CIFAR_RECORD_BYTES != 0:
            raise ValueError(
                f"load_cifar10: {path} holds {size} bytes, not a multiple of the "
                f"{CIFAR_RECORD_BYTES}-byte record size"
            )
        records.append((path, size // CIFAR_RECORD_BYTES))
    n = sum(count for _, count in records)
    if limit is not None:
        n = min(n, limit)
    features = np.empty((n, CIFAR_RECORD_BYTES - 1))
    labels = np.empty(n, dtype=np.int64)
    start = 0
    for path, count in records:
        take = min(count, n - start)
        if take == 0:
            break
        rec = np.fromfile(path, dtype=np.uint8, count=take * CIFAR_RECORD_BYTES)
        rec = rec.reshape(take, CIFAR_RECORD_BYTES)
        labels[start:start + take] = rec[:, 0]
        np.divide(rec[:, 1:], 255.0, out=features[start:start + take])
        start += take
    if labels.max() > 9:
        raise ValueError("load_cifar10: label byte above 9, file is not CIFAR-10")
    return Dataset(name=f"cifar10-{split}", features=features, labels=labels, n_classes=10)


def first_non_finite_row(a: np.ndarray) -> int | None:
    """Index of the first row of a holding a nan or infinity, or None.  NaN
    propagates through min and max, and an infinity shows in one of them;
    only a failure pays for the mask that names the row."""
    if a.size == 0 or (np.isfinite(a.min()) and np.isfinite(a.max())):
        return None
    return int(np.argmin(np.isfinite(a).reshape(len(a), -1).all(axis=1)))


@dataclass
class NormStats:
    mean: np.ndarray
    std: np.ndarray


class NormalizationError(ValueError):
    """Finite training features whose per-column statistics overflow."""


def normalize_fit(train_features: np.ndarray) -> NormStats:
    """Per-feature mean/std from the training set only; zero-variance
    features keep std 1 and trigger a warning.  NormalizationError, naming
    the first column, when finite features give a non-finite std (values
    too large to square); non-finite features pass through."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train_features.mean(axis=0)
        std = train_features.std(axis=0)
    if not np.isfinite(std).all():
        overflowed = ~np.isfinite(std) & np.isfinite(train_features).all(axis=0)
        if overflowed.any():
            raise NormalizationError(f"feature column {int(np.argmax(overflowed))} has a "
                                     "non-finite standard deviation")
    degenerate = std == 0.0
    if degenerate.any():
        warnings.warn(f"normalize_fit: {int(degenerate.sum())} zero-variance features, std left at 1")
        std = np.where(degenerate, 1.0, std)
    return NormStats(mean=mean, std=std)


def normalize_apply(features: np.ndarray, stats: NormStats) -> np.ndarray:
    """(features - mean) / std as a new array; features is not written."""
    return _normalize(features, stats)


def _normalize(features: np.ndarray, stats: NormStats, out: np.ndarray | None = None) -> np.ndarray:
    """One subtraction into out (a new array when None; features itself to
    normalize in place), then an in-place divide: the arithmetic of
    (features - mean) / std."""
    out = np.subtract(features, stats.mean, out=out)
    out /= stats.std
    return out


def batch_iterator(dataset: Dataset, batch_size: int, seed: int, epoch: int):
    """Yield (features, labels) minibatches from a fresh shuffle of the
    dataset, seeded by (seed, epoch).  The final short batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_iterator: batch_size must be positive")
    order = rngmod.stream(seed, rngmod.SHUFFLE, epoch).permutation(dataset.n)
    for start in range(0, dataset.n, batch_size):
        idx = order[start:start + batch_size]
        yield dataset.features[idx], dataset.labels[idx]


CACHE_VERSION = 1


def save_dataset(path, dataset: Dataset) -> None:
    container.write_container(
        path,
        meta={"kind": "dataset", "version": CACHE_VERSION, "name": dataset.name,
              "n_classes": dataset.n_classes},
        arrays={"features": dataset.features, "labels": dataset.labels},
    )


def load_dataset(path) -> Dataset:
    """The dataset cache at path; ContainerError, naming the field or array,
    for a malformed file, metadata of the wrong type or version, features
    that are not float64 (n, d), or labels that are not int64 (n,)."""
    meta, arrays = container.read_container(path)
    if meta.get("kind") != "dataset":
        raise container.ContainerError(f"{path}: not a dataset cache")
    version = _field(path, meta, "version", int)
    if version != CACHE_VERSION:
        raise container.ContainerError(f"{path}: field 'version' is {version}, this reader "
                                       f"knows {CACHE_VERSION}")
    n_classes = _field(path, meta, "n_classes", int)
    if n_classes < 1:
        raise container.ContainerError(f"{path}: field 'n_classes' must be at least 1")
    features = _array(path, arrays, "features", (None, None))
    labels = _array(path, arrays, "labels", (len(features),), np.int64)
    return Dataset(name=_field(path, meta, "name", str), features=features,
                   labels=labels, n_classes=n_classes)
