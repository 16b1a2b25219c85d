"""Conserved differential information of deterministic maps.

For a smooth map f with full-rank Jacobian the quantity

    C(X, f(X)) = H(f(X)) - E[log J_f(X)],   J_f = sqrt(det(Df Df^T))

measures how much information about a continuous X survives f.  It is
invariant under invertible post-processing and can only drop under a
non-invertible one (a data-processing inequality), which is what
`dpi_check` tests empirically.  Entropy is estimated from samples with the
Kozachenko-Leonenko nearest-neighbor estimator.

The analytic map catalog pairs simple closed-form maps of a standard normal
input with their exact C values, giving ground truth for the estimator.
Mutual information I(X; f(X)) after quantization is also provided for
contrast: it grows without bound as the grid is refined, while C stays put.

Scalar samples find their k-th neighbor distances with one sort; samples of
two or more dimensions use scipy's `cKDTree`, queried in one thread and
imported only when such samples arrive, so scalar callers never load scipy.
The digamma and log-gamma values the estimator needs are computed here, by
ports of the cephes routines scipy runs, and match scipy bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# entropy of a standard normal in one dimension, 0.5*log(2*pi*e)
STD_NORMAL_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)

_EULER = 0.577215664901532860606512090082402431
# cephes psi's asymptotic series in 1/x^2, highest degree first
_PSI_A = (8.33333333333333333333e-2, -2.10927960927960927961e-2, 7.57575757575757575758e-3,
          -4.16666666666666666667e-3, 3.96825396825396825397e-3, -8.33333333333333333333e-3,
          8.33333333333333333333e-2)
# cephes lgam: B / C* on [2, 3) (C* monic) and the Stirling correction A
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LOG_SQRT_2PI = 0.91893853320467274178


def _horner(x: float, coefs, value: float) -> float:
    for c in coefs:
        value = value * x + c
    return value


def _psi(n: int) -> float:
    """Digamma at a positive integer n, as cephes `psi` computes it, so it
    equals scipy's digamma(n) bit for bit: the harmonic sum for n <= 10, the
    asymptotic series above."""
    if n <= 10:
        y = 0.0
        for i in range(1, n):
            y += 1.0 / i
        return y - _EULER
    x = float(n)
    z = 1.0 / (x * x)
    return math.log(x) - 0.5 / x - z * _horner(z, _PSI_A[1:], _PSI_A[0])


def _lgam(x: float) -> float:
    """log Gamma(x) for x > 0, as cephes `lgam` computes it, so it equals
    scipy's gammaln(x) bit for bit: below 13 the recurrence into [2, 3) and
    a rational fit there, from 13 on Stirling's series."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _horner(x, _LGAM_B[1:], _LGAM_B[0]) / _horner(x, _LGAM_C, 1.0)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _horner(p, _LGAM_A[1:], _LGAM_A[0]) / x


def _as_points(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    if z.ndim != 2 or z.shape[0] < 1:
        raise ValueError(f"expected samples of shape (n,) or (n, m), got {z.shape}")
    if z.shape[1] < 1:
        raise ValueError(f"samples have no dimensions: shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("samples must be finite")
    return z


def _kth_neighbor_distance(z: np.ndarray, k: int) -> np.ndarray:
    """(n,) distance from each row of z to its k-th nearest other row.

    For one dimension, the k nearest others of sorted value s[p] lie in one
    of the k + 1 runs s[a..a+k] with p - k <= a <= p, so
    rho_p = min_a max(s[p] - s[a], s[a+k] - s[p]).  Each difference is the
    |d| that the tree's sqrt(d^2) rounds back to, so the distances match the
    tree's bit for bit unless d^2 underflows, where these are the exact ones.
    """
    n, m = z.shape
    if m > 1:
        # imported here so that scalar callers never load scipy.spatial
        from scipy.spatial import cKDTree
        return cKDTree(z).query(z, k=k + 1)[0][:, k]
    order = np.argsort(z[:, 0], kind="stable")
    s = z[order, 0]
    padded = np.concatenate((np.full(k, -np.inf), s, np.full(k, np.inf)))
    rho_sorted = np.full(n, np.inf)
    below, above = np.empty(n), np.empty(n)  # reused: no temporaries in the loop
    for j in range(k + 1):
        # the run starting j places below p; padding makes runs past an end inf
        np.subtract(s, padded[k - j:k - j + n], out=below)
        np.subtract(padded[2 * k - j:2 * k - j + n], s, out=above)
        np.maximum(below, above, out=below)
        np.minimum(rho_sorted, below, out=rho_sorted)
    rho = np.empty(n)
    rho[order] = rho_sorted
    return rho


def knn_entropy(z, k: int = 3) -> float:
    """Differential entropy in nats from samples, k-th nearest neighbor form.

    H ~= psi(n) - psi(k) + log V_m + (m/n) * sum_i log rho_i where rho_i is
    the distance from sample i to its k-th neighbor and V_m is the unit-ball
    volume.  Samples whose k-th neighbor distance is exactly zero (exact
    duplicates) are displaced deterministically by their index + 1 times
    max(1e-12, 4 ulp of the value) before re-querying, so discrete repeats
    never produce log(0), however large; neighbor ties at equal distance
    are irrelevant because only distances enter the estimate.  Scalar
    samples are handled by one sort, samples of two or more dimensions by
    one `cKDTree`.  Samples must be finite.
    """
    z = _as_points(z)
    n, m = z.shape
    if k < 1:
        raise ValueError("knn_entropy: k must be at least 1")
    if n <= k:
        raise ValueError(f"knn_entropy: need more than k={k} samples, got {n}")
    rho = _kth_neighbor_distance(z, k)
    zero = rho == 0.0
    if zero.any():
        jittered = z.copy()
        idx = np.flatnonzero(zero)
        step = np.maximum(1e-12, 4.0 * np.spacing(np.abs(z[idx])))
        jittered[idx] += step * (idx[:, None] + 1.0)
        rho = _kth_neighbor_distance(jittered, k)
        if (rho == 0.0).any():
            raise ValueError("knn_entropy: duplicate samples persist after index jitter")
    log_unit_ball = 0.5 * m * math.log(math.pi) - _lgam(0.5 * m + 1.0)
    return float(_psi(n) - _psi(k) + log_unit_ball + (m / n) * np.log(rho).sum())


@dataclass
class CdiEstimate:
    value: float
    stderr: float
    n: int
    k: int


def cdi_estimate(fx, log_jac, k: int = 3) -> CdiEstimate:
    """Estimate C(X, f(X)) from samples of f(X) and per-sample log J_f(X).

    The standard error comes from re-estimating on 10 consecutive folds, so
    results are deterministic given the sample order.
    """
    fx = _as_points(fx)
    log_jac = np.asarray(log_jac, dtype=np.float64)
    n = fx.shape[0]
    if log_jac.shape != (n,):
        raise ValueError("cdi_estimate: log_jac must be one value per sample")
    if n < 1000:
        raise ValueError(f"cdi_estimate: need at least 1000 samples, got {n}")
    value = knn_entropy(fx, k) - float(log_jac.mean())
    folds = np.array_split(np.arange(n), 10)
    fold_vals = [knn_entropy(fx[idx], k) - float(log_jac[idx].mean()) for idx in folds]
    stderr = float(np.std(fold_vals, ddof=1) / math.sqrt(len(fold_vals)))
    return CdiEstimate(value=value, stderr=stderr, n=n, k=k)


# ---------------------------------------------------------------------------
# analytic scalar maps of a standard normal input, with exact C values


@dataclass
class AnalyticMap:
    """A map R -> R with its log |f'| and, when known, the exact C(X, f(X))
    for X standard normal (nan when no closed form is recorded)."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    log_deriv: Callable[[np.ndarray], np.ndarray]
    invertible: bool
    reference_cdi: float = float("nan")


def compose(outer: AnalyticMap, inner: AnalyticMap) -> AnalyticMap:
    """g after f for scalar maps; log derivative adds along the chain."""
    ref = inner.reference_cdi if outer.invertible else float("nan")
    return AnalyticMap(
        name=f"{outer.name}({inner.name})",
        fn=lambda x: outer.fn(inner.fn(x)),
        log_deriv=lambda x: outer.log_deriv(inner.fn(x)) + inner.log_deriv(x),
        invertible=outer.invertible and inner.invertible,
        reference_cdi=ref,
    )


def _halved_entropy_reference() -> float:
    # folding a symmetric density in half loses exactly log 2
    return STD_NORMAL_ENTROPY - math.log(2.0)


def analytic_map_catalog() -> dict[str, AnalyticMap]:
    """Named maps with exact references; invertible ones all conserve the
    full input entropy, the folding ones lose log 2."""
    maps = [
        AnalyticMap("scale2", lambda x: 2.0 * x,
                    lambda x: np.full_like(x, math.log(2.0)), True, STD_NORMAL_ENTROPY),
        AnalyticMap("affine3", lambda x: 3.0 * x + 1.0,
                    lambda x: np.full_like(x, math.log(3.0)), True, STD_NORMAL_ENTROPY),
        AnalyticMap("cube", lambda x: x ** 3,
                    lambda x: np.log(3.0 * x * x), True, STD_NORMAL_ENTROPY),
        AnalyticMap("xabs", lambda x: x * np.abs(x),
                    lambda x: np.log(2.0 * np.abs(x)), True, STD_NORMAL_ENTROPY),
        AnalyticMap("abs", np.abs,
                    lambda x: np.zeros_like(x), False, _halved_entropy_reference()),
        AnalyticMap("square", lambda x: x * x,
                    lambda x: np.log(2.0 * np.abs(x)), False, _halved_entropy_reference()),
        AnalyticMap("absshift", lambda x: np.abs(x - 1.0),
                    lambda x: np.zeros_like(x), False, shifted_fold_entropy(1.0)),
    ]
    return {m.name: m for m in maps}


def shifted_fold_entropy(c: float) -> float:
    """Exact H(|X - c|) for X standard normal, by the trapezoid rule.

    The folded density is p(y) = phi(y + c) + phi(y - c) on y >= 0; the
    volume term of |x - c| is zero, so this is also C(X, |X - c|).  p is even
    in y, so the trapezoid sum on [0, 40] is half the one on [-40, 40], where
    the integrand is analytic and decays like a Gaussian: that rule converges
    geometrically, and step 0.05 agrees with adaptive quadrature to 1e-13.
    """
    y = 0.05 * np.arange(801)
    p = (np.exp(-0.5 * (y + c) ** 2) + np.exp(-0.5 * (y - c) ** 2)) / math.sqrt(2.0 * math.pi)
    return float(np.trapezoid(-p * np.log(p, out=np.zeros_like(p), where=p > 0), dx=0.05))


def projection_cdi_reference(a: np.ndarray) -> float:
    """C(X, a^T X) for X standard normal in R^m: the projection a^T x has
    Jacobian row a, so H(N(0, |a|^2)) and E[log |a|] cancel to the entropy
    of a single standard normal coordinate, whatever the direction."""
    norm = float(np.linalg.norm(np.asarray(a, dtype=np.float64)))
    if norm == 0.0:
        raise ValueError("projection direction must be nonzero")
    return STD_NORMAL_ENTROPY


def projection_samples(a, x: np.ndarray):
    """(f(x), per-sample log J) for the projection f(x) = a^T x."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    fx = x @ a
    log_jac = np.full(x.shape[0], math.log(float(np.linalg.norm(a))))
    return fx, log_jac


def map_cdi_estimate(m: AnalyticMap, x: np.ndarray, k: int = 3) -> CdiEstimate:
    """Run the estimator on an analytic map at the given input samples."""
    x = np.asarray(x, dtype=np.float64)
    return cdi_estimate(m.fn(x), m.log_deriv(x), k=k)


# ---------------------------------------------------------------------------
# data-processing comparisons


def dpi_verdict(upstream: CdiEstimate, downstream: CdiEstimate, n_sigma: float = 3.0) -> str:
    """Compare C before and after post-processing.

    Returns "strict" when information was measurably lost, "equal" when the
    two agree within noise (invertible post-processing), and "violation"
    when the downstream value is significantly larger, which the theory
    forbids and therefore flags estimator trouble.
    """
    diff = upstream.value - downstream.value
    sigma = math.sqrt(upstream.stderr ** 2 + downstream.stderr ** 2)
    if diff > n_sigma * sigma:
        return "strict"
    if diff < -n_sigma * sigma:
        return "violation"
    return "equal"


# ---------------------------------------------------------------------------
# quantized mutual information, for contrast


def quantized_mi(x, y, bins: int) -> float:
    """I(X; Y) in nats after equal-mass scalar quantization of each variable.

    Bins are assigned by rank, so each bin holds floor(n/bins) or one more
    sample.  For y = x this equals log(bins) exactly when bins divides n,
    demonstrating the unbounded growth that C does not suffer from.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError("quantized_mi: x and y must have the same length")
    n = x.size
    if bins < 2 or n < bins:
        raise ValueError("quantized_mi: need at least 2 bins and n >= bins")

    def ranks_to_bins(v):
        order = np.argsort(v, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        return (rank * bins) // n

    bx = ranks_to_bins(x)
    by = ranks_to_bins(y)
    joint = np.zeros((bins, bins))
    np.add.at(joint, (bx, by), 1.0)
    joint /= n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    ratio = joint[nz] / (px[:, None] * py[None, :])[nz]
    return float((joint[nz] * np.log(ratio)).sum())
