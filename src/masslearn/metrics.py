"""Classification quality and out-of-distribution scoring.

All probability inputs are (n, C) rows on the simplex.  Metrics are plain
functions of numpy arrays; the only checkpoint-aware helper is
`ood_scores`, which turns a trained model into a scalar score per sample
for in/out discrimination.
"""

from __future__ import annotations

import numpy as np

from . import mixtures as mx
from . import network as net
from .checkpoint import Checkpoint
from .training import predict_probabilities

PROB_FLOOR = 1e-300  # keeps -log finite without visibly moving any metric

OOD_SCORE_NAMES = ("entropy", "max_q", "marginal_q")


def _check_probs(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError(f"expected (n, C) probabilities, got shape {probs.shape}")
    return probs


def nll(probs, labels) -> float:
    """Mean negative log probability of the true class."""
    probs = _check_probs(probs)
    labels = np.asarray(labels, dtype=np.int64)
    own = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(own, PROB_FLOOR)).mean())


def brier(probs, labels) -> float:
    """Mean squared distance to the one-hot target, averaged over classes too.

    Dividing by both n and C keeps the value in [0, 2/C]; a uniform
    prediction over 10 classes scores 0.09.
    """
    probs = _check_probs(probs)
    labels = np.asarray(labels, dtype=np.int64)
    n, n_classes = probs.shape
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    return float(((probs - onehot) ** 2).sum() / (n * n_classes))


def accuracy(probs, labels) -> float:
    probs = _check_probs(probs)
    labels = np.asarray(labels, dtype=np.int64)
    return float((probs.argmax(axis=1) == labels).mean())


def predictive_entropy(probs) -> np.ndarray:
    """(n,) entropy of each predictive distribution, with 0*log(0) = 0."""
    probs = _check_probs(probs)
    return -(probs * np.log(probs, out=np.zeros_like(probs), where=probs > 0)).sum(axis=1)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of NaN-free x, each tie group at its mean rank: the
    group filling sorted places [start, end) gets (start + end + 1) / 2,
    exact in float64, so the ranks equal scipy.stats.rankdata's bit for bit."""
    order = np.argsort(x, kind="stable")
    s = x[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], s.size)
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def auroc(scores_a, scores_b) -> float:
    """P(a > b) + 0.5 * P(a == b) for random a from the first group and b
    from the second, computed with average ranks so ties are exact; nan if
    any score is nan."""
    scores_a = np.asarray(scores_a, dtype=np.float64)
    scores_b = np.asarray(scores_b, dtype=np.float64)
    if scores_a.size == 0 or scores_b.size == 0:
        raise ValueError("auroc: both score groups must be nonempty")
    scores = np.concatenate([scores_a, scores_b])
    if np.isnan(scores).any():
        return float("nan")
    ranks = _average_ranks(scores)
    n_a, n_b = scores_a.size, scores_b.size
    return float((ranks[:n_a].sum() - n_a * (n_a + 1) / 2.0) / (n_a * n_b))


def _ap_over_ranked(hits: np.ndarray) -> float:
    cum_pos = np.cumsum(hits)
    precision_at_hit = cum_pos[hits] / (np.flatnonzero(hits) + 1.0)
    return float(precision_at_hit.mean())


def average_precision(pos_scores, neg_scores) -> float:
    """Mean precision at each positive, ranked by descending score.

    Ties are broken in favor of positives (a positive with the same score
    as a negative is counted first); the tie rule is part of the contract
    and is what makes the value reproducible.
    """
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if pos_scores.size == 0 or neg_scores.size == 0:
        raise ValueError("average_precision: both score groups must be nonempty")
    scores = np.concatenate([pos_scores, neg_scores])
    is_pos = np.concatenate([np.ones(pos_scores.size, bool), np.zeros(neg_scores.size, bool)])
    order = np.argsort(-scores, kind="stable")  # positives listed first keeps them ahead on ties
    return _ap_over_ranked(is_pos[order])


def average_precision_ood(scores_in, scores_out, positive: str) -> float:
    """Average precision of in/out detection with either side as positive.

    Scores are oriented so higher means in-distribution.  positive="in"
    ranks by descending score; positive="out" ranks by ascending score.
    Ties list in-samples before out-samples under both orderings.
    """
    scores_in = np.asarray(scores_in, dtype=np.float64)
    scores_out = np.asarray(scores_out, dtype=np.float64)
    if positive == "in":
        return average_precision(scores_in, scores_out)
    if positive != "out":
        raise ValueError(f"positive must be 'in' or 'out', got {positive!r}")
    if scores_in.size == 0 or scores_out.size == 0:
        raise ValueError("average_precision: both score groups must be nonempty")
    scores = np.concatenate([scores_in, scores_out])
    is_pos = np.concatenate([np.zeros(scores_in.size, bool), np.ones(scores_out.size, bool)])
    order = np.argsort(scores, kind="stable")
    return _ap_over_ranked(is_pos[order])


# ---------------------------------------------------------------------------
# out-of-distribution scores


def ood_scores(ckpt: Checkpoint, features: np.ndarray, score_name: str) -> np.ndarray:
    """(n,) scalar scores from already-normalized features; for every score
    name, larger values mean more in-distribution.

    "entropy" works for any checkpoint (negated entropy of the predictive
    class distribution).  "max_q" is the best class-conditional log density,
    ignoring priors; "marginal_q" is the full log marginal density.  The
    density scores need a mixture: mass checkpoints carry one, and a
    cross-entropy model can get one after the fact via mixtures.mle_fit.
    """
    if score_name not in OOD_SCORE_NAMES:
        raise ValueError(f"unknown score {score_name!r}; options: {', '.join(OOD_SCORE_NAMES)}")
    if score_name == "entropy":
        return -predictive_entropy(predict_probabilities(ckpt, features))
    if ckpt.mixture is None:
        raise ValueError(
            f"score {score_name!r} needs a fitted density; fit one with mixtures.mle_fit "
            "or use the 'entropy' score"
        )
    z = net.forward_fast(ckpt.net, features, mode="eval")
    if score_name == "max_q":
        return mx.class_log_density_matrix(ckpt.mixture, z).max(axis=1)
    return mx.marginal_log_density(ckpt.mixture, z)
