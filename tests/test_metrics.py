import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import xlogy
from scipy.stats import rankdata

from masslearn import metrics
from masslearn import mixtures as mx
from masslearn import network as net
from masslearn.checkpoint import Checkpoint


def _simplex_rows(gen, n, c):
    p = gen.random((n, c)) + 1e-3
    return p / p.sum(axis=1, keepdims=True)


def test_nll_matches_loop_and_floors_zeros():
    gen = np.random.default_rng(0)
    probs = _simplex_rows(gen, 40, 5)
    labels = gen.integers(0, 5, size=40)
    manual = -np.mean([math.log(probs[i, labels[i]]) for i in range(40)])
    assert abs(metrics.nll(probs, labels) - manual) < 1e-12

    certain_wrong = np.zeros((1, 3))
    certain_wrong[0, 1] = 1.0
    # the floor turns -log(0) into -log(1e-300), not infinity
    assert abs(metrics.nll(certain_wrong, [0]) - 690.7755278982137) < 1e-9


def test_brier_closed_forms():
    uniform = np.full((7, 10), 0.1)
    labels = np.arange(7) % 10
    assert abs(metrics.brier(uniform, labels) - 0.09) < 1e-15
    perfect = np.eye(4)[[0, 1, 2, 3, 1]]
    assert metrics.brier(perfect, [0, 1, 2, 3, 1]) == 0.0
    worst = np.eye(4)[[1, 2]]
    assert abs(metrics.brier(worst, [0, 0]) - 2.0 / 4.0) < 1e-15


def test_brier_matches_loop():
    gen = np.random.default_rng(1)
    probs = _simplex_rows(gen, 30, 6)
    labels = gen.integers(0, 6, size=30)
    total = 0.0
    for i in range(30):
        for c in range(6):
            total += (probs[i, c] - (1.0 if labels[i] == c else 0.0)) ** 2
    assert abs(metrics.brier(probs, labels) - total / (30 * 6)) < 1e-12


def test_brier_and_nll_minimized_at_empirical_distribution():
    # a constant two-class prediction scores best at the empirical label
    # frequency, the defining property of a proper scoring rule
    labels = np.array([0, 0, 1], dtype=np.int64)
    grid = np.arange(0.0, 1.0 + 1e-9, 0.01)
    briers = [metrics.brier(np.tile([p, 1 - p], (3, 1)), labels) for p in grid]
    nlls = [metrics.nll(np.tile([p, 1 - p], (3, 1)), labels) for p in grid]
    assert abs(grid[int(np.argmin(briers))] - 2.0 / 3.0) < 0.011
    assert abs(grid[int(np.argmin(nlls))] - 2.0 / 3.0) < 0.011
    # and with a single fixed label the optimum is the degenerate vertex
    single = [metrics.brier(np.array([[p, 1 - p]]), [0]) for p in grid]
    assert grid[int(np.argmin(single))] == 1.0


def test_predictive_entropy_closed_forms():
    uniform = np.full((2, 10), 0.1)
    np.testing.assert_allclose(metrics.predictive_entropy(uniform),
                               [2.302585092994046] * 2, rtol=0, atol=1e-12)
    onehot = np.eye(3)[[2]]
    assert metrics.predictive_entropy(onehot)[0] == 0.0


def test_predictive_entropy_matches_xlogy():
    # numpy's log may differ from libm's by an ulp, so per-row sums may move
    # at round-off; exact 0s must still give 0*log(0) = 0, and 1s nothing
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.full(10, 0.3), size=5000)
    probs[rng.random(probs.shape) < 0.2] = 0.0
    probs[:100] = np.eye(10)[rng.integers(0, 10, 100)]
    probs /= probs.sum(axis=1, keepdims=True)
    got = metrics.predictive_entropy(probs)
    assert np.isfinite(got).all() and (got[:100] == 0.0).all()
    assert np.abs(got - -xlogy(probs, probs).sum(axis=1)).max() <= 4e-15


def test_auroc_extremes_and_ties():
    assert metrics.auroc([5.0, 6.0], [1.0, 2.0]) == 1.0
    assert metrics.auroc([1.0, 2.0], [5.0, 6.0]) == 0.0
    assert metrics.auroc([3.0, 3.0], [3.0]) == 0.5


def test_auroc_matches_pair_counting():
    gen = np.random.default_rng(2)
    # quantized scores force plenty of exact ties
    a = np.round(gen.normal(size=37) * 2) / 2
    b = np.round(gen.normal(size=23) * 2) / 2
    wins = sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b)
    assert abs(metrics.auroc(a, b) - wins / (37 * 23)) < 1e-12


# rounded scores tie often; the signed zeros and infinities tie or order as floats do
_TIED_SCORES = st.lists(st.one_of(
    st.integers(-20, 20).map(lambda i: i / 4.0),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf])), min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(scores=_TIED_SCORES)
@example(scores=[0.0, -0.0, np.inf, -np.inf, 1.0, 1.0, np.inf])
def test_average_ranks_equal_rankdata_bit_for_bit(scores):
    x = np.array(scores)
    assert metrics._average_ranks(x).tobytes() == rankdata(x).tobytes()


@settings(max_examples=100, deadline=None)
@given(a=_TIED_SCORES, b=_TIED_SCORES, data=st.data())
@example(a=[1.0, np.nan], b=[0.5], data=None)
def test_auroc_is_nan_whenever_a_score_is_nan(a, b, data):
    if data is not None:
        side = data.draw(st.sampled_from([a, b]))
        side[data.draw(st.integers(0, len(side) - 1))] = np.nan
    assert math.isnan(metrics.auroc(a, b))


def test_auroc_monotone_invariance_and_swap():
    gen = np.random.default_rng(3)
    a = gen.normal(size=25)
    b = gen.normal(size=31) + 0.7
    base = metrics.auroc(a, b)
    assert abs(metrics.auroc(np.exp(a), np.exp(b)) - base) < 1e-12
    assert abs(metrics.auroc(b, a) - (1.0 - base)) < 1e-12


def test_average_precision_hand_examples():
    # ranking: 3(pos), 2(neg), 1(pos) -> precisions 1/1 and 2/3
    assert abs(metrics.average_precision([3.0, 1.0], [2.0]) - 5.0 / 6.0) < 1e-12
    # tie between a positive and a negative counts the positive first
    assert metrics.average_precision([2.0], [2.0]) == 1.0
    assert metrics.average_precision([1.0], [2.0]) == 0.5
    # in=(3,1), out=(2,0): ranked 3:in 2:out 1:in 0:out, AP = (1 + 2/3)/2
    assert abs(metrics.average_precision_ood([3.0, 1.0], [2.0, 0.0], "in") - 5.0 / 6.0) < 1e-12


def test_average_precision_out_uses_ascending_order():
    # perfect separation both ways around
    s_in, s_out = np.array([5.0, 4.0]), np.array([1.0, 0.0])
    assert metrics.average_precision_ood(s_in, s_out, "in") == 1.0
    assert metrics.average_precision_ood(s_in, s_out, "out") == 1.0
    # ties under the ascending ranking still list in-samples first,
    # which is pessimistic for the out-positive direction
    assert abs(metrics.average_precision_ood([2.0], [2.0], "out") - 0.5) < 1e-12
    with pytest.raises(ValueError, match="'in' or 'out'"):
        metrics.average_precision_ood([1.0], [0.0], "both")


def test_average_precision_matches_loop():
    gen = np.random.default_rng(4)
    pos = np.round(gen.normal(size=19), 1)
    neg = np.round(gen.normal(size=28), 1)
    # independent implementation of the same tie rule via explicit sorting
    items = [(-s, 0, i) for i, s in enumerate(pos)] + [(-s, 1, i) for i, s in enumerate(neg)]
    items.sort()
    hits, precisions = 0, []
    for rank, (_, group, _) in enumerate(items, start=1):
        if group == 0:
            hits += 1
            precisions.append(hits / rank)
    assert abs(metrics.average_precision(pos, neg) - np.mean(precisions)) < 1e-12


# Score groups for the ranking oracles: values on a coarse grid of 1-8
# levels (1 level: every score tied), or unrestricted floats.
_GRID_GROUPS = st.integers(1, 8).flatmap(lambda levels: st.tuples(*[
    st.lists(st.integers(0, levels - 1).map(lambda v: 0.5 * v), min_size=1, max_size=25)] * 2))
_FLOAT_GROUPS = st.tuples(*[st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=25)] * 2)


def _auroc_by_pairs(a, b):
    wins = sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b)
    return wins / (len(a) * len(b))


def _ap_by_scan(scores_in, scores_out, positive):
    """Average precision by a scan down an explicit ranking: descending
    scores for positive="in", ascending for "out", in-samples first within
    a tie, each group in its own order."""
    sign = -1.0 if positive == "in" else 1.0
    items = sorted([(sign * s, 0, i) for i, s in enumerate(scores_in)]
                   + [(sign * s, 1, i) for i, s in enumerate(scores_out)])
    hit_group = 0 if positive == "in" else 1
    hits, precisions = 0, []
    for rank, (_, group, _) in enumerate(items, start=1):
        if group == hit_group:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


@settings(max_examples=150, deadline=None)
@given(groups=st.one_of(_GRID_GROUPS, _FLOAT_GROUPS))
@example(groups=([1.0], [1.0]))
@example(groups=([0.5], [0.0, 1.0, 0.5]))
@example(groups=([2.0] * 7, [2.0] * 4))
def test_ranking_metrics_match_the_oracles(groups):
    scores_in, scores_out = groups
    assert abs(metrics.auroc(scores_in, scores_out) - _auroc_by_pairs(scores_in, scores_out)) <= 1e-12
    for positive in ("in", "out"):
        got = metrics.average_precision_ood(scores_in, scores_out, positive)
        assert abs(got - _ap_by_scan(scores_in, scores_out, positive)) <= 1e-12, positive
    # the in-positive ranking is average_precision with in-samples positive
    assert (metrics.average_precision(scores_in, scores_out)
            == metrics.average_precision_ood(scores_in, scores_out, "in"))


def test_score_group_validation():
    with pytest.raises(ValueError, match="nonempty"):
        metrics.auroc([], [1.0])
    with pytest.raises(ValueError, match="nonempty"):
        metrics.average_precision([1.0], [])
    with pytest.raises(ValueError, match="nonempty"):
        metrics.average_precision_ood([], [1.0], "out")


def _two_blob_checkpoint():
    cfg = net.MlpConfig(input_dim=2, hidden_dims=(), output_dim=2, nonlinearity="identity")
    params = net.mlp_init(cfg, seed=0)
    params.weights[0] = np.eye(2)
    mixture = mx.mixture_init(2, 1, 2, seed=0, mean_scale=0.0)
    mixture.means[0, 0] = np.array([-2.0, 0.0])
    mixture.means[1, 0] = np.array([2.0, 0.0])
    return Checkpoint(method="mass", net=params, mixture=mixture, norm=None, n_classes=2)


def test_ood_entropy_score_is_negated_entropy():
    # all scores share one orientation: higher means in-distribution
    ckpt = _two_blob_checkpoint()
    x = np.array([[2.0, 0.0], [0.0, 0.0]])  # at a mean vs between the classes
    s = metrics.ood_scores(ckpt, x, "entropy")
    probs = np.array([[0.5, 0.5]])
    assert abs(metrics.ood_scores(ckpt, np.zeros((1, 2)), "entropy")[0]
               + metrics.predictive_entropy(probs)[0]) < 1e-9
    assert s[0] > s[1]  # confident sample scores higher


def test_ood_scores_separate_shifted_data():
    ckpt = _two_blob_checkpoint()
    gen = np.random.default_rng(5)
    x_in = gen.normal(size=(80, 2)) * 0.7
    x_in[:, 0] += np.where(gen.random(80) < 0.5, -2.0, 2.0)
    x_out = gen.normal(size=(80, 2)) * 0.7 + np.array([0.0, 9.0])
    for name in metrics.OOD_SCORE_NAMES:
        s_in = metrics.ood_scores(ckpt, x_in, name)
        s_out = metrics.ood_scores(ckpt, x_out, name)
        assert metrics.auroc(s_in, s_out) > 0.95, name
    # the marginal density score is essentially perfect here
    assert metrics.auroc(metrics.ood_scores(ckpt, x_in, "marginal_q"),
                         metrics.ood_scores(ckpt, x_out, "marginal_q")) == 1.0
    with pytest.raises(ValueError, match="unknown score"):
        metrics.ood_scores(ckpt, x_in, "logit")


def test_ood_density_scores_need_a_mixture():
    cfg = net.MlpConfig(input_dim=2, hidden_dims=(), output_dim=2, nonlinearity="identity")
    ckpt = Checkpoint(method="softmaxce", net=net.mlp_init(cfg, seed=0),
                      mixture=None, norm=None, n_classes=2)
    x = np.zeros((3, 2))
    assert metrics.ood_scores(ckpt, x, "entropy").shape == (3,)
    for name in ("max_q", "marginal_q"):
        with pytest.raises(ValueError, match="mle_fit"):
            metrics.ood_scores(ckpt, x, name)
