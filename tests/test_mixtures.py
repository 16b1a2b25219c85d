import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.special import expit
from scipy.stats import multivariate_normal

from masslearn import autodiff as ad
from masslearn import mixtures as mx
from masslearn import optim
from masslearn import rng as rngmod


def unit_mixture(n_classes=1, n_components=1, dim=1, seed=0):
    m = mx.mixture_init(n_classes, n_components, dim, seed)
    m.means[:] = 0.0
    return m


def test_vjp_sigmoid_equals_expit_bit_for_bit():
    edges = np.array([700.0, 709.7, 709.8, 745.0, 1e308, np.inf])
    x = np.concatenate([np.random.default_rng(2).normal(size=100000) * 5, edges, -edges,
                        [0.0, np.nan]])
    np.testing.assert_array_equal(mx._expit(x), expit(x))
    # the VJP passes a (K, r) strided view of the diagonals
    raw = np.random.default_rng(3).normal(size=(4, 5, 5)) * 5
    diag = np.diagonal(raw, axis1=1, axis2=2)
    np.testing.assert_array_equal(mx._expit(diag), expit(diag))


def test_standard_normal_log_density():
    m = unit_mixture()
    got = mx.mixture_log_density(m, 0, np.array([0.0]))
    assert got == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_two_component_symmetric_mixture():
    m = unit_mixture(n_components=2)
    m.means[0, 0, 0] = 1.0
    m.means[0, 1, 0] = -1.0
    got = mx.mixture_log_density(m, 0, np.array([0.0]))
    assert got == pytest.approx(-0.5 - 0.9189385332046727, abs=1e-12)


def test_posterior_two_unit_gaussians():
    m = unit_mixture(n_classes=2)
    m.means[0, 0, 0] = 1.0
    m.means[1, 0, 0] = -1.0
    post = mx.class_posterior(m, np.array([1.0]))
    sig = 1.0 / (1.0 + np.exp(-2.0))
    assert post[0] == pytest.approx(sig, abs=1e-12)
    assert post[1] == pytest.approx(1.0 - sig, abs=1e-12)


def test_full_covariance_matches_scipy():
    gen = np.random.default_rng(5)
    for n_classes, n_components, dim in ((1, 1, 3), (2, 3, 3)):
        m = mx.mixture_init(n_classes, n_components, dim, seed=2)
        m.chol_raw = gen.normal(size=m.chol_raw.shape)
        m.means = gen.normal(size=m.means.shape)
        if n_components > 1:
            m.weight_logits = gen.normal(size=m.weight_logits.shape)
        z = gen.normal(size=(20, dim))
        got = mx.class_log_density_matrix(m, z)
        for c in range(n_classes):
            w = np.exp(m.weight_logits[c]) / np.exp(m.weight_logits[c]).sum()
            dens = np.zeros(len(z))
            for k in range(n_components):
                l_fac = mx.chol_factor(m.chol_raw[c, k])
                dens += w[k] * multivariate_normal(mean=m.means[c, k], cov=l_fac @ l_fac.T).pdf(z)
            np.testing.assert_allclose(got[:, c], np.log(dens), rtol=0, atol=1e-10)


def test_fit_priors():
    m = unit_mixture(n_classes=2)
    fitted = mx.fit_priors(m, [0, 0, 0, 1])
    np.testing.assert_allclose(fitted.class_priors, [0.75, 0.25], atol=0)
    np.testing.assert_allclose(m.class_priors, [0.5, 0.5], atol=0)  # original untouched


def test_marginal_integrates_to_one():
    m = mx.mixture_init(2, 2, 1, seed=7)
    m = mx.fit_priors(m, [0, 1, 1])
    grid = np.linspace(-30, 30, 200001)[:, None]
    dens = np.exp(mx.marginal_log_density(m, grid))
    assert np.trapezoid(dens, grid[:, 0]) == pytest.approx(1.0, abs=1e-6)


def test_posterior_rows_normalized():
    m = mx.mixture_init(4, 3, 2, seed=9)
    z = np.random.default_rng(3).normal(size=(50, 2))
    post = mx.class_posterior(m, z)
    assert post.shape == (50, 4)
    assert np.all(post >= 0)
    np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)


def test_extreme_points_stay_finite():
    m = mx.mixture_init(2, 2, 2, seed=1)
    far = np.array([[1e3, -1e3]])
    val = mx.marginal_log_density(m, far)[0]
    assert np.isfinite(val)
    assert val < -1e5


def test_tape_matches_fast_path_bitwise():
    m = mx.mixture_init(3, 2, 2, seed=11)
    m = mx.fit_priors(m, [0, 0, 1, 2, 2, 2])
    gen = np.random.default_rng(13)
    z = gen.normal(size=(9, 2))
    labels = gen.integers(0, 3, size=9)

    tape = ad.Tape()
    pnodes = mx.make_mixture_nodes(tape, m)
    dens = mx.density_nodes(tape, pnodes, m, tape.constant(z), labels)

    cond = mx.class_log_density_matrix(m, z)
    with np.errstate(divide="ignore"):
        scored = cond + np.log(m.class_priors)
    marg = mx._logsumexp_rows(scored)
    np.testing.assert_array_equal(dens.class_cond.value, cond)
    np.testing.assert_array_equal(dens.marginal.value, marg)
    np.testing.assert_array_equal(ad.take_per_row(dens.class_cond, labels).value, cond[np.arange(9), labels])
    np.testing.assert_array_equal(dens.log_post_own.value,
                                  scored[np.arange(9), labels] - marg)


def test_density_gradients_match_finite_differences():
    m = mx.mixture_init(2, 2, 2, seed=4)
    m = mx.fit_priors(m, [0, 1, 1])
    m.weight_logits = np.array([[0.3, -0.2], [-0.5, 0.1]])
    gen = np.random.default_rng(8)
    z = gen.normal(size=(5, 2))
    labels = np.array([0, 1, 1, 0, 1])
    names = list(mx.mixture_param_arrays(m).keys())

    def builder(tape, *leaves):
        pnodes = dict(zip(names, leaves[:-1]))
        dens = mx.density_nodes(tape, pnodes, m, leaves[-1], labels)
        return ad.add(ad.mean_all(ad.take_per_row(dens.class_cond, labels)), ad.mean_all(dens.marginal))

    points = [arr.copy() for arr in mx.mixture_param_arrays(m).values()] + [z]
    report = ad.grad_check(builder, points)
    assert report.max_rel_error <= 1e-5, str(report)


def test_param_arrays_are_the_mixture_tensors():
    m = mx.mixture_init(2, 3, 2, seed=1)
    arrays = mx.mixture_param_arrays(m)
    assert list(arrays) == ["mix_means", "mix_chol_raw", "mix_weight_logits"]
    assert arrays["mix_means"] is m.means
    assert arrays["mix_chol_raw"] is m.chol_raw
    assert arrays["mix_weight_logits"] is m.weight_logits
    fresh = {name: arr + 1.0 for name, arr in arrays.items()}
    mx.set_mixture_param_arrays(m, fresh)
    assert all(mx.mixture_param_arrays(m)[name] is arr for name, arr in fresh.items())


def test_mle_fit_single_gaussian_recovers_moments():
    gen = np.random.default_rng(42)
    cov = np.array([[1.3, 0.6], [0.6, 0.9]])
    mean = np.array([0.7, -1.2])
    z = gen.multivariate_normal(mean, cov, size=400)
    labels = np.zeros(400, dtype=int)

    m = mx.mle_fit(z, labels, n_classes=1, n_components=1, steps=1500, seed=3, lr=0.05)
    m = mx.mle_fit(z, labels, n_classes=1, n_components=1, steps=800, seed=3, lr=0.002, init=m)

    smean = z.mean(axis=0)
    scov = (z - smean).T @ (z - smean) / z.shape[0]
    l_fac = mx.chol_factor(m.chol_raw[0, 0])
    np.testing.assert_allclose(m.means[0, 0], smean, atol=1e-6)
    np.testing.assert_allclose(l_fac @ l_fac.T, scov, atol=1e-4)


def test_mle_fit_init_matches_per_class_loop():
    # reference: class moments and jitter drawn one component at a time
    gen = np.random.default_rng(6)
    z = gen.normal(size=(40, 3)) * [1.0, 2.0, 0.5]
    labels = np.arange(40) % 3
    m = mx.mle_fit(z, labels, 3, 2, steps=0, seed=4)
    jitter = rngmod.stream(4, "mle-init")
    for c in range(3):
        zc = z[labels == c]
        std = zc.std(axis=0)
        for k in range(2):
            want = zc.mean(axis=0) + (0.25 * std.mean() + 1e-3) * jitter.normal(size=3)
            np.testing.assert_allclose(m.means[c, k], want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.diagonal(mx.chol_factor(m.chol_raw[c, k])), std,
                                       rtol=1e-12)


def test_mle_fit_deterministic_and_requires_enough_samples():
    gen = np.random.default_rng(0)
    z = gen.normal(size=(30, 2))
    labels = np.array([0] * 15 + [1] * 15)
    a = mx.mle_fit(z, labels, 2, 2, steps=20, seed=5)
    b = mx.mle_fit(z, labels, 2, 2, steps=20, seed=5)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.chol_raw, b.chol_raw)
    with pytest.raises(ValueError, match="at least"):
        mx.mle_fit(z[:3], labels[:3], 2, 2, steps=5, seed=1)
    with pytest.raises(ValueError, match="out of range"):
        mx.mle_fit(z, labels + 1, 2, 1, steps=5, seed=1)


def test_label_out_of_range_rejected():
    m = unit_mixture(n_classes=2)
    with pytest.raises(ValueError, match="out of range"):
        mx.mixture_log_density(m, 5, np.array([0.0]))


def test_negative_labels_rejected_as_out_of_range():
    z = np.random.default_rng(2).normal(size=(12, 2))
    labels = np.array([0] * 6 + [1] * 5 + [-1])
    with pytest.raises(ValueError, match="mle_fit: label out of range"):
        mx.mle_fit(z, labels, 2, 1, steps=1, seed=0)
    with pytest.raises(ValueError, match="fit_priors: label out of range"):
        mx.fit_priors(unit_mixture(n_classes=2), labels)


def test_mle_fit_names_the_short_class():
    z = np.random.default_rng(3).normal(size=(9, 2))
    labels = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
    with pytest.raises(ValueError, match="n_components=3 samples; class 1 has 2"):
        mx.mle_fit(z, labels, 3, 3, steps=1, seed=0)


# Reference head: whitening by one triangular solve per component, as the
# head computed before it moved onto precomputed inverse factors.


def _ref_class_terms(means_c, raw_c, z):
    r = means_c.shape[-1]
    l_fac = mx.chol_factor(raw_c)
    resid = np.swapaxes(z[None, :, :] - means_c[:, None, :], 1, 2)
    y = scipy.linalg.solve_triangular(l_fac, resid, lower=True, check_finite=False)
    sumlog = np.log(np.diagonal(l_fac, axis1=1, axis2=2)).sum(axis=1)
    comp = (-0.5 * r * mx.LOG_2PI) - (0.5 * (y * y).sum(axis=1) + sumlog[:, None])
    return l_fac, y, comp.T


def _ref_class_log_density(means, chol_raw, weight_logits, z):
    log_w = mx._log_weights(weight_logits)
    cols = [mx._logsumexp_rows(_ref_class_terms(means[c], chol_raw[c], z)[2] + log_w[c])
            for c in range(means.shape[0])]
    return np.stack(cols, axis=1)


def _ref_class_log_density_vjp(means, chol_raw, weight_logits, z, out, g):
    log_w = mx._log_weights(weight_logits)
    d_z = np.zeros_like(z)
    d_means = np.empty_like(means)
    d_raw = np.empty_like(chol_raw)
    d_logits = np.empty_like(weight_logits)
    idx = np.arange(means.shape[-1])
    for c in range(means.shape[0]):
        l_fac, y, comp = _ref_class_terms(means[c], chol_raw[c], z)
        h = g[:, c, None] * np.exp(comp + log_w[c] - out[:, c, None])
        u = scipy.linalg.solve_triangular(l_fac, y, trans="T", lower=True, check_finite=False)
        hu = u * h.T[:, None, :]
        d_z -= hu.sum(axis=0).T
        d_means[c] = hu.sum(axis=2)
        h_sum = h.sum(axis=0)
        d_l = np.tril(hu @ np.swapaxes(y, 1, 2))
        d_l[:, idx, idx] -= h_sum[:, None] / l_fac[:, idx, idx]
        d_l[:, idx, idx] *= expit(chol_raw[c][:, idx, idx])
        d_raw[c] = d_l
        d_logits[c] = h_sum - np.exp(log_w[c]) * g[:, c].sum()
    return d_z, d_means, d_raw, d_logits


def _random_head(gen, n_classes, n_components, r):
    means = gen.normal(size=(n_classes, n_components, r))
    # well conditioned: diagonals near 1 after softplus, small strict lower parts
    chol_raw = np.tril(gen.normal(size=(n_classes, n_components, r, r)) * 0.3 / np.sqrt(r), -1)
    idx = np.arange(r)
    chol_raw[:, :, idx, idx] = mx.INV_SOFTPLUS_ONE + 0.5 * gen.normal(size=(n_classes, n_components, r))
    weight_logits = gen.normal(size=(n_classes, n_components))
    return means, chol_raw, weight_logits


def _assert_head_matches_reference(n_classes, n_components, r, n, seed):
    gen = np.random.default_rng(seed)
    means, chol_raw, weight_logits = _random_head(gen, n_classes, n_components, r)
    z = gen.normal(size=(n, r)) * 1.5
    g = gen.normal(size=(n, n_classes))

    want = _ref_class_log_density(means, chol_raw, weight_logits, z)
    got = mx.class_log_density(means, chol_raw, weight_logits, z)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    wants = _ref_class_log_density_vjp(means, chol_raw, weight_logits, z, want, g)
    gots = mx._class_log_density_vjp(means, chol_raw, weight_logits, z, want, g)
    for name, got_d, want_d in zip(("z", "means", "chol_raw", "weight_logits"), gots, wants):
        assert got_d.shape == want_d.shape, name
        err = np.abs(got_d - want_d) / np.maximum(1.0, np.abs(want_d))
        assert err.max() <= 1e-12, (name, err.max())


@settings(max_examples=60, deadline=None)
@given(n_classes=st.integers(1, 4), n_components=st.integers(1, 4), r=st.integers(1, 6),
       n=st.integers(1, 40), seed=st.integers(0, 2**31 - 1))
def test_head_matches_triangular_solve_reference(n_classes, n_components, r, n, seed):
    _assert_head_matches_reference(n_classes, n_components, r, n, seed)


def test_head_matches_triangular_solve_reference_at_cifar_shape():
    _assert_head_matches_reference(10, 10, 15, 256, seed=3)


def test_singular_factor_raises_where_the_triangular_solve_does():
    m = mx.mixture_init(2, 2, 3, seed=0)
    z = np.random.default_rng(1).normal(size=(5, 3))
    m.chol_raw[1, 0, 2, 2] = -30.0   # tiny but nonzero diagonal: both paths go on
    _ref_class_log_density(m.means, m.chol_raw, m.weight_logits, z)
    mx.class_log_density_matrix(m, z)
    m.chol_raw[1, 0, 2, 2] = -800.0  # softplus underflows to exactly 0
    assert mx.chol_factor(m.chol_raw)[1, 0, 2, 2] == 0.0
    with pytest.raises(np.linalg.LinAlgError):
        _ref_class_log_density(m.means, m.chol_raw, m.weight_logits, z)
    with pytest.raises(np.linalg.LinAlgError):
        mx.class_log_density_matrix(m, z)
    with pytest.raises(np.linalg.LinAlgError):
        mx._class_log_density_vjp(m.means, m.chol_raw, m.weight_logits, z,
                                  np.zeros((5, 2)), np.ones((5, 2)))


def test_constant_points_get_no_gradient():
    # points held as a tape constant get no gradient, which is then never
    # formed, and the parameter gradients are those of the two-sided VJP bit for bit
    m = mx.mixture_init(3, 2, 4, seed=5, mean_scale=0.7)
    gen = np.random.default_rng(6)
    z, labels = gen.normal(size=(20, 4)), gen.integers(0, 3, size=20)
    grads = {}
    for z_is_leaf in (True, False):
        tape = ad.Tape()
        pnodes = mx.make_mixture_nodes(tape, m)
        z_node = tape.leaf(z) if z_is_leaf else tape.constant(z)
        dens = mx.density_nodes(tape, pnodes, m, z_node, labels)
        assert (dens.class_cond.vjp(np.ones((20, 3)))[0] is None) == (not z_is_leaf)
        got = ad.backward(ad.sum_all(ad.take_per_row(dens.class_cond, labels)), list(pnodes.values()))
        grads[z_is_leaf] = [got[node].tobytes() for node in pnodes.values()]
    assert grads[True] == grads[False]


# Reference fit: -mean_i log q(z_i | y_i) through the full (N, C) density
# node on a tape, as mle_fit computed its gradients before it moved onto
# each class's own rows.


def _tape_fit_grads(m, z, labels):
    tape = ad.Tape()
    pnodes = mx.make_mixture_nodes(tape, m)
    dens = mx.density_nodes(tape, pnodes, m, tape.constant(z), labels)
    grads = ad.backward(ad.neg(ad.mean_all(ad.take_per_row(dens.class_cond, labels))), list(pnodes.values()))
    tape.release()
    return {name: grads[node] for name, node in pnodes.items()}


def _tape_fit(z, labels, n_classes, n_components, steps, seed, lr):
    m = mx.mle_fit(z, labels, n_classes, n_components, steps=0, seed=seed)
    state = optim.AdamState()
    for _ in range(steps):
        grads = _tape_fit_grads(m, z, labels)
        mx.set_mixture_param_arrays(m, optim.adam_step(mx.mixture_param_arrays(m), grads, state, lr))
    return m


@st.composite
def _labelled_points(draw):
    n_classes = draw(st.integers(1, 4))
    n_components = draw(st.integers(1, 3))
    r = draw(st.integers(1, 4))
    # unbalanced classes, and some class at exactly n_components rows
    counts = [draw(st.integers(n_components, n_components + 25)) for _ in range(n_classes)]
    counts[draw(st.integers(0, n_classes - 1))] = n_components
    gen = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    labels = gen.permutation(np.repeat(np.arange(n_classes), counts))
    z = gen.normal(size=(len(labels), r)) * 1.5 + 2.0 * labels[:, None]
    return z, labels, n_components, gen


def _max_rel_error(got: dict, want: dict) -> float:
    # relative to the largest entry of all the tensors together: the weight
    # logit gradient of a one-component class is zero up to round-off
    scale = max(np.abs(arr).max() for arr in want.values())
    return max(np.abs(got[name] - arr).max() for name, arr in want.items()) / scale


@settings(max_examples=60, deadline=None)
@given(case=_labelled_points())
def test_own_rows_gradients_match_the_tape(case):
    z, labels, n_components, gen = case
    n_classes, r = labels.max() + 1, z.shape[1]
    m = mx.mixture_init(n_classes, n_components, r, seed=0)
    m.means, m.chol_raw, m.weight_logits = _random_head(gen, n_classes, n_components, r)
    m.means += 2.0 * np.arange(n_classes)[:, None, None]
    z_own = [z[labels == c] for c in range(n_classes)]
    got = mx._own_rows_grads(m, z_own, mx._own_row_gradient_sums(labels, n_classes))
    assert _max_rel_error(got, _tape_fit_grads(m, z, labels)) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(case=_labelled_points())
def test_mle_fit_matches_the_tape_fit(case):
    z, labels, n_components, _ = case
    n_classes = labels.max() + 1
    got = mx.mle_fit(z, labels, n_classes, n_components, steps=20, seed=2, lr=0.05)
    want = _tape_fit(z, labels, n_classes, n_components, steps=20, seed=2, lr=0.05)

    def fitted(m):
        # log weights, not logits: a one-component class's logit only ever
        # moves by Adam steps on a gradient that is round-off
        return {"means": m.means, "chol_raw": m.chol_raw, "log_w": mx._log_weights(m.weight_logits)}

    # Adam divides each step by the gradient's running scale, so round-off
    # grows a little over the 20 steps
    assert _max_rel_error(fitted(got), fitted(want)) <= 1e-10
    np.testing.assert_array_equal(got.class_priors, want.class_priors)


def test_mle_fit_builds_no_tape(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mle_fit used the autodiff tape")

    monkeypatch.setattr(ad, "Tape", refuse)
    monkeypatch.setattr(ad, "backward", refuse)
    gen = np.random.default_rng(4)
    z, labels = gen.normal(size=(30, 3)), np.arange(30) % 3
    m = mx.mle_fit(z, labels, 3, 2, steps=5, seed=0)
    assert np.all(np.isfinite(m.means))
