import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from masslearn import autodiff as ad
from masslearn import network as net

import helpers


def small_config(**kw):
    defaults = dict(input_dim=2, hidden_dims=(3,), output_dim=2)
    defaults.update(kw)
    return net.MlpConfig(**defaults)


def test_init_bounds_and_determinism():
    cfg = net.MlpConfig(input_dim=3072, hidden_dims=(400,), output_dim=15)
    p1 = net.mlp_init(cfg, seed=5)
    p2 = net.mlp_init(cfg, seed=5)
    p3 = net.mlp_init(cfg, seed=6)
    bound = np.sqrt(6.0 / (3072 + 400))
    assert np.abs(p1.weights[0]).max() <= bound
    assert bound == pytest.approx(0.0415705, abs=1e-6)
    np.testing.assert_array_equal(p1.weights[0], p2.weights[0])
    assert not np.array_equal(p1.weights[0], p3.weights[0])
    assert np.all(p1.biases[0] == 0.0)


def test_affine_forward_matches_numpy():
    cfg = net.MlpConfig(input_dim=4, hidden_dims=(), output_dim=3)
    params = net.mlp_init(cfg, seed=0)
    x = np.random.default_rng(1).normal(size=(5, 4))
    got = net.forward_fast(params, x)
    want = x @ params.weights[0].T + params.biases[0]
    np.testing.assert_array_equal(got, want)


def test_batch_forward_equals_stacked_singles():
    cfg = small_config(hidden_dims=(4, 3))
    params = net.mlp_init(cfg, seed=2)
    x = np.random.default_rng(3).normal(size=(2, 2))
    batch = net.forward_fast(params, x)
    singles = np.vstack([net.forward_fast(params, x[0]), net.forward_fast(params, x[1])])
    np.testing.assert_allclose(batch, singles, atol=1e-14)


def test_tape_forward_matches_fast_forward_bitwise():
    cfg = net.MlpConfig(input_dim=5, hidden_dims=(6, 4), output_dim=3,
                        dropout_rate=0.3, use_batchnorm=True)
    params = net.mlp_init(cfg, seed=4)
    gen = np.random.default_rng(9)
    mask = net.sample_dropout_mask(cfg, gen)
    x = gen.normal(size=(7, 5))

    fast, stats = net.forward_fast(params, x, mode="train", dropout_mask=mask, return_stats=True)
    tape = ad.Tape()
    pnodes = net.make_param_nodes(tape, params)
    out, _ = net.forward_nodes(tape, pnodes, params, tape.leaf(x), mode="train",
                               dropout_mask=mask, batch_stats=stats)
    np.testing.assert_array_equal(fast, out.value)


def test_elu_values():
    cfg = net.MlpConfig(input_dim=3, hidden_dims=(3,), output_dim=3)
    params = net.mlp_init(cfg, seed=0)
    params.weights = [np.eye(3), np.eye(3)]
    got = net.forward_fast(params, np.array([-1.0, 0.0, 2.0]))[0]
    assert got[0] == pytest.approx(math.exp(-1) - 1, abs=1e-12)
    assert got[1] == 0.0
    assert got[2] == 2.0


def test_elu_derivative_at_zero_is_one():
    # through the tape's block node and through the block scale of jacobian_batch
    cfg = net.MlpConfig(input_dim=1, hidden_dims=(1,), output_dim=1)
    params = net.mlp_init(cfg, seed=0)
    params.weights = [np.ones((1, 1)), np.ones((1, 1))]
    assert net.jacobian_matrix(params, np.zeros(1))[0, 0] == 1.0
    assert net.jacobian_batch(params, np.zeros(1))[0, 0, 0] == 1.0


def test_jacobian_matrix_matches_finite_differences():
    cfg = net.MlpConfig(input_dim=3, hidden_dims=(5, 4), output_dim=2)
    params = net.mlp_init(cfg, seed=7)
    x = np.array([0.3, -0.7, 1.1])
    jac = net.jacobian_matrix(params, x)
    eps = 1e-6
    for j in range(3):
        hi, lo = x.copy(), x.copy()
        hi[j] += eps
        lo[j] -= eps
        numeric = (net.forward_fast(params, hi)[0] - net.forward_fast(params, lo)[0]) / (2 * eps)
        np.testing.assert_allclose(jac[:, j], numeric, atol=1e-6)


def test_jacobian_batch_matches_per_sample():
    cfg = net.MlpConfig(input_dim=6, hidden_dims=(5,), output_dim=4,
                        dropout_rate=0.25, use_batchnorm=True)
    params = net.mlp_init(cfg, seed=8)
    gen = np.random.default_rng(11)
    mask = net.sample_dropout_mask(cfg, gen)
    x = gen.normal(size=(5, 6))
    _, stats = net.forward_fast(params, x, mode="train", dropout_mask=mask, return_stats=True)
    batched = net.jacobian_batch(params, x, mode="train", dropout_mask=mask, batch_stats=stats)
    for i in range(5):
        single = net.jacobian_matrix(params, x[i], mode="train", dropout_mask=mask, batch_stats=stats)
        np.testing.assert_allclose(batched[i], single, rtol=1e-12, atol=1e-14)


def test_zero_final_layer_gives_zero_jacobian():
    cfg = small_config()
    params = net.mlp_init(cfg, seed=1)
    params.weights[-1] = np.zeros_like(params.weights[-1])
    jac = net.jacobian_matrix(params, np.array([0.5, -0.2]))
    np.testing.assert_array_equal(jac, np.zeros((2, 2)))


def test_diag_affine_log_jacobian():
    cfg = net.MlpConfig(input_dim=2, hidden_dims=(), output_dim=2)
    params = net.mlp_init(cfg, seed=0)
    params.weights[0] = np.diag([2.0, 3.0])
    got = net.log_jacobian_determinant(params, np.array([0.1, 0.2]), jitter=0.0)
    assert got == pytest.approx(np.log(6.0), abs=1e-12)


def test_identity_stack_log_jacobian_matches_weight_product():
    gen = np.random.default_rng(21)
    cfg = net.MlpConfig(input_dim=4, hidden_dims=(5, 3), output_dim=2, nonlinearity="identity")
    params = net.mlp_init(cfg, seed=3)
    for li in range(3):
        params.biases[li] = gen.normal(size=params.biases[li].shape)
    w_eff = params.weights[2] @ params.weights[1] @ params.weights[0]
    want = 0.5 * np.linalg.slogdet(w_eff @ w_eff.T)[1]
    got = net.log_jacobian_determinant(params, gen.normal(size=4), jitter=0.0)
    assert got == pytest.approx(want, abs=1e-10)


def test_affine_head_shifts_log_jacobian_by_logdet():
    gen = np.random.default_rng(13)
    cfg = net.MlpConfig(input_dim=2, hidden_dims=(6,), output_dim=2)
    params = net.mlp_init(cfg, seed=5)
    x = gen.normal(size=2)
    base = net.log_jacobian_determinant(params, x, jitter=0.0)

    head = np.array([[1.5, 0.3], [-0.2, 0.8]])
    composed = net.mlp_init(cfg, seed=5)
    composed.weights[-1] = head @ params.weights[-1]
    composed.biases[-1] = head @ params.biases[-1]
    got = net.log_jacobian_determinant(composed, x, jitter=0.0)
    assert got - base == pytest.approx(np.log(abs(np.linalg.det(head))), abs=1e-8)


def test_log_jacobian_nodes_match_scalar_routine():
    cfg = net.MlpConfig(input_dim=3, hidden_dims=(4,), output_dim=2)
    params = net.mlp_init(cfg, seed=9)
    x = np.random.default_rng(17).normal(size=(4, 3))
    tape = ad.Tape()
    pnodes = net.make_param_nodes(tape, params)
    nodes = net.log_jacobian_nodes(tape, pnodes, params, tape.leaf(x), jitter=1e-9, mode="eval")
    for i in range(4):
        want = net.log_jacobian_determinant(params, x[i], jitter=1e-9)
        assert nodes[i].item() == pytest.approx(want, rel=1e-12)


def test_log_jacobian_theta_gradient_matches_finite_differences():
    cfg = net.MlpConfig(input_dim=2, hidden_dims=(3,), output_dim=2)
    params = net.mlp_init(cfg, seed=12)
    x = np.array([[0.4, -0.9]])
    jitter = 1e-9

    tape = ad.Tape()
    pnodes = net.make_param_nodes(tape, params)
    (ld,) = net.log_jacobian_nodes(tape, pnodes, params, tape.leaf(x), jitter=jitter, mode="eval")
    grads = ad.backward(ld, list(pnodes.values()))

    eps = 1e-6
    for name, node in pnodes.items():
        arr = dict(net.param_arrays(params))[name]
        flat = arr.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = net.log_jacobian_determinant(params, x[0], jitter=jitter)
            flat[k] = orig - eps
            lo = net.log_jacobian_determinant(params, x[0], jitter=jitter)
            flat[k] = orig
            numeric = (hi - lo) / (2 * eps)
            analytic = grads[node].reshape(-1)[k]
            assert abs(analytic - numeric) / max(1.0, abs(analytic)) <= 1e-4, (name, k)


def test_degenerate_jacobian_error_carries_index():
    cfg = net.MlpConfig(input_dim=2, hidden_dims=(), output_dim=2)
    params = net.mlp_init(cfg, seed=0)
    params.weights[0] = np.full((2, 2), np.nan)
    with pytest.raises(net.DegenerateJacobianError, match="sample index 0"):
        net.log_jacobian_batch(params, np.zeros((1, 2)), jitter=1e-8)


def test_zero_jacobian_recovers_via_jitter_retry():
    cfg = net.MlpConfig(input_dim=2, hidden_dims=(), output_dim=2)
    params = net.mlp_init(cfg, seed=0)
    params.weights[0] = np.zeros((2, 2))
    got = net.log_jacobian_determinant(params, np.zeros(2), jitter=0.0)
    assert got == pytest.approx(0.5 * np.log(1e-8) * 2, rel=1e-9)


def test_half_logdet_gram_values_retry_and_errors():
    assert net.half_logdet_gram(np.eye(3)[None], 0.0)[0] == pytest.approx(0.0, abs=1e-15)
    assert net.half_logdet_gram(np.diag([2.0, 3.0])[None], 0.0)[0] == pytest.approx(np.log(6.0), abs=1e-15)
    gen = np.random.default_rng(7)
    l_fac = np.tril(gen.normal(size=(20, 4, 4)))
    diag = np.diagonal(l_fac, axis1=1, axis2=2)
    l_fac[:, np.arange(4), np.arange(4)] = np.sign(diag) * (0.3 + np.abs(diag))
    want = np.log(np.abs(np.diagonal(l_fac, axis1=1, axis2=2))).sum(axis=1)
    np.testing.assert_allclose(net.half_logdet_gram(l_fac, 0.0), want, rtol=0, atol=1e-12)

    # only sample 2 is singular at jitter 0: it alone is retried at JITTER_RETRY
    jac = gen.normal(size=(4, 2, 3))
    jac[2] = 0.0
    got = net.half_logdet_gram(jac, 0.0)
    assert got[2] == pytest.approx(np.log(net.JITTER_RETRY), rel=1e-12)
    for i in (0, 1, 3):
        assert got[i] == net.half_logdet_gram(jac[i:i + 1], 0.0)[0]

    jac[1, 0, 0] = np.nan
    with pytest.raises(net.DegenerateJacobianError, match="sample index 1"):
        net.half_logdet_gram(jac, 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), r=st.integers(1, 4), extra=st.integers(0, 3),
       hidden=st.lists(st.integers(1, 6), max_size=2), batchnorm=st.booleans(),
       dropout=st.sampled_from([0.0, 0.3]), n=st.integers(1, 5), stat_nodes=st.booleans())
def test_volume_node_matches_log_jacobian_batch(seed, r, extra, hidden, batchnorm, dropout, n,
                                                stat_nodes):
    # batch statistics reach the node as arrays or, as in training, as the
    # main tape pass's nodes
    cfg = net.MlpConfig(input_dim=r + extra, hidden_dims=tuple(h + r for h in hidden), output_dim=r,
                        use_batchnorm=batchnorm, dropout_rate=dropout)
    params = net.mlp_init(cfg, seed=seed % 1000)
    gen = np.random.default_rng(seed)
    mask = net.sample_dropout_mask(cfg, gen)
    x = gen.normal(size=(n + 2, cfg.input_dim))
    tape = ad.Tape()
    pnodes = net.make_param_nodes(tape, params)
    _, stats = net.forward_nodes(tape, pnodes, params, tape.constant(x), mode="train",
                                 dropout_mask=mask)
    arrays = [(mean.value, invstd.value) for mean, invstd in stats]
    want = net.log_jacobian_batch(params, x[:n], jitter=1e-6, mode="train",
                                  dropout_mask=mask, batch_stats=arrays)
    nodes = net.log_jacobian_nodes(tape, pnodes, params, tape.constant(x[:n]), jitter=1e-6,
                                   mode="train", dropout_mask=mask,
                                   batch_stats=stats if stat_nodes else arrays)
    np.testing.assert_allclose([v.item() for v in nodes], want, rtol=0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), width=st.integers(2, 5), batchnorm=st.booleans(),
       dropout=st.sampled_from([0.0, 0.3]), nonlinearity=st.sampled_from(["elu", "identity"]),
       mode=st.sampled_from(["train", "eval"]), stats=st.sampled_from(["nodes", "arrays", "none"]))
def test_block_nodes_grad_check(seed, width, batchnorm, dropout, nonlinearity, mode, stats):
    # gradients of the network output and of the summed volume term in the
    # input, weights, biases and batchnorm parameters, against central
    # differences; batch statistics come from a train-mode tape pass on the
    # same batch (nodes), from forward_fast (arrays), or from the mode itself
    cfg = net.MlpConfig(input_dim=3, hidden_dims=(width, 3), output_dim=2,
                        nonlinearity=nonlinearity, dropout_rate=dropout, use_batchnorm=batchnorm)
    params = net.mlp_init(cfg, seed=seed % 1000)
    gen = np.random.default_rng(seed)
    for li in range(len(params.bn_scale)):
        params.bn_scale[li] = gen.uniform(0.5, 1.5, size=params.bn_scale[li].shape)
        params.bn_shift[li] = 0.3 * gen.normal(size=params.bn_shift[li].shape)
        params.bn_mean[li] = 0.3 * gen.normal(size=params.bn_mean[li].shape)
        params.bn_var[li] = gen.uniform(0.5, 2.0, size=params.bn_var[li].shape)
    mask = net.sample_dropout_mask(cfg, gen)
    x = gen.normal(size=(5, 3))
    _, fast_stats = net.forward_fast(params, x, mode="train", dropout_mask=mask, return_stats=True)
    jac = net.jacobian_batch(params, x, mode=mode, dropout_mask=mask,
                             batch_stats=fast_stats if stats != "none" else None)
    assume(min(np.linalg.eigvalsh(d @ d.T).min() for d in jac) > 1e-2)
    names = list(net.param_arrays(params))
    out_weights = gen.normal(size=(5, 2))

    def build(volume):
        def builder(tape, x_leaf, *leaves):
            pnodes = dict(zip(names, leaves))
            batch_stats = {"arrays": fast_stats, "none": None}.get(stats)
            if stats == "nodes":
                _, batch_stats = net.forward_nodes(tape, pnodes, params, x_leaf, mode="train",
                                                   dropout_mask=mask)
            kw = dict(mode=mode, dropout_mask=mask, batch_stats=batch_stats)
            if volume:
                lds = net.log_jacobian_nodes(tape, pnodes, params, x_leaf, jitter=1e-9, **kw)
                total = lds[0]
                for ld in lds[1:]:
                    total = ad.add(total, ld)
                return total
            out, _ = net.forward_nodes(tape, pnodes, params, x_leaf, **kw)
            return ad.sum_all(ad.mul(out, tape.constant(out_weights)))
        return builder

    points = [x, *net.param_arrays(params).values()]
    assert ad.grad_check(build(False), points).max_rel_error <= 1e-6
    assert ad.grad_check(build(True), points).max_rel_error <= 1e-5


def test_amgm_slack_nonnegative():
    gen = np.random.default_rng(23)
    cfg = net.MlpConfig(input_dim=8, hidden_dims=(6,), output_dim=4)
    params = net.mlp_init(cfg, seed=2)
    jac = net.jacobian_batch(params, gen.normal(size=(32, 8)))
    slack = net.amgm_slack(jac)
    assert np.all(slack >= -1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), r=st.integers(1, 4), extra=st.integers(0, 3),
       hidden=st.lists(st.integers(0, 4), max_size=2), n=st.integers(1, 6),
       singular=st.booleans())
def test_volume_vjp_matches_the_triangular_solves(seed, r, extra, hidden, n, singular):
    # With `singular`, the first output row is zero, so at jitter 0 every
    # sample takes the jitter retry and M^-1 has an eigenvalue of 1e8.
    gen = np.random.default_rng(seed)
    dims = (r + extra, *(h + r for h in hidden), r)
    weights = [gen.normal(size=(fan_out, fan_in)) for fan_in, fan_out in zip(dims, dims[1:])]
    scales = [gen.uniform(0.0, 2.0, size=(n, width)) for width in dims[1:-1]]
    if singular:
        weights[-1][0] = 0.0
    jac, lefts = net._chain_product(weights, scales, n)
    sub = jac[:, int(singular):]
    assume(sub.shape[1] == 0 or min(np.linalg.eigvalsh(d @ d.T).min() for d in sub) >= 1e-2)
    jitter = 0.0 if singular else 1e-9
    chol = net._gram_cholesky(jac, jitter)
    g = gen.normal(size=n)
    got = net._volume_vjp(weights, scales, lefts, jac, chol, g)
    want = helpers.solve_volume_vjp(weights, scales, lefts, jac, chol, g)
    # relative to the largest entry of any gradient, as both routes carry
    # round-off of order cond(M) * eps
    top = max(np.abs(b).max() for b in want)
    assert len(got) == len(want) == 2 * len(weights) - 1
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * top


def _slogdet_amgm_slack(jac, jitter):
    """amgm_slack as it was: a second Gram product and slogdet."""
    r = jac.shape[1]
    gram = jac @ np.swapaxes(jac, 1, 2) + jitter * np.eye(r)
    sign, logdet = np.linalg.slogdet(gram)
    slack = r * np.log(np.trace(gram, axis1=1, axis2=2) / r) - logdet
    slack[sign <= 0] = -np.inf
    return slack


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), r=st.integers(1, 5), extra=st.integers(0, 4),
       n=st.integers(1, 8), log_scale=st.floats(-3.0, 3.0),
       jitter=st.sampled_from([0.0, 1e-12, 1e-6]))
def test_amgm_slack_matches_the_slogdet_formula(seed, r, extra, n, log_scale, jitter):
    jac = 10.0 ** log_scale * np.random.default_rng(seed).normal(size=(n, r, r + extra))
    assume(min(np.linalg.eigvalsh(d @ d.T).min() for d in jac) >= 1e-2)
    got = net.amgm_slack(jac, jitter)
    want = _slogdet_amgm_slack(jac, jitter)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
    np.testing.assert_array_equal(net.amgm_slack(jac[0], jitter), got[:1])


def test_amgm_slack_reads_the_loss_factor(monkeypatch):
    # M = 4 I has slack 0; a factor that overstates the log-det shows as a
    # negative slack, since the trace comes from D and not from the factor
    jac = 2.0 * np.eye(3)[None]
    assert net.amgm_slack(jac, 0.0)[0] == pytest.approx(0.0, abs=1e-14)
    cholesky = net._gram_cholesky
    monkeypatch.setattr(net, "_gram_cholesky", lambda jac, jitter: 2.0 * cholesky(jac, jitter))
    assert net.amgm_slack(jac, 0.0)[0] == pytest.approx(-6.0 * np.log(2.0), rel=1e-12)


def test_one_row_batchnorm_statistics_are_an_error():
    cfg = small_config(use_batchnorm=True)
    params = net.mlp_init(cfg, seed=0)
    x = np.ones((1, 2))
    with pytest.raises(ValueError, match="at least 2 rows, got 1"):
        net.forward_fast(params, x, mode="train")
    tape = ad.Tape()
    with pytest.raises(ValueError, match="at least 2 rows, got 1"):
        net.forward_nodes(tape, net.make_param_nodes(tape, params), params, tape.constant(x),
                          mode="train")
    # eval mode and given statistics read no batch variance
    net.forward_fast(params, x, mode="eval")
    _, stats = net.forward_fast(params, np.ones((2, 2)), mode="train", return_stats=True)
    net.forward_fast(params, x, mode="train", batch_stats=stats)


def test_dropout_mask_values():
    cfg = small_config(dropout_rate=0.5, hidden_dims=(2000,))
    mask = net.sample_dropout_mask(cfg, np.random.default_rng(0)).masks[0]
    assert set(np.unique(mask)).issubset({0.0, 2.0})
    assert 0.3 < (mask > 0).mean() < 0.7
    cfg0 = small_config(hidden_dims=(50,))
    np.testing.assert_array_equal(net.sample_dropout_mask(cfg0, np.random.default_rng(0)).masks[0],
                                  np.ones(50))


def test_running_stats_update_only_when_asked():
    cfg = small_config(use_batchnorm=True, hidden_dims=(3,))
    params = net.mlp_init(cfg, seed=1)
    x = np.random.default_rng(2).normal(size=(16, 2)) + 5.0
    before = params.bn_mean[0].copy()
    net.forward_fast(params, x, mode="train")
    np.testing.assert_array_equal(params.bn_mean[0], before)
    net.forward_fast(params, x, mode="train", update_running=True)
    assert not np.array_equal(params.bn_mean[0], before)


def test_wrong_feature_count_rejected():
    params = net.mlp_init(small_config(), seed=0)
    with pytest.raises(ValueError, match="features"):
        net.forward_fast(params, np.ones((3, 5)))


def test_jacobian_requires_narrow_output():
    cfg = net.MlpConfig(input_dim=2, hidden_dims=(4,), output_dim=3)
    params = net.mlp_init(cfg, seed=0)
    with pytest.raises(ValueError, match="output_dim"):
        net.jacobian_matrix(params, np.zeros(2))
