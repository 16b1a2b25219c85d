import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from masslearn import autodiff as ad
from masslearn import data as datamod
from masslearn import mixtures as mx
from masslearn import network as net
from masslearn import optim
from masslearn import training as tr

import helpers


def _standard_normal_mixture(n_classes, dim):
    # zero means, unit covariance, equal weights and priors
    return mx.mixture_init(n_classes, 1, dim, seed=0, mean_scale=0.0)


def _identity_net(dim):
    cfg = net.MlpConfig(input_dim=dim, hidden_dims=(), output_dim=dim, nonlinearity="identity")
    params = net.mlp_init(cfg, seed=0)
    params.weights[0] = np.eye(dim)
    params.biases[0] = np.zeros(dim)
    return params


def test_single_sample_identity_map_loss_value():
    # f = identity on R^2, q = standard normal, one class, sample at the origin:
    # the conditional term is 0 (only one class), the entropy term is
    # -log N(0; 0, I) = log(2*pi), and the volume term vanishes because the
    # Jacobian is the identity.  beta = 1 adds them up to log(2*pi).
    params = _identity_net(2)
    mixture = _standard_normal_mixture(1, 2)
    cfg = tr.TrainConfig(beta=1.0, subsample_jacobian=False, jitter=0.0)
    x = np.zeros((1, 2))
    y = np.zeros(1, dtype=np.int64)
    breakdown, _, _ = tr.mass_minibatch_loss(params, mixture, x, y, cfg)
    assert abs(breakdown.cond_entropy_term) < 1e-12
    assert abs(breakdown.entropy_term - math.log(2.0 * math.pi)) < 1e-12
    assert abs(breakdown.jacobian_term) < 1e-12
    assert abs(breakdown.total - 1.8378770664093453) < 1e-9


def _toy_problem(seed, n=12, dim=4, n_classes=3, hidden=(6,), r=2, batchnorm=True):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, dim))
    y = gen.integers(0, n_classes, size=n).astype(np.int64)
    cfg_net = net.MlpConfig(input_dim=dim, hidden_dims=hidden, output_dim=r,
                            use_batchnorm=batchnorm)
    params = net.mlp_init(cfg_net, seed=seed)
    mixture = mx.mixture_init(n_classes, 2, r, seed=seed)
    return x, y, params, mixture


def test_loss_term_identity():
    # total must equal cond + beta*ent - beta*jac, not merely correlate with it
    for rep in range(8):
        x, y, params, mixture = _toy_problem(rep)
        beta = [0.0, 1e-3, 0.1, 1.0][rep % 4]
        cfg = tr.TrainConfig(beta=beta)
        breakdown, _, _ = tr.mass_minibatch_loss(params, mixture, x, y, cfg)
        recomposed = (breakdown.cond_entropy_term
                      + beta * breakdown.entropy_term
                      - beta * breakdown.jacobian_term)
        assert abs(breakdown.total - recomposed) <= 1e-12
        assert np.isfinite(breakdown.total)


def test_beta_zero_matches_posterior_nll_and_skips_jacobian(monkeypatch):
    x, y, params, mixture = _toy_problem(3)

    def boom(*args, **kwargs):
        raise AssertionError("volume term requested at beta=0")

    monkeypatch.setattr(net, "log_jacobian_nodes", boom)
    monkeypatch.setattr(net, "volume_node", boom)
    requested = []
    forward_nodes = net.forward_nodes

    def recording_forward(*args, **kwargs):
        requested.append(kwargs.get("scales"))
        return forward_nodes(*args, **kwargs)

    monkeypatch.setattr(net, "forward_nodes", recording_forward)
    cfg = tr.TrainConfig(beta=0.0)
    breakdown, net_grads, mix_grads = tr.mass_minibatch_loss(params, mixture, x, y, cfg)
    assert requested == [None]  # one pass, and no Jacobian scales asked of it
    assert breakdown.jacobian_term == 0.0
    assert breakdown.total == breakdown.cond_entropy_term
    monkeypatch.undo()

    # twin objective assembled by hand: mean -log q(y|z)
    tape = ad.Tape()
    pnodes = net.make_param_nodes(tape, params)
    mnodes = mx.make_mixture_nodes(tape, mixture)
    out, _ = net.forward_nodes(tape, pnodes, params, tape.constant(x), mode="train")
    dens = mx.density_nodes(tape, mnodes, mixture, out, y)
    loss = ad.neg(ad.mean_all(dens.log_post_own))
    grads = ad.backward(loss, list(pnodes.values()) + list(mnodes.values()))
    assert abs(loss.item() - breakdown.total) <= 1e-12
    for name, node in pnodes.items():
        np.testing.assert_allclose(net_grads[name], grads[node], rtol=0, atol=1e-10)
    for name, node in mnodes.items():
        np.testing.assert_allclose(mix_grads[name], grads[node], rtol=0, atol=1e-10)


# The loss as it was built with two network passes: the main pass for the
# mixture terms, then log_jacobian_nodes on the first n_sub rows, run again
# with the main pass's batch-statistic nodes, and its n per-sample nodes
# summed with add nodes.  The reference that the one-pass loss must match.
def _two_pass_mass_loss(net_params, mixture, x, y, cfg, dropout_mask=None, update_running=False):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    tape = ad.Tape()
    pnodes = net.make_param_nodes(tape, net_params)
    mnodes = mx.make_mixture_nodes(tape, mixture)
    out, stats = net.forward_nodes(tape, pnodes, net_params, tape.constant(x), mode="train",
                                   dropout_mask=dropout_mask, update_running=update_running)
    dens = mx.density_nodes(tape, mnodes, mixture, out, y)
    cond_term = ad.neg(ad.mean_all(dens.log_post_own))
    ent_term = ad.neg(ad.mean_all(dens.marginal))
    total, jac_value = cond_term, 0.0
    if cfg.beta != 0.0:
        r = net_params.config.output_dim
        n_sub = tr.jacobian_subbatch_size(len(x), r) if cfg.subsample_jacobian else len(x)
        log_dets = net.log_jacobian_nodes(tape, pnodes, net_params, tape.constant(x[:n_sub]),
                                          jitter=cfg.jitter, mode="train",
                                          dropout_mask=dropout_mask, batch_stats=stats)
        acc = log_dets[0]
        for ld in log_dets[1:]:
            acc = ad.add(acc, ld)
        jac_term = ad.mul(1.0 / len(log_dets), acc)
        total = ad.add(cond_term, ad.sub(ad.mul(cfg.beta, ent_term), ad.mul(cfg.beta, jac_term)))
        jac_value = jac_term.item()
    grads = ad.backward(total, list(pnodes.values()) + list(mnodes.values()))
    tape.release()
    breakdown = tr.LossBreakdown(total=total.item(), cond_entropy_term=cond_term.item(),
                                 entropy_term=ent_term.item(), jacobian_term=jac_value)
    return (breakdown, {name: grads[node] for name, node in pnodes.items()},
            {name: grads[node] for name, node in mnodes.items()})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), r=st.integers(1, 3), extra=st.integers(0, 3),
       hidden=st.lists(st.integers(0, 4), max_size=2), n=st.integers(1, 12),
       batchnorm=st.booleans(), dropout=st.sampled_from([0.0, 0.3]),
       nonlinearity=st.sampled_from(["elu", "identity"]), subsample=st.booleans(),
       singular=st.booleans())
def test_mass_loss_matches_the_two_pass_graph(seed, r, extra, hidden, n, batchnorm, dropout,
                                              nonlinearity, subsample, singular):
    # With `singular`, the first output row is zero, so every Gram matrix is
    # singular at jitter 0 and each sample is retried at JITTER_RETRY.  One
    # row under batchnorm is an error by design, so n >= 2 there.
    assume(n >= 2 or not batchnorm)
    cfg_net = net.MlpConfig(input_dim=r + extra, hidden_dims=tuple(h + r for h in hidden),
                            output_dim=r, nonlinearity=nonlinearity, dropout_rate=dropout,
                            use_batchnorm=batchnorm)
    params = net.mlp_init(cfg_net, seed=seed % 1000)
    gen = np.random.default_rng(seed)
    mixture = mx.mixture_init(3, 2, r, seed=seed % 997)
    x = gen.normal(size=(n, cfg_net.input_dim))
    y = gen.integers(0, 3, size=n)
    mask = net.sample_dropout_mask(cfg_net, gen)
    if singular:
        params.weights[-1][0] = 0.0
    cfg = tr.TrainConfig(beta=float(gen.uniform(1e-3, 1.0)), subsample_jacobian=subsample,
                         jitter=0.0 if singular else 1e-9)
    # the rows the volume term reads must be well conditioned (past the zero
    # row), or round-off in the two passes' scales would be amplified
    n_sub = tr.jacobian_subbatch_size(n, r) if subsample else n
    _, fast_stats = net.forward_fast(params, x, mode="train", dropout_mask=mask, return_stats=True)
    jac = net.jacobian_batch(params, x[:n_sub], mode="train", dropout_mask=mask,
                             batch_stats=fast_stats)[:, int(singular):]
    assume(jac.shape[1] == 0 or min(np.linalg.eigvalsh(d @ d.T).min() for d in jac) > 1e-2)

    got = tr.mass_minibatch_loss(params, mixture, x, y, cfg, dropout_mask=mask)
    want = _two_pass_mass_loss(params, mixture, x, y, cfg, dropout_mask=mask)
    for field in ("total", "cond_entropy_term", "entropy_term", "jacobian_term"):
        a, b = getattr(got[0], field), getattr(want[0], field)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), field
    for got_grads, want_grads in zip(got[1:], want[1:]):
        assert got_grads.keys() == want_grads.keys()
        for name, ref in want_grads.items():
            err = np.abs(got_grads[name] - ref).max(initial=0.0)
            assert err <= 1e-12 * max(1.0, np.abs(ref).max(initial=0.0)), name


def test_training_matches_the_two_pass_loss(monkeypatch):
    # the README quick start's shape, 200 steps, against two references: the
    # two-pass graph, which sums the same gradients in another order, and the
    # volume gradient by triangular solves.  The runs agree to round-off
    # carried through the training; b0, the bias ahead of batchnorm whose
    # gradient is round-off, and the running mean it shifts carry the most.
    train_ds, _ = datamod.gaussian_blobs(1536, 3, 2, 4.0, seed=31)
    test_ds, _ = datamod.gaussian_blobs(600, 3, 2, 4.0, seed=32)
    cfg_net = net.MlpConfig(input_dim=2, hidden_dims=(16,), output_dim=2, use_batchnorm=True)
    one_pass, inverse_vjp = tr.mass_minibatch_loss, net._volume_vjp

    def run(loss, volume_vjp):
        monkeypatch.setattr(tr, "mass_minibatch_loss", loss)
        monkeypatch.setattr(net, "_volume_vjp", volume_vjp)
        cfg = tr.TrainConfig(method="mass", beta=1e-3, lr=5e-3, variational_lr=2e-2,
                             batch_size=64, steps=200, eval_interval=50, mixture_components=3,
                             seed=11)
        return tr.train(train_ds, test_ds, cfg_net, cfg)

    got = run(one_pass, inverse_vjp)
    for want, tol in ((run(_two_pass_mass_loss, inverse_vjp), lambda name: 1e-8),
                      (run(one_pass, helpers.solve_volume_vjp),
                       lambda name: 1e-8 if name in ("b0", "bn_mean0") else 1e-12)):
        assert len(got.curve_rows) == len(want.curve_rows) == 4
        for row_got, row_want in zip(got.curve_rows, want.curve_rows):
            a, b = row_got.split(","), row_want.split(",")
            assert a[0] == b[0] and a[4:] == b[4:]  # step and accuracies
            for va, vb in zip(a[1:4], b[1:4]):
                assert abs(float(va) - float(vb)) <= 1e-9 * abs(float(vb))
        ckpt_got, ckpt_want = got.checkpoint, want.checkpoint
        pairs = [*zip(net.param_arrays(ckpt_got.net).items(),
                      net.param_arrays(ckpt_want.net).values()),
                 *zip(mx.mixture_param_arrays(ckpt_got.mixture).items(),
                      mx.mixture_param_arrays(ckpt_want.mixture).values())]
        pairs += [((f"bn_mean{li}", a), b) for li, (a, b) in
                  enumerate(zip(ckpt_got.net.bn_mean, ckpt_want.net.bn_mean))]
        pairs += [((f"bn_var{li}", a), b) for li, (a, b) in
                  enumerate(zip(ckpt_got.net.bn_var, ckpt_want.net.bn_var))]
        for (name, a), b in pairs:
            assert np.abs(a - b).max() <= tol(name), name


def test_minibatch_loss_releases_its_tape():
    # A tape is a web of reference cycles.  With the cyclic collector off,
    # memory stays at the working set (model, data, one step's gradients)
    # only if each call frees its own graph; a kept tape would add about
    # four times that per call.
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        x, y, params, mixture = _toy_problem(4, n=64, dim=256, hidden=(128,))
        cfg = tr.TrainConfig(beta=1e-3)
        sizes = []
        for _ in range(5):
            tr.mass_minibatch_loss(params, mixture, x, y, cfg)
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        gc.enable()
    assert sizes[4] <= 1.1 * sizes[0], sizes


def test_divergence_is_typed_and_names_the_step(monkeypatch):
    train, _ = datamod.gaussian_blobs(64, 2, 3, 4.0, seed=1)
    cfg_net = net.MlpConfig(input_dim=3, hidden_dims=(5,), output_dim=2)
    bad = datamod.Dataset(train.name, train.features.copy(), train.labels, train.n_classes)
    bad.features[:, 0] = np.nan
    cfg = tr.TrainConfig(method="mass", beta=0.0, batch_size=16, steps=3, mixture_components=1)
    with pytest.raises(tr.TrainingDivergedError, match="step 1: loss is nan") as info:
        tr.train(bad, None, cfg_net, cfg)
    assert info.value.step == 1 and info.value.term == "loss is nan"

    def nan_gradients(params, x, y, **kwargs):
        return 0.5, {name: np.full_like(a, np.nan) for name, a in net.param_arrays(params).items()}

    monkeypatch.setattr(tr, "softmaxce_minibatch_loss", nan_gradients)
    cfg = tr.TrainConfig(method="softmaxce", batch_size=16, steps=3)
    with pytest.raises(tr.TrainingDivergedError, match="step 1: gradient norm"):
        tr.train(train, None, cfg_net, cfg)


def test_singular_mixture_factor_is_typed_and_names_the_step(monkeypatch):
    train, _ = datamod.gaussian_blobs(64, 2, 3, 4.0, seed=1)
    cfg_net = net.MlpConfig(input_dim=3, hidden_dims=(5,), output_dim=2)
    init = mx.mixture_init

    def singular_init(*args, **kwargs):
        m = init(*args, **kwargs)
        m.chol_raw[0, 0, 1, 1] = -800.0  # softplus underflows to exactly 0
        return m

    monkeypatch.setattr(mx, "mixture_init", singular_init)
    cfg = tr.TrainConfig(method="mass", beta=0.0, batch_size=16, steps=3, mixture_components=1)
    term = "a mixture covariance factor is singular"
    with pytest.raises(tr.TrainingDivergedError, match=f"step 1: {term}") as info:
        tr.train(train, None, cfg_net, cfg)
    assert info.value.step == 1 and info.value.term == term


def test_degenerate_jacobian_is_typed_and_names_the_step_and_batch(monkeypatch):
    train, _ = datamod.gaussian_blobs(64, 2, 3, 4.0, seed=1)
    cfg_net = net.MlpConfig(input_dim=3, hidden_dims=(5,), output_dim=2)
    cfg = tr.TrainConfig(method="mass", beta=1e-3, batch_size=16, steps=3, eval_interval=2,
                         mixture_components=1)

    def degenerate(*args, **kwargs):
        raise net.DegenerateJacobianError("degenerate Jacobian at sample index 7")

    monkeypatch.setattr(tr, "_eval_terms", degenerate)
    term = "degenerate Jacobian at sample index 7 of the curve row"
    with pytest.raises(tr.TrainingDivergedError, match=f"step 2: {term}") as info:
        tr.train(train, None, cfg_net, cfg)
    assert info.value.step == 2 and info.value.term == term

    monkeypatch.setattr(tr, "mass_minibatch_loss", degenerate)
    with pytest.raises(tr.TrainingDivergedError,
                       match="step 1: degenerate Jacobian at sample index 7 of the loss sub-batch"):
        tr.train(train, None, cfg_net, cfg)


def test_eval_entropy_term_is_the_marginal_mean():
    x, y, params, mixture = _toy_problem(5, n=20)
    mixture = mx.fit_priors(mixture, y)
    z = net.forward_fast(params, x, mode="eval")
    _, ent, _, _ = tr._eval_terms(params, mixture, x, y, z, tr.TrainConfig())
    assert ent == float(-mx.marginal_log_density(mixture, z).mean())


def test_volume_loss_gradient_matches_central_differences():
    # beta > 0 with batchnorm, dropout and two hidden layers: every network
    # and mixture coordinate of the assembled loss against central differences
    cfg_net = net.MlpConfig(input_dim=3, hidden_dims=(5, 4), output_dim=2,
                            use_batchnorm=True, dropout_rate=0.25)
    params = net.mlp_init(cfg_net, seed=5)
    mixture = mx.mixture_init(2, 2, 2, seed=6, mean_scale=0.8)
    gen = np.random.default_rng(7)
    x = gen.normal(size=(8, 3))
    y = gen.integers(0, 2, size=8)
    mask = net.sample_dropout_mask(cfg_net, gen)
    assert all((m > 0).sum() >= 2 for m in mask.masks)
    cfg = tr.TrainConfig(beta=0.37, jitter=1e-9)
    _, net_grads, mix_grads = tr.mass_minibatch_loss(params, mixture, x, y, cfg, dropout_mask=mask)

    eps = 1e-6
    worst = 0.0
    for store, grads in ((net.param_arrays(params), net_grads),
                         (mx.mixture_param_arrays(mixture), mix_grads)):
        for name, arr in store.items():
            flat = arr.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                hi = tr.mass_minibatch_loss(params, mixture, x, y, cfg, dropout_mask=mask)[0].total
                flat[k] = orig - eps
                lo = tr.mass_minibatch_loss(params, mixture, x, y, cfg, dropout_mask=mask)[0].total
                flat[k] = orig
                a = grads[name].reshape(-1)[k]
                worst = max(worst, abs(a - (hi - lo) / (2 * eps)) / max(1.0, abs(a)))
    assert worst <= 1e-4


def test_gradients_share_no_memory():
    x, y, params, mixture = _toy_problem(5, hidden=(6, 5))
    _, net_grads, mix_grads = tr.mass_minibatch_loss(params, mixture, x, y, tr.TrainConfig(beta=0.5))
    grads = list(net_grads.values()) + list(mix_grads.values())
    leaves = list(net.param_arrays(params).values()) + list(mx.mixture_param_arrays(mixture).values())
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, h) for h in grads[i + 1:] + leaves)


def test_weight_gradients_are_row_major():
    # the optimizer updates weights through flat views; a gradient in the
    # transposed layout would make every pass over it stride
    x, y, params, mixture = _toy_problem(4, hidden=(6, 5))
    for beta in (0.0, 0.5):
        _, net_grads, _ = tr.mass_minibatch_loss(params, mixture, x, y, tr.TrainConfig(beta=beta))
        for li in range(len(params.weights)):
            assert net_grads[f"w{li}"].flags.c_contiguous
    _, ce_grads = tr.softmaxce_minibatch_loss(_toy_problem(4, r=3)[2], x, y)
    assert all(ce_grads[f"w{li}"].flags.c_contiguous for li in range(2))


def test_curve_terms_from_a_sliced_forward_match_a_fresh_one():
    # a curve row slices its terms' features out of one forward of all
    # training rows; BLAS may round a 64-row product differently from the
    # same rows inside a larger one, so agreement is to round-off
    gen = np.random.default_rng(11)
    x = gen.normal(size=(300, 3072))
    y = gen.integers(0, 3, size=300)
    cfg_net = net.MlpConfig(input_dim=3072, hidden_dims=(100,), output_dim=4, use_batchnorm=True)
    params = net.mlp_init(cfg_net, seed=2)
    net.forward_fast(params, x, mode="train", update_running=True)
    mixture = mx.fit_priors(mx.mixture_init(3, 2, 4, seed=3), y)
    cfg = tr.TrainConfig(batch_size=64)
    z_all = net.forward_fast(params, x, mode="eval")
    z_fresh = net.forward_fast(params, x[:64], mode="eval")
    sliced = tr._eval_terms(params, mixture, x[:64], y[:64], z_all[:64], cfg)
    fresh = tr._eval_terms(params, mixture, x[:64], y[:64], z_fresh, cfg)
    for got, want in zip(sliced[:3], fresh[:3]):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert sliced[3] == fresh[3]


def test_jacobian_term_matches_direct_computation():
    x, y, params, mixture = _toy_problem(7, n=10)
    cfg = tr.TrainConfig(beta=0.5, subsample_jacobian=True)
    breakdown, _, _ = tr.mass_minibatch_loss(params, mixture, x, y, cfg)
    n_sub = tr.jacobian_subbatch_size(len(x), params.config.output_dim)
    assert n_sub == 5
    _, stats = net.forward_fast(params, x, mode="train", return_stats=True)
    direct = net.log_jacobian_batch(params, x[:n_sub], jitter=cfg.jitter,
                                    mode="train", batch_stats=stats)
    assert abs(breakdown.jacobian_term - direct.mean()) <= 1e-12


def test_subsampled_jacobian_estimator_mean():
    # averaging the subsampled volume term over shuffles recovers the
    # full-batch value (no batchnorm, so per-sample terms are independent)
    gen = np.random.default_rng(42)
    x = gen.normal(size=(64, 4))
    y = gen.integers(0, 2, size=64).astype(np.int64)
    cfg_net = net.MlpConfig(input_dim=4, hidden_dims=(6,), output_dim=2)
    params = net.mlp_init(cfg_net, seed=1)
    mixture = mx.mixture_init(2, 1, 2, seed=1)

    full_cfg = tr.TrainConfig(beta=1.0, subsample_jacobian=False)
    full, _, _ = tr.mass_minibatch_loss(params, mixture, x, y, full_cfg)

    sub_cfg = tr.TrainConfig(beta=1.0, subsample_jacobian=True)
    estimates = []
    for rep in range(150):
        perm = gen.permutation(64)
        b, _, _ = tr.mass_minibatch_loss(params, mixture, x[perm], y[perm], sub_cfg)
        estimates.append(b.jacobian_term)
    err = abs(np.mean(estimates) - full.jacobian_term)
    assert err <= 0.02 * max(1.0, abs(full.jacobian_term))


def test_softmax_cross_entropy_oracle():
    gen = np.random.default_rng(11)
    cfg_net = net.MlpConfig(input_dim=5, hidden_dims=(7,), output_dim=4)
    params = net.mlp_init(cfg_net, seed=2)
    x = gen.normal(size=(9, 5))
    y = gen.integers(0, 4, size=9).astype(np.int64)
    loss, grads = tr.softmaxce_minibatch_loss(params, x, y)

    logits = net.forward_fast(params, x, mode="train")
    shift = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - shift).sum(axis=1)) + shift[:, 0]
    oracle = float(np.mean(lse - logits[np.arange(9), y]))
    assert abs(loss - oracle) <= 1e-12
    assert set(grads) == set(net.param_arrays(params))


def test_softmax_cross_entropy_uniform_logits():
    # zero weights give uniform class probabilities, so the loss is log C
    cfg_net = net.MlpConfig(input_dim=4, hidden_dims=(), output_dim=3)
    params = net.mlp_init(cfg_net, seed=0)
    params.weights[0] = np.zeros((3, 4))
    x = np.random.default_rng(0).normal(size=(5, 4))
    y = np.array([0, 1, 2, 1, 0], dtype=np.int64)
    loss, _ = tr.softmaxce_minibatch_loss(params, x, y)
    assert abs(loss - math.log(3.0)) < 1e-14


def test_adam_first_step_magnitude():
    lr = 0.1
    state = optim.AdamState()
    params = {"p": np.array([1.0, -2.0, 0.5])}
    grads = {"p": np.array([1.0, -1.0, 1.0])}
    new = optim.adam_step(params, grads, state, lr)
    # first bias-corrected step moves each coordinate by lr against the sign
    np.testing.assert_allclose(new["p"] - params["p"], [-lr, lr, -lr], rtol=0, atol=1e-8)
    assert state.step == 1


def test_adam_zero_gradient_is_noop():
    state = optim.AdamState()
    params = {"p": np.array([3.0, -1.0])}
    new = optim.adam_step(params, {"p": np.zeros(2)}, state, 0.5)
    np.testing.assert_array_equal(new["p"], params["p"])
    assert state.step == 1


def test_momentum_accumulates():
    state = optim.MomentumState()
    params = {"p": np.array([0.0])}
    g = {"p": np.array([1.0])}
    params = optim.momentum_step(params, g, state, lr=1.0)
    params = optim.momentum_step(params, g, state, lr=1.0)
    # v goes 1.0 then 1.9, so p = -(1.0 + 1.9) = -2.9
    assert abs(params["p"][0] + 2.9) < 1e-15


def test_clip_global_norm_scales_jointly():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}
    clipped, norm = optim.clip_global_norm(grads, 6.5)
    assert abs(norm - 13.0) < 1e-12
    np.testing.assert_allclose(clipped["a"], [1.5, 2.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(clipped["b"], [6.0], rtol=0, atol=1e-12)
    same, norm2 = optim.clip_global_norm(grads, 100.0)
    assert norm2 == norm
    np.testing.assert_array_equal(same["a"], grads["a"])


# The optimizers as plain array expressions, before the in-place blocked
# update: the reference that the blocked one must match bit for bit.
def _ref_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    state.step += 1
    t = state.step
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p)
            v = np.zeros_like(p)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        out[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


def _ref_momentum_step(params, grads, state, lr, momentum=0.9):
    out = {}
    for name, p in params.items():
        g = grads[name]
        v = state.v.get(name)
        v = g if v is None else momentum * v + g
        state.v[name] = v
        out[name] = p - lr * v
    return out


def _ref_global_norm(grads):
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


_B = optim.BLOCK
# 0-d, empty, and sizes just below, at and above one and two blocks
_EDGE_SHAPES = [(), (0,), (3, 0), (_B - 1,), (_B,), (_B + 1,), (127, 258), (128, 256),
                (129, 255), (2 * _B - 1,), (256, 256), (3, 21846), (2, 4, 4097)]


def _laid_out(arr, layout):
    """arr's values in the given memory layout: C, F, a transposed view, or a strided view."""
    if layout == "F":
        return np.array(arr, order="F")
    if layout == "T":
        return np.array(arr.T, order="C").T
    if layout == "S" and arr.ndim:
        wide = np.empty((2 * arr.shape[0], *arr.shape[1:]))
        wide[::2] = arr
        return wide[::2]
    return np.array(arr, order="C")


@settings(max_examples=60, deadline=None)
@given(shape=st.one_of(st.sampled_from(_EDGE_SHAPES),
                       st.lists(st.integers(1, 6), max_size=3).map(tuple)),
       layouts=st.lists(st.sampled_from("CFTS"), min_size=2, max_size=2),
       steps=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_blocked_optimizers_match_the_array_expressions(shape, layouts, steps, seed):
    gen = np.random.default_rng(seed)
    shapes = {"a": shape, "b": (3, 2)}  # a small array after a large one
    params = {k: _laid_out(gen.normal(size=s), layouts[0]) for k, s in shapes.items()}
    states = [(optim.adam_step, optim.AdamState(), _ref_adam_step, optim.AdamState()),
              (optim.momentum_step, optim.MomentumState(), _ref_momentum_step, optim.MomentumState())]
    for step, state, ref_step, ref_state in states:
        p_new, p_ref = params, params
        for _ in range(steps):
            grads = {k: _laid_out(gen.normal(size=s) * (gen.random(size=s) > 0.2), layouts[1])
                     for k, s in shapes.items()}
            before = {k: (p_new[k].copy(), grads[k].copy()) for k in shapes}
            p_ref = ref_step(p_ref, grads, ref_state, 0.01)
            p_out = step(p_new, grads, state, 0.01)
            for k, (p_before, g_before) in before.items():
                # neither the parameters nor the gradients were written to
                assert p_new[k].tobytes() == p_before.tobytes()
                assert grads[k].tobytes() == g_before.tobytes()
                assert p_out[k].shape == shapes[k]
                assert p_out[k].tobytes() == np.asarray(p_ref[k]).tobytes()
                if step is optim.momentum_step:
                    assert not np.shares_memory(state.v[k], grads[k])
            p_new = p_out
        for name in ("m", "v") if step is optim.adam_step else ("v",):
            for k in shapes:
                got, want = getattr(state, name)[k], getattr(ref_state, name)[k]
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        norm, ref = optim.global_norm(grads), _ref_global_norm(grads)
        assert abs(norm - ref) <= 1e-14 * ref


def _blob_split(n_train, n_test, seed, n_classes=3, dim=4, separation=4.0):
    train, _ = datamod.gaussian_blobs(n_train, n_classes, dim, separation, seed)
    test, _ = datamod.gaussian_blobs(n_test, n_classes, dim, separation, seed + 1)
    return train, test


def test_train_is_deterministic(tmp_path):
    train, test = _blob_split(96, 48, seed=5)
    cfg_net = net.MlpConfig(input_dim=4, hidden_dims=(8,), output_dim=2,
                            use_batchnorm=True, dropout_rate=0.25)
    results = []
    for run in range(2):
        cfg = tr.TrainConfig(method="mass", beta=1e-3, lr=2e-3, variational_lr=1e-2,
                             batch_size=32, steps=6, eval_interval=3, seed=9,
                             curve_path=str(tmp_path / f"curves{run}.csv"))
        results.append(tr.train(train, test, cfg_net, cfg))
    a, b = results
    for name, arr in net.param_arrays(a.checkpoint.net).items():
        np.testing.assert_array_equal(arr, net.param_arrays(b.checkpoint.net)[name])
    for name, arr in mx.mixture_param_arrays(a.checkpoint.mixture).items():
        np.testing.assert_array_equal(arr, mx.mixture_param_arrays(b.checkpoint.mixture)[name])
    for li in range(len(a.checkpoint.net.bn_mean)):
        np.testing.assert_array_equal(a.checkpoint.net.bn_mean[li], b.checkpoint.net.bn_mean[li])
    assert a.curve_rows == b.curve_rows
    text0 = (tmp_path / "curves0.csv").read_text()
    text1 = (tmp_path / "curves1.csv").read_text()
    assert text0 == text1
    assert text0.splitlines()[0] == tr.CURVE_HEADER
    assert len(text0.splitlines()) == 3  # header + rows at steps 3 and 6


def test_train_zero_steps(tmp_path):
    train, _ = _blob_split(30, 6, seed=2)
    cfg_net = net.MlpConfig(input_dim=4, hidden_dims=(5,), output_dim=2)
    path = tmp_path / "curves.csv"
    cfg = tr.TrainConfig(steps=0, seed=4, curve_path=str(path))
    result = tr.train(train, None, cfg_net, cfg)
    assert path.read_text() == tr.CURVE_HEADER + "\n"
    assert result.curve_rows == []
    assert result.checkpoint.steps_trained == 0
    init = net.mlp_init(cfg_net, seed=4)
    for name, arr in net.param_arrays(result.checkpoint.net).items():
        np.testing.assert_array_equal(arr, net.param_arrays(init)[name])


def test_train_blobs_mass_accuracy():
    train, test = _blob_split(240, 120, seed=12)
    cfg_net = net.MlpConfig(input_dim=4, hidden_dims=(16,), output_dim=2, use_batchnorm=True)
    cfg = tr.TrainConfig(method="mass", beta=1e-3, lr=5e-3, variational_lr=2e-2,
                         batch_size=60, steps=200, eval_interval=100,
                         mixture_components=2, seed=3)
    result = tr.train(train, test, cfg_net, cfg)
    assert len(result.curve_rows) == 2
    last = result.curve_rows[-1].split(",")
    assert last[0] == "200"
    train_acc, test_acc = float(last[4]), float(last[5])
    assert train_acc > 0.8
    assert test_acc > 0.75
    assert result.amgm_violations == 0
    # every term column is a finite float
    for row in result.curve_rows:
        vals = [float(v) for v in row.split(",")[1:]]
        assert all(np.isfinite(vals))


def test_train_blobs_softmaxce_curves():
    train, test = _blob_split(240, 120, seed=21)
    cfg_net = net.MlpConfig(input_dim=4, hidden_dims=(8,), output_dim=3, use_batchnorm=True)
    cfg = tr.TrainConfig(method="softmaxce", lr=1e-2, batch_size=60, steps=60,
                         eval_interval=30, mixture_components=1, seed=6)
    result = tr.train(train, test, cfg_net, cfg)
    assert result.checkpoint.method == "softmaxce"
    assert result.checkpoint.mixture is None
    assert len(result.curve_rows) == 2
    for row in result.curve_rows:
        step, cond, ent, nlj, tr_acc, te_acc = row.split(",")
        # the logit map R^4 -> R^3 still has a Jacobian, so all columns are finite
        assert all(np.isfinite(float(v)) for v in (cond, ent, nlj, tr_acc, te_acc))
    assert float(result.curve_rows[-1].split(",")[4]) > 0.8


def test_entropy_upper_bound_one_sided():
    # on a distribution the density family can represent exactly, the fitted
    # cross entropy -E[log q] can only exceed the true entropy (up to noise)
    gen = np.random.default_rng(77)
    mean = np.array([0.7, -0.3])
    std = np.array([1.5, 0.8])
    z_train = gen.normal(size=(4000, 2)) * std + mean
    labels = np.zeros(4000, dtype=np.int64)
    fit = mx.mle_fit(z_train, labels, 1, 1, steps=300, seed=0, lr=0.05)
    fit = mx.mle_fit(z_train, labels, 1, 1, steps=200, seed=0, lr=0.002, init=fit)

    z_eval = gen.normal(size=(50_000, 2)) * std + mean
    ll = mx.marginal_log_density(fit, z_eval)
    nll = float(-ll.mean())
    se = float(ll.std(ddof=1) / math.sqrt(len(ll)))
    h_true = math.log(2.0 * math.pi * math.e) + float(np.log(std).sum())
    assert nll >= h_true - 3.0 * se
    assert nll <= h_true + 0.05  # and the fit is tight, not vacuously large


def test_train_validates_shapes():
    train, _ = _blob_split(30, 6, seed=8)
    wide = net.MlpConfig(input_dim=4, hidden_dims=(5,), output_dim=6)
    with pytest.raises(ValueError, match="output_dim"):
        tr.train(train, None, wide, tr.TrainConfig(method="mass", steps=1))
    logits_mismatch = net.MlpConfig(input_dim=4, hidden_dims=(5,), output_dim=2)
    with pytest.raises(ValueError, match="class count"):
        tr.train(train, None, logits_mismatch, tr.TrainConfig(method="softmaxce", steps=1))
    with pytest.raises(ValueError, match="optimizer"):
        tr.TrainConfig(optimizer="lbfgs").validate()
    for key, value, why in helpers.OUT_OF_RANGE:
        with pytest.raises(ValueError, match=f"^{key} must be {why}"):
            tr.TrainConfig(**{key: value}).validate()
    tr.TrainConfig(beta=0.0, jitter=0.0).validate()


def test_dataset_shape_rules_are_checked_before_normalizing(monkeypatch):
    train, _ = datamod.gaussian_blobs(120, 3, 4, 4.0, 1)
    cfg_net = net.MlpConfig(input_dim=4, hidden_dims=(6,), output_dim=2)

    def no_fit(*args, **kwargs):
        raise AssertionError("the features were normalized")

    monkeypatch.setattr(datamod, "normalize_fit", no_fit)
    cfg = tr.TrainConfig(batch_size=16, steps=2, mixture_components=2)
    wide, _ = datamod.gaussian_blobs(60, 3, 5, 4.0, 2)
    with pytest.raises(ValueError, match=r"^test_dataset must have the 4 feature columns of "
                                         r"dataset, got 5$"):
        tr.train(train, wide, cfg_net, cfg)
    more_classes, _ = datamod.gaussian_blobs(60, 5, 4, 4.0, 2)
    with pytest.raises(ValueError, match=r"^test_dataset must have at most the 3 classes of "
                                         r"dataset, got 5$"):
        tr.train(train, more_classes, cfg_net, cfg)
    with pytest.raises(ValueError, match=r"^input_dim must equal the 4 feature columns"):
        tr.train(train, None, net.MlpConfig(input_dim=5, hidden_dims=(6,), output_dim=2), cfg)


def test_one_row_batches_under_batchnorm_are_rejected_before_step_one(monkeypatch):
    train, _ = datamod.gaussian_blobs(129, 3, 4, 4.0, 1)  # 129 = 2 * 64 + 1
    bn = net.MlpConfig(input_dim=4, hidden_dims=(6,), output_dim=2, use_batchnorm=True)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(tr, "mass_minibatch_loss", no_step)
    cfg = tr.TrainConfig(batch_size=64, steps=3, mixture_components=1)
    with pytest.raises(ValueError, match="batch_size=64 over 129 training rows gives a batch "
                                         "of one row"):
        tr.train(train, None, bn, cfg)
    for n, batch_size, steps in ((129, 1, 1), (1, 64, 1), (129, 64, 3), (129, 64, 100),
                                 (129, 128, 2)):
        with pytest.raises(ValueError, match="one row"):
            tr._check_batch_rows(n, bn, tr.TrainConfig(batch_size=batch_size, steps=steps))
    # the one-row batch is never reached, or there is no batchnorm to normalize it
    no_hidden = net.MlpConfig(input_dim=4, hidden_dims=(), output_dim=2, use_batchnorm=True)
    for n, batch_size, steps, cfg_net in ((129, 64, 2, bn), (129, 64, 0, bn), (128, 64, 9, bn),
                                          (129, 1, 5, no_hidden),
                                          (129, 1, 5, net.MlpConfig(4, (6,), 2))):
        tr._check_batch_rows(n, cfg_net, tr.TrainConfig(batch_size=batch_size, steps=steps))


def test_softmaxce_curve_fit_class_counts_checked_before_step_one(monkeypatch):
    train, _ = datamod.gaussian_blobs(27, 3, 4, 4.0, 1)  # 9 rows per class
    cfg_net = net.MlpConfig(input_dim=4, hidden_dims=(6,), output_dim=3)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(tr, "softmaxce_minibatch_loss", no_step)
    cfg = tr.TrainConfig(method="softmaxce", steps=5, eval_interval=5, batch_size=9, seed=0)
    assert cfg.mixture_components == 10
    with pytest.raises(ValueError, match="class 0 has 9 of the first 27 training rows, "
                                         "fewer than mixture_components=10"):
        tr.train(train, None, cfg_net, cfg)
    # a zero-step run writes no curve row, so it fits no mixture
    tr.train(train, None, cfg_net, tr.TrainConfig(method="softmaxce", steps=0))


def test_curve_fit_class_counts_read_the_fitted_rows_only():
    labels = np.concatenate([np.arange(tr.CURVE_FIT_ROWS) % 2, np.full(20, 2)])
    cfg = tr.TrainConfig(method="softmaxce", steps=1, mixture_components=10)
    with pytest.raises(ValueError, match=f"class 2 has 0 of the first {tr.CURVE_FIT_ROWS}"):
        tr.check_curve_fit_counts(labels, 3, cfg)
    tr.check_curve_fit_counts(labels[-40:], 3, cfg)
    tr.check_curve_fit_counts(labels, 3, tr.TrainConfig(method="mass", steps=1))


def test_small_batch_warning():
    train, _ = _blob_split(30, 6, seed=8)
    cfg_net = net.MlpConfig(input_dim=4, hidden_dims=(), output_dim=3)
    cfg = tr.TrainConfig(method="mass", batch_size=2, steps=1, seed=0,
                         mixture_components=1)
    with pytest.warns(UserWarning, match="batch_size"):
        tr.train(train, None, cfg_net, cfg)
