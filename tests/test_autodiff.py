import inspect
import math

import numpy as np
import pytest

import helpers
from masslearn import autodiff as ad
from masslearn import network as net


def test_logsumexp_values():
    t = ad.Tape()
    rows = np.array([[3.7, -np.inf], [0.0, 0.0], [1000.0, 1000.0]])
    got = ad.logsumexp_rows(t.leaf(rows)).value
    assert got[0] == pytest.approx(3.7, abs=1e-12)
    assert got[1] == pytest.approx(math.log(2), abs=1e-12)
    assert got[2] == pytest.approx(1000.0 + math.log(2), abs=1e-9)
    assert np.all(np.isfinite(got))


def test_logsumexp_empty_raises():
    t = ad.Tape()
    with pytest.raises(ValueError, match="empty reduction"):
        ad.logsumexp_rows(t.leaf(np.zeros((3, 0))))


def _logdet_spd(a, d):
    # log det of the SPD matrix a = d d^T, by the Gram routine behind the tape's volume node
    np.testing.assert_allclose(d @ d.T, a, rtol=0, atol=1e-14)
    return 2.0 * net.half_logdet_gram(d[None], 0.0)[0]


def test_logdet_spd_values():
    assert _logdet_spd(np.eye(3), np.eye(3)) == pytest.approx(0.0, abs=1e-12)
    assert _logdet_spd(np.diag([4.0, 9.0]), np.diag([2.0, 3.0])) == pytest.approx(math.log(36), abs=1e-12)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    d = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    assert _logdet_spd(m, d) == pytest.approx(math.log(3), abs=1e-12)


def test_logdet_matches_cholesky_factor_sum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 6)
        l_fac = np.tril(rng.normal(size=(n, n)))
        l_fac[np.arange(n), np.arange(n)] = 0.3 + np.abs(l_fac.diagonal())
        got = _logdet_spd(l_fac @ l_fac.T, l_fac)
        want = 2.0 * np.sum(np.log(l_fac.diagonal()))
        assert got == pytest.approx(want, abs=1e-12)


def test_two_path_accumulation():
    # z = x*y + x must accumulate both paths into dz/dx = y + 1.
    t = ad.Tape()
    x = t.leaf(np.array(1.7))
    y = t.leaf(np.array(-2.5))
    z = ad.add(ad.mul(x, y), x)
    grads = ad.backward(z, [x, y])
    assert grads[x] == pytest.approx(-2.5 + 1.0, abs=1e-15)
    assert grads[y] == pytest.approx(1.7, abs=1e-15)


def test_dot_backward():
    t = ad.Tape()
    w = t.leaf(np.array([1.0, 2.0, 3.0]))
    x = t.leaf(np.array([4.0, 5.0, 6.0]))
    grads = ad.backward(ad.dot(w, x), [w, x])
    np.testing.assert_allclose(grads[w], [4.0, 5.0, 6.0], atol=0)
    np.testing.assert_allclose(grads[x], [1.0, 2.0, 3.0], atol=0)


def test_unused_leaf_gets_zero_gradient():
    t = ad.Tape()
    x = t.leaf(np.array(2.0))
    unused = t.leaf(np.ones((2, 2)))
    grads = ad.backward(ad.mul(x, x), [x, unused])
    assert grads[x] == pytest.approx(4.0)
    np.testing.assert_array_equal(grads[unused], np.zeros((2, 2)))


def test_backward_requires_scalar_output():
    t = ad.Tape()
    x = t.leaf(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.neg(x), [x])


def test_shape_mismatch_rejected():
    t = ad.Tape()
    a = t.leaf(np.ones((2, 3)))
    b = t.leaf(np.ones((3, 2)))
    with pytest.raises(ValueError):
        ad.add(a, b)
    v = t.leaf(np.ones(3))
    with pytest.raises(ValueError):
        ad.mul(a, v)  # row-broadcast mul is deliberately not provided


def test_catalog_covers_every_node_function():
    # every public function of autodiff that makes a node has an entry, and
    # every entry names a function that exists
    makers = {name for name, fn in vars(ad).items()
              if inspect.isfunction(fn) and fn.__module__ == ad.__name__
              and not name.startswith("_") and fn.__annotations__.get("return") == "Node"}
    named = {name.split(":")[0] for name, _, _ in helpers.primitive_gradcheck_catalog()}
    assert makers == {name for name in named if "." not in name}
    modules = {"network": net}
    for name in named - makers:
        module, fn = name.split(".")
        assert inspect.isfunction(getattr(modules[module], fn, None)), name


def test_every_primitive_grad_check():
    worst = helpers.run_primitive_gradchecks(n_points=3, seed=1)
    bad = {k: v for k, v in worst.items() if v > 1e-5}
    assert not bad, f"primitives failing grad_check: {bad}"


def test_repeated_backward_same_tape():
    # Two reverse sweeps over one tape must not interfere.
    t = ad.Tape()
    x = t.leaf(np.array([[1.0, 2.0]]))
    w = t.leaf(np.array([[3.0, 0.0], [0.0, 5.0]]))
    y = ad.matmul(x, w)
    g0 = ad.backward(ad.sum_all(ad.mul(y, t.constant([[1.0, 0.0]]))), [x])[x]
    g1 = ad.backward(ad.sum_all(ad.mul(y, t.constant([[0.0, 1.0]]))), [x])[x]
    np.testing.assert_allclose(g0, [[3.0, 0.0]], atol=0)
    np.testing.assert_allclose(g1, [[0.0, 5.0]], atol=0)


def test_deterministic_bit_identical():
    def build():
        rng = np.random.default_rng(11)
        t = ad.Tape()
        a = t.leaf(rng.normal(size=(4, 4)))
        b = t.leaf(rng.normal(size=(4, 4)))
        m = ad.matmul(ad.mul(a, a), ad.neg(b))
        out = ad.logsumexp_rows(m)
        loss = ad.sum_all(out)
        return loss.value.tobytes(), ad.backward(loss, [a, b])[a].tobytes()

    first, second = build(), build()
    assert first == second


def test_matmul_constant_operand_gets_no_gradient_product():
    # the leaf's gradient is the two-sided one bit for bit; the constant's is never formed
    gen = np.random.default_rng(3)
    a, b = gen.normal(size=(4, 3)), gen.normal(size=(3, 5))
    t = ad.Tape()
    la, lb = t.leaf(a), t.leaf(b)
    both = ad.backward(ad.sum_all(ad.matmul(la, lb)), [la, lb])
    for const_left in (True, False):
        t = ad.Tape()
        left = t.constant(a) if const_left else t.leaf(a)
        right = t.leaf(b) if const_left else t.constant(b)
        out = ad.matmul(left, right)
        leaf, want = (right, both[lb]) if const_left else (left, both[la])
        np.testing.assert_array_equal(ad.backward(ad.sum_all(out), [leaf])[leaf], want)
        assert out.vjp(np.ones(out.shape))[0 if const_left else 1] is None


def test_linear_matches_matmul_add():
    # value and leaf gradients bit for bit as matmul by a transposed weight
    # view plus a bias add; a constant input gets None, and the weight
    # gradient is row-major like w
    gen = np.random.default_rng(4)
    x, w, b, g = (gen.normal(size=s) for s in ((7, 5), (3, 5), (3,), (7, 3)))
    for x_is_leaf in (True, False):
        t = ad.Tape()
        xn = t.leaf(x) if x_is_leaf else t.constant(x)
        wn, wt, bn = t.leaf(w), t.leaf(w.T), t.leaf(b)
        one = ad.linear(xn, wn, bn)
        two = ad.add(ad.matmul(xn, wt), bn)
        assert one.value.tobytes() == two.value.tobytes()
        weight = t.constant(g)
        got = ad.backward(ad.sum_all(ad.mul(one, weight)), [xn, wn, bn])
        want = ad.backward(ad.sum_all(ad.mul(two, weight)), [xn, wt, bn])
        assert got[wn].tobytes() == want[wt].T.tobytes()
        assert got[bn].tobytes() == want[bn].tobytes()
        if x_is_leaf:
            assert got[xn].tobytes() == want[xn].tobytes()
        assert got[wn].flags.c_contiguous
        assert (one.vjp(g)[0] is None) == (not x_is_leaf)


def test_linear_rejects_mismatched_shapes():
    t = ad.Tape()
    x, w = t.leaf(np.ones((2, 3))), t.leaf(np.ones((4, 3)))
    with pytest.raises(ValueError):
        ad.linear(x, t.leaf(np.ones((4, 2))), t.leaf(np.ones(4)))
    with pytest.raises(ValueError):
        ad.linear(x, w, t.leaf(np.ones(3)))
