import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.spatial import cKDTree
from scipy.special import digamma, gammaln

from masslearn import cdi, cli

STD_H = 1.4189385332046727       # 0.5*log(2*pi*e)
FOLDED_H = 0.7257913526447274    # STD_H - log 2


def test_psi_port_equals_digamma_bit_for_bit():
    ns = list(range(1, 3001)) + np.random.default_rng(0).integers(1, 10**7, 5000).tolist()
    assert [n for n in ns if cdi._psi(n) != digamma(n)] == []


def test_lgam_port_equals_gammaln_bit_for_bit():
    rng = np.random.default_rng(1)
    xs = [m / 2 + 1 for m in range(1, 5001)] + (1e4 - rng.uniform(0.0, 1e4, 5000)).tolist()
    xs += rng.uniform(0.0, 13.0, 5000).tolist() + [1e-300, 2.0, 3.0, 13.0, 1000.0, 1e8, 1e9]
    assert [x for x in xs if x > 0 and cdi._lgam(x) != gammaln(x)] == []


def test_knn_entropy_standard_normal():
    x = np.random.default_rng(0).normal(size=20000)
    assert abs(cdi.knn_entropy(x, k=3) - STD_H) < 0.02


def test_knn_entropy_uniform_is_zero():
    u = np.random.default_rng(3).random(20000)
    assert abs(cdi.knn_entropy(u, k=3)) < 0.02


def test_knn_entropy_two_dims():
    z = np.random.default_rng(4).normal(size=(20000, 2))
    assert abs(cdi.knn_entropy(z, k=3) - 2 * STD_H) < 0.02


def test_knn_entropy_translation_exact():
    # neighbor distances do not change under translation, so neither does
    # the estimate, to machine precision rather than statistically
    z = np.random.default_rng(5).normal(size=(2000, 2))
    assert abs(cdi.knn_entropy(z + 17.5) - cdi.knn_entropy(z)) < 1e-9


def test_knn_entropy_scaling_shifts_by_log_factor():
    z = np.random.default_rng(6).normal(size=(2000, 3))
    h = cdi.knn_entropy(z)
    assert abs(cdi.knn_entropy(2.0 * z) - h - 3 * math.log(2.0)) < 1e-9


def test_knn_entropy_input_validation():
    gen = np.random.default_rng(7)
    with pytest.raises(ValueError, match="more than k"):
        cdi.knn_entropy(gen.normal(size=3), k=3)
    with pytest.raises(ValueError, match="k must be"):
        cdi.knn_entropy(gen.normal(size=10), k=0)


def test_knn_entropy_duplicates_get_index_jitter():
    # discrete repeats would give log(0); the deterministic displacement
    # keeps the estimate finite and reproducible
    dup = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    a = cdi.knn_entropy(dup, k=3)
    b = cdi.knn_entropy(dup, k=3)
    assert np.isfinite(a)
    assert a == b
    # heavily quantized data still works end to end
    q = np.round(np.random.default_rng(8).normal(size=500) * 2) / 2
    assert np.isfinite(cdi.knn_entropy(q, k=3))


def _tree_rho(z, k):
    return cKDTree(z).query(z, k=k + 1)[0][:, k]


def _exact_rho(z, k):
    # brute force over (n, 1) samples; column 0 of each sorted row is the sample itself
    return np.sort(np.abs(z - z.T), axis=1)[:, k]


def _ulp_step(v):
    return np.maximum(1e-12, 4.0 * np.spacing(np.abs(v)))


def _absolute_step(v):
    return np.full_like(v, 1e-12)


def _reference_knn_entropy(z, k, rho=_tree_rho, step=_ulp_step):
    """knn_entropy as it was before scalar samples were sorted: every
    neighbor query goes through cKDTree.  `step` is the duplicate
    displacement per unit of index + 1; `_absolute_step` is the old one."""
    z = np.asarray(z, dtype=np.float64).reshape(len(z), -1)
    n, m = z.shape
    r = rho(z, k)
    zero = r == 0.0
    if zero.any():
        jittered = z.copy()
        idx = np.flatnonzero(zero)
        jittered[idx] += step(z[idx]) * (idx[:, None] + 1.0)
        r = rho(jittered, k)
        if (r == 0.0).any():
            raise ValueError("knn_entropy: duplicate samples persist after index jitter")
    log_unit_ball = 0.5 * m * math.log(math.pi) - gammaln(0.5 * m + 1.0)
    return float(digamma(n) - digamma(k) + log_unit_ball + (m / n) * np.log(r).sum())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


@st.composite
def _sizes(draw):
    n = draw(st.integers(2, 3000))
    # a tree query costs about n * k, so k spans 1..n-1 on the smaller samples
    return n, draw(st.integers(1, n - 1 if n <= 600 else 100))


@settings(max_examples=80, deadline=None)
@given(nk=_sizes(), scale=st.floats(1e-3, 1e5), offset=st.floats(-1e6, 1e6),
       quantum=st.sampled_from([0.0, 0.1, 0.5, 2.0]), seed=st.integers(0, 2 ** 32 - 1),
       column=st.booleans())
@example(nk=(30, 3), scale=1e-160, offset=0.0, quantum=0.0, seed=0, column=False)
@example(nk=(3000, 2999), scale=1.0, offset=0.0, quantum=0.0, seed=1, column=True)
@example(nk=(500, 3), scale=1.0, offset=-1e6, quantum=0.5, seed=8, column=False)
def test_scalar_knn_entropy_matches_the_tree_bit_for_bit(nk, scale, offset, quantum, seed, column):
    """Sorted scalar samples give the tree's distances and estimate bit for bit.

    The tree takes sqrt(fl(d^2)), which is |d| unless d^2 underflows.  For
    N(0, 1) * 1e-160 samples (n = 30, seed 0) it does: there the tree reads
    -367.1281 and the exact |d| -367.1251, and the sort path must equal a
    brute-force exact-|d| reference instead.  Rounded draws (`quantum`)
    give ties and exact duplicates, which take the displacement path.
    """
    n, k = nk
    x = np.random.default_rng(seed).normal(size=n) * scale
    if quantum:
        x = np.round(x / (quantum * scale)) * (quantum * scale)
    x = x + offset
    points = x[:, None]
    gaps = np.diff(np.sort(x))
    underflow = (gaps[gaps > 0] ** 2 < np.finfo(np.float64).tiny).any()
    rho = _exact_rho if underflow else _tree_rho
    np.testing.assert_array_equal(cdi._kth_neighbor_distance(points, k), rho(points, k))
    z = points if column else x
    got = _outcome(cdi.knn_entropy, z, k)
    assert got == _outcome(_reference_knn_entropy, z, k, rho)
    if np.abs(x).max() < 1024:
        # below 1024 the displacement is still the absolute 1e-12 per index
        assert got == _outcome(_reference_knn_entropy, z, k, rho, _absolute_step)


def test_cdi_demo_estimates_match_the_tree_routine(tmp_path, monkeypatch, capsys):
    # all 11 estimates at the default n = 20000 and k = 3, each 1 full
    # sample and 10 folds, compared as values rather than printed digits
    runs = []

    def recorded(estimate):
        def run(m, x, k=3):
            runs[-1].append(estimate(m, x, k=k))
            return runs[-1][-1]
        return run

    monkeypatch.setattr(cdi, "map_cdi_estimate", recorded(cdi.map_cdi_estimate))
    runs.append([])
    assert cli.main(["cdi-demo", "--out", str(tmp_path / "sorted")]) == 0
    monkeypatch.setattr(cdi, "knn_entropy", lambda z, k=3: _reference_knn_entropy(z, k))
    runs.append([])
    assert cli.main(["cdi-demo", "--out", str(tmp_path / "tree")]) == 0
    capsys.readouterr()
    assert len(runs[0]) == 11 and runs[0][0].n == 20000 and runs[0][0].k == 3
    assert runs[0] == runs[1]


def test_knn_entropy_duplicate_displacement_survives_large_values():
    # an absolute 1e-12 step is rounded away once |x| > 2**14 for the first
    # indices; a step of at least 4 ulps keeps the duplicates apart
    q = np.round(np.random.default_rng(8).normal(size=500) * 2) / 2
    for shift in (1e5, 1e6):
        assert np.isfinite(cdi.knn_entropy(q + shift, k=3))
        with pytest.raises(ValueError, match="persist"):
            _reference_knn_entropy(q + shift, 3, step=_absolute_step)
    # below 1024 the values are those of the absolute step
    dup = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    for v in (dup, q, q + 1e3):
        assert cdi.knn_entropy(v, k=3) == _reference_knn_entropy(v, 3, step=_absolute_step)


def test_bad_samples_are_value_errors():
    gen = np.random.default_rng(7)
    for m, bad in itertools.product((1, 2), (np.nan, np.inf, -np.inf)):
        z = gen.normal(size=(1000, m))
        z[3, m - 1] = bad
        for sample in ((z[:, 0], z) if m == 1 else (z,)):
            with pytest.raises(ValueError, match="must be finite"):
                cdi.knn_entropy(sample)
            with pytest.raises(ValueError, match="must be finite"):
                cdi.cdi_estimate(sample, np.zeros(1000))
    empty = np.zeros((1000, 0))
    with pytest.raises(ValueError, match="no dimensions"):
        cdi.knn_entropy(empty)
    with pytest.raises(ValueError, match="no dimensions"):
        cdi.cdi_estimate(empty, np.zeros(1000))


def test_invertible_maps_conserve_input_entropy():
    x = np.random.default_rng(0).normal(size=20000)
    catalog = cdi.analytic_map_catalog()
    for name in ("scale2", "affine3", "cube", "xabs"):
        m = catalog[name]
        assert m.invertible
        assert m.reference_cdi == STD_H
        est = cdi.map_cdi_estimate(m, x)
        assert abs(est.value - STD_H) < 0.03, name
        assert est.stderr > 0


def test_folding_maps_lose_log2():
    x = np.random.default_rng(0).normal(size=20000)
    catalog = cdi.analytic_map_catalog()
    ests = {}
    for name in ("abs", "square"):
        m = catalog[name]
        assert not m.invertible
        assert abs(m.reference_cdi - FOLDED_H) < 1e-12
        ests[name] = cdi.map_cdi_estimate(m, x).value
        assert abs(ests[name] - FOLDED_H) < 0.03, name
    # |x| and x^2 carry identical information, so the estimates nearly agree
    assert abs(ests["abs"] - ests["square"]) < 0.01


def test_shifted_fold_reference():
    # frozen quadrature value for H(|X - 1|)
    assert abs(cdi.shifted_fold_entropy(1.0) - 1.0626221729915593) < 1e-10
    # folding exactly at the mode costs the full log 2
    assert abs(cdi.shifted_fold_entropy(0.0) - FOLDED_H) < 1e-9
    # folding far from the mass costs nothing
    assert abs(cdi.shifted_fold_entropy(8.0) - STD_H) < 1e-4
    x = np.random.default_rng(0).normal(size=20000)
    m = cdi.analytic_map_catalog()["absshift"]
    assert abs(cdi.map_cdi_estimate(m, x).value - m.reference_cdi) < 0.03


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0])
def test_shifted_fold_entropy_matches_adaptive_quadrature(c):
    def neg_plogp(y):
        p = (math.exp(-0.5 * (y + c) ** 2) + math.exp(-0.5 * (y - c) ** 2)) / math.sqrt(2.0 * math.pi)
        return -p * math.log(p) if p > 0.0 else 0.0

    # quad's own error estimate is loose: 1.1e-8 at c = 5, where the two agree to 1e-13
    assert abs(cdi.shifted_fold_entropy(c) - quad(neg_plogp, 0.0, 40.0, limit=200)[0]) <= 1e-12


def test_projection_conserves_one_coordinate():
    a = np.array([1.0, 2.0, 2.0]) / 3.0
    assert cdi.projection_cdi_reference(a) == STD_H
    assert cdi.projection_cdi_reference(a * 7.0) == STD_H
    with pytest.raises(ValueError, match="nonzero"):
        cdi.projection_cdi_reference(np.zeros(3))
    x = np.random.default_rng(2).normal(size=(20000, 3))
    fx, log_jac = cdi.projection_samples(a, x)
    est = cdi.cdi_estimate(fx, log_jac)
    assert abs(est.value - STD_H) < 0.04


def test_compose_chains_log_derivative():
    catalog = cdi.analytic_map_catalog()
    chained = cdi.compose(catalog["scale2"], catalog["cube"])
    x = np.linspace(0.5, 2.0, 7)
    np.testing.assert_allclose(chained.fn(x), 2.0 * x ** 3, rtol=0, atol=1e-12)
    np.testing.assert_allclose(chained.log_deriv(x), np.log(6.0 * x * x), rtol=0, atol=1e-12)
    assert chained.invertible
    assert chained.reference_cdi == STD_H

    post_fold = cdi.compose(catalog["abs"], catalog["scale2"])
    assert not post_fold.invertible
    assert math.isnan(post_fold.reference_cdi)
    # invertible post-processing keeps the inner reference
    rescaled = cdi.compose(catalog["scale2"], catalog["abs"])
    assert rescaled.reference_cdi == catalog["abs"].reference_cdi


def test_dpi_verdicts():
    x = np.random.default_rng(0).normal(size=20000)
    catalog = cdi.analytic_map_catalog()
    upstream = cdi.map_cdi_estimate(catalog["scale2"], x)
    invertible_post = cdi.map_cdi_estimate(cdi.compose(catalog["affine3"], catalog["scale2"]), x)
    folding_post = cdi.map_cdi_estimate(cdi.compose(catalog["abs"], catalog["scale2"]), x)
    assert cdi.dpi_verdict(upstream, invertible_post) == "equal"
    assert cdi.dpi_verdict(upstream, folding_post) == "strict"
    # reversing the arguments must flag the impossible direction
    assert cdi.dpi_verdict(folding_post, upstream) == "violation"


def test_cdi_estimate_validation_and_determinism():
    gen = np.random.default_rng(9)
    fx = gen.normal(size=1500)
    lj = np.zeros(1500)
    with pytest.raises(ValueError, match="at least 1000"):
        cdi.cdi_estimate(fx[:500], lj[:500])
    with pytest.raises(ValueError, match="one value per sample"):
        cdi.cdi_estimate(fx, lj[:-1])
    a = cdi.cdi_estimate(fx, lj)
    b = cdi.cdi_estimate(fx, lj)
    assert (a.value, a.stderr, a.n, a.k) == (b.value, b.stderr, b.n, b.k)
    assert a.stderr > 0


def test_quantized_mi_identity_is_log_bins():
    x = np.random.default_rng(10).normal(size=1000)
    for bins in (4, 8, 10):
        assert abs(cdi.quantized_mi(x, x, bins) - math.log(bins)) < 1e-12


def test_quantized_mi_independent_near_zero():
    gen = np.random.default_rng(11)
    x = gen.normal(size=5000)
    y = gen.normal(size=5000)
    assert cdi.quantized_mi(x, y, 10) < 0.05


def test_quantized_mi_grows_with_resolution():
    # the discrete proxy diverges as the grid refines even though the
    # underlying relationship (identity) carries fixed conserved information
    x = np.random.default_rng(12).normal(size=4096)
    vals = [cdi.quantized_mi(x, x, b) for b in (4, 16, 64)]
    assert vals[0] < vals[1] < vals[2]


def test_quantized_mi_monotone_invariance():
    gen = np.random.default_rng(13)
    x = gen.normal(size=3000)
    y = x + 0.5 * gen.normal(size=3000)
    base = cdi.quantized_mi(x, y, 12)
    assert abs(cdi.quantized_mi(x, np.exp(y), 12) - base) < 1e-12
    assert base > 0.5


def test_quantized_mi_validation():
    x = np.arange(10.0)
    with pytest.raises(ValueError, match="same length"):
        cdi.quantized_mi(x, x[:-1], 4)
    with pytest.raises(ValueError, match="at least 2 bins"):
        cdi.quantized_mi(x, x, 1)
