"""Two-index kernel checks: the fixed-rule covariance against
pinned high-precision values and against the cosine-transform lobe sum,
the closed-form variance, the beta = 1 collapse onto the single-index
family, and both asymptotic laws (large-lag series, small-time
increment law) against frozen high-precision constants.
"""

import math

import mpmath
import numpy as np
import pytest

from tplab import kernels as K
from tplab import quad
from tplab.errors import AccuracyError, DivergenceWarning, DomainError
from tplab.kernels import FracOUParams, TwoIndexParams, twoindex


# --- variance and beta = 1 collapse -----------------------------------------

def test_variance_frozen_value():
    got = K.twoindex_var(TwoIndexParams(0.9, 0.8, 1.0))
    assert abs(got - 0.87556708932579985) <= 1e-14 * got


@pytest.mark.parametrize("alpha, beta", ((5.0001, 0.1), (10.01, 0.05),
                                         (3.0001, 0.1667)))
def test_variance_near_unit_half_product_matches_mpmath(alpha, beta):
    # Gamma(alpha - 1/(2 beta)) sits next to its pole: 1/(2 beta) rounded
    # first put the variance 2.8e-12, 5.7e-14 and 2.4e-13 off here
    got = K.twoindex_var(TwoIndexParams(alpha, beta, 1.0))
    with mpmath.workdps(40):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        ref = (mpmath.gamma(1 / (2 * b)) * mpmath.gamma(a - 1 / (2 * b))
               / (2 * mpmath.pi * b * mpmath.gamma(a)))
        assert abs(got - ref) <= 4e-15 * ref


@pytest.mark.parametrize("alpha", (0.6, 0.9, 1.2, 1.4))
def test_variance_beta_one_reduces_to_single_index(alpha):
    lam = 1.3
    got = K.twoindex_var(TwoIndexParams(alpha, 1.0, lam))
    ref = K.fou_var(FracOUParams(alpha, lam))
    assert abs(got - ref) <= 1e-12 * ref


@pytest.mark.parametrize("tau", (0.4, 1.1, 3.0, 60.0, 600.0))
def test_cov_beta_one_reduces_to_single_index(tau):
    # at lambda tau = 300 the value is ~3e-130: the contour must not pick
    # up a rounding-sized imaginary part of e^(i pi beta) on the real axis
    q = TwoIndexParams(1.25, 1.0, 0.5)
    got = K.twoindex_cov(q, tau)
    ref = K.fou_cov(FracOUParams(1.25, 0.5), tau)
    assert abs(got.value - ref) <= 1e-7 * abs(ref)
    assert abs(got.value - ref) <= got.abs_error_estimate
    assert got.abs_error_estimate <= 1e-6 * abs(ref)


def test_cov_at_zero_lag_is_variance():
    q = TwoIndexParams(0.9, 0.6, 1.0)
    r = K.twoindex_cov(q, 0.0)
    assert r.value == K.twoindex_var(q)
    assert r.subdivisions == 0


def test_cov_even_and_reproducible():
    q = TwoIndexParams(0.9, 0.6, 1.0)
    r_pos = K.twoindex_cov(q, 0.8)
    r_neg = K.twoindex_cov(q, -0.8)
    assert r_neg.value == r_pos.value
    # a repeat call recomputes the same result
    assert K.twoindex_cov(q, 0.8) == r_pos


# --- covariance against pinned references ----------------------------------

# C(tau) at lambda = 1 on the grid alpha x beta x _GRID_TAUS, pinned from
# 45-digit mpmath (30-digit runs agree to 1e-28) by tanh-sinh quadrature
# of the rotated integral on the real u axis,
#     -mp.quad(lambda u: mp.im((u**(2*b) * mp.expjpi(b) + 1)**(-a))
#              * mp.exp(-u*tau), pts, maxdegree=10) / mp.pi,
# with breakpoints pts = 0, 1 +- (pi (1 - b)/4) 2^j (j = 0, 1, ... while
# below 1), 1, 2, 4, k/tau for k in (1, 4, 16, 64, 256), and inf.
_GRID_TAUS = (1e-3, 0.1, 1.0, 3.0, 10.0, 100.0, 500.0)
_GRID_REFS = (
    ((1, 0.6), (1.2240428878307497, 0.5708192886211646, 0.12695656993378848,
                0.026308014269371176, 0.0022351122115776547,
                1.3365599041824984e-05, 3.853399203297601e-07)),
    ((1, 0.9), (0.5618790483456458, 0.4774573254089173, 0.17181387518538674,
                0.025797759645720442, 0.00037013109382754095,
                4.158120710379383e-07, 4.573082935787177e-09)),
    ((1, 0.99), (0.504535175230468, 0.45472777120116054, 0.18279043033590028,
                 0.02499359571644801, 5.13882407599115e-05,
                 2.158127896030482e-08, 1.7786577886071282e-10)),
    ((1, 0.999), (0.49999398298350445, 0.45264769923391057,
                  0.18382541720774698, 0.024903623123708276,
                  2.5510714910625627e-05, 2.0196641662178707e-09,
                  1.6171789295076527e-11)),
    ((2, 0.6), (0.27774700459981194, 0.2634061812199577, 0.13787061493217576,
                0.04328068064920728, 0.004498719975151777,
                2.6816245635992492e-05, 7.710494022844794e-07)),
    ((2, 0.9), (0.25072240902042864, 0.24899705313237133, 0.17532523940632702,
                0.049020890992197724, 0.0009031353302726813,
                8.332237499876684e-07, 9.147128820049906e-09)),
    ((2, 0.99), (0.2500058311100252, 0.24879673280557163, 0.18314606262989494,
                 0.04972698798965478, 0.00019146243596763866,
                 4.32173808422035e-08, 3.5575009924320653e-10)),
    ((2, 0.999), (0.24999993312596921, 0.24882651555586918,
                  0.18386098710288248, 0.04978120812517109,
                  0.00013140013669873355, 4.044232595781887e-09,
                  3.234514435353729e-11)),
    ((3, 0.6), (0.1620368834214127, 0.16087264777206967, 0.11973045927090487,
                0.05176799060028307, 0.006695006064226125,
                4.035016573464665e-05, 1.1571274663309298e-06)),
    ((3, 0.9), (0.18107741229684773, 0.18072279252418288, 0.1528847079270444,
                0.06317082792933253, 0.0016385821082088284,
                1.2522451467506848e-06, 1.3722137983754876e-08)),
    ((3, 0.99), (0.18687311116561614, 0.18655821215253096,
                 0.16019101242111738, 0.06515521787507998,
                 0.0004890066337077561, 6.490856583868742e-08,
                 5.336529647341723e-10)),
    ((3, 0.999), (0.1874374500480769, 0.18712541373432076,
                  0.160872097011266, 0.06532674882201041,
                  0.000388400822664428, 6.073727750365138e-09,
                  4.852006545941224e-11)),
)
_GRID = [(a, b, tau, ref) for (a, b), refs in _GRID_REFS
         for tau, ref in zip(_GRID_TAUS, refs)]
# the integrand changes sign out in its tail here: a half-line rule that
# extrapolates the tail from two panels stops early on this cell
_SIGN_CHANGE_CELL = (1.5, 0.7, 1.02, 0.15311431081935645)
# at lambda tau = 2e5 every rule node of a panel [0, lambda tau] sees
# e^(-v) = 0; reference: four terms of the tail series at 40 digits, the
# fourth 1e-17 of the value
_FAR_CELL = (1.5, 0.6, 2e5, 1.0888946561033024e-12)
# lambda tau -> 0: at alpha beta = 0.54 the tail h ~ x^(-1.08) spans a
# hundred decades; at alpha = 7, (v/c)^(2 beta alpha) overflows float64.
# References as above at 40 digits, with breakpoints 10^k up to 1e3/tau
_NEAR_ZERO_CELLS = [(0.9, 0.6, 1e-100, 4.0585544712389426),
                    (3.0, 0.999, 1e-100, 0.18743748132941626),
                    (7.0, 0.97, 1e-12, 0.10978501132165295)]


@pytest.mark.parametrize("alpha beta tau ref".split(),
                         _GRID + [_SIGN_CHANGE_CELL, _FAR_CELL]
                         + _NEAR_ZERO_CELLS)
def test_cov_default_policy_meets_its_estimate_and_1e7(alpha, beta, tau,
                                                       ref):
    r = K.twoindex_cov(TwoIndexParams(alpha, beta, 1.0), tau)
    err = abs(r.value - ref)
    assert err <= r.abs_error_estimate
    assert err <= 1e-7 * ref


@pytest.mark.parametrize("alpha beta tau ref".split(),
                         [cell for cell in _GRID if cell[2] <= 1.0])
def test_cov_matches_the_lobe_sum_where_it_converges(alpha, beta, tau, ref):
    # lambda tau <= 1: the float64 cosine-transform lobe sum converges on
    # its own and is a second opinion from the original axis
    tol = 1e-10 * ref
    r = K.twoindex_cov(TwoIndexParams(alpha, beta, 1.0), tau)
    lobes = quad.fourier_cos_halfline(
        lambda k: (k ** (2.0 * beta) + 1.0) ** -alpha / math.pi, tau,
        tol=tol, decay_p=2.0 * alpha * beta)
    assert r.abs_error_estimate <= tol
    assert (abs(r.value - lobes.value)
            <= r.abs_error_estimate + lobes.abs_error_estimate)


def test_cov_refuses_lags_below_its_floor():
    with pytest.raises(DomainError, match="lambda\\*\\|tau\\|"):
        K.twoindex_cov(TwoIndexParams(0.9, 0.6, 1.0), 1e-310)


@pytest.mark.parametrize("far", (None, 1e-12))
def test_cov_on_arrays_equals_its_scalar_calls_bitwise(far):
    # each lag takes its own octave's nodes and sums its own row, also
    # beside a lag from a far octave
    q = TwoIndexParams(1.2, 0.8, 1.0)
    taus = np.array([[0.0, 0.01, -0.3], [1.02, 40.0, 746.0]])
    if far is not None:
        taus = np.concatenate((taus, [[far, -far, 3.0]]))
    r = K.twoindex_cov(q, taus)
    assert r.value.shape == r.subdivisions.shape == taus.shape
    for i in np.ndindex(taus.shape):
        one = K.twoindex_cov(q, taus[i])
        assert (r.value[i], r.abs_error_estimate[i], r.subdivisions[i]) == (
            one.value, one.abs_error_estimate, one.subdivisions)


@pytest.mark.parametrize("alpha beta".split(), ((0.9, 0.6), (1.0, 1.0),
                                                (3.0, 0.999)))
def test_each_lag_is_bitwise_the_same_in_any_batch(alpha, beta):
    # lags share octaves and blocks in some batches and not in others:
    # permuted, split, repeated past a block and mixed with far octaves,
    # each lag keeps its value and estimate
    q = TwoIndexParams(alpha, beta, 1.0)
    taus = np.concatenate((np.geomspace(1e-6, 2e3, 41), [1e-100, 3e5]))
    whole = K.twoindex_cov(q, taus)
    perm = np.random.default_rng(4).permutation(taus.size)
    batches = (K.twoindex_cov(q, taus[perm]),
               K.twoindex_cov(q, np.repeat(taus, 200)))
    for name in ("value", "abs_error_estimate"):
        got = getattr(whole, name)
        assert np.array_equal(getattr(batches[0], name), got[perm])
        assert np.array_equal(getattr(batches[1], name)[::200], got)
        for lo in range(0, taus.size, 7):
            part = K.twoindex_cov(q, taus[lo:lo + 7])
            assert np.array_equal(getattr(part, name), got[lo:lo + 7])


def test_cov_refuses_non_finite_lags_by_name():
    with pytest.raises(DomainError, match="twoindex_cov requires finite tau"):
        K.twoindex_cov(TwoIndexParams(0.9, 0.6, 1.0), [1.0, math.nan])


# C at beta = 1, lambda = 1 past the Bessel box of fou_cov, from 40-digit
# mpmath: (tau/2)^nu K_nu(tau) / (sqrt(pi) Gamma(alpha)), nu = alpha - 1/2.
# h ~ (1 - x^2)^(-alpha) stays small only on a path that keeps well clear
# of x = 1
_LARGE_ALPHA_CELLS = [
    (8.0, 0.01, 0.10473592529388428), (8.0, 3.0, 0.074830630547993719),
    (12.0, 0.01, 0.084093847322727442), (12.0, 1.0, 0.082117897421246041),
    (20.0, 0.01, 0.064292573435821609), (20.0, 3.0, 0.056953912310326066)]


@pytest.mark.parametrize("alpha tau ref".split(), _LARGE_ALPHA_CELLS)
def test_cov_at_large_alpha_matches_pinned_values(alpha, tau, ref):
    r = K.twoindex_cov(TwoIndexParams(alpha, 1.0, 1.0), tau)
    assert abs(r.value - ref) <= r.abs_error_estimate <= 1e-13 * ref


def test_cov_raises_where_its_estimate_misses_the_contract():
    # alpha = 20, beta = 1 at lambda tau = 300: C ~ 1e-113, while the dip,
    # narrowed so that e^(-cx) stays near e^(-c) on it, passes next to
    # the order-20 branch point of h
    with pytest.raises(AccuracyError, match="twoindex_cov\\(tau=300\\)"):
        K.twoindex_cov(TwoIndexParams(20.0, 1.0, 1.0), [1.0, 300.0])


# --- spectral densities ------------------------------------------------------

def test_spectral_y_even_and_positive():
    q = TwoIndexParams(0.9, 0.6, 1.0)
    kpos = np.linspace(0.2, 25.0, 64)
    f = K.twoindex_spectral(q, kpos)
    assert np.all(f > 0.0)
    assert np.array_equal(f, K.twoindex_spectral(q, -kpos))
    assert K.twoindex_spectral(q, 0.0) > 0.0


def test_spectral_x_variant_positive_despite_negative_cross_term():
    # for alpha > 1 the cross term cos(alpha pi / 2) is negative; the
    # base still stays >= lam^(2 beta) sin^2(alpha pi / 2) > 0
    q = TwoIndexParams(1.6, 0.7, 0.8)
    f = K.twoindex_spectral(q, np.linspace(0.0, 10.0, 50), variant="X")
    assert np.all(f > 0.0)


def test_spectral_variants_differ_off_beta_one():
    q = TwoIndexParams(0.9, 0.6, 1.0)
    assert (K.twoindex_spectral(q, 1.0, variant="X")
            != K.twoindex_spectral(q, 1.0, variant="Y"))


def test_spectral_rejects_unknown_variant():
    with pytest.raises(DomainError):
        K.twoindex_spectral(TwoIndexParams(0.9, 0.6, 1.0), 1.0, variant="Z")


# --- large-lag tail series ---------------------------------------------------

@pytest.mark.filterwarnings("ignore::tplab.errors.DivergenceWarning")
@pytest.mark.parametrize("alpha beta".split(), ((0.9, 0.6), (1.5, 0.7)))
@pytest.mark.parametrize("lamtau", (10.0, 20.0))
def test_tail_series_tracks_quadrature(alpha, beta, lamtau):
    q = TwoIndexParams(alpha, beta, 1.0)
    ref = K.twoindex_cov(q, lamtau).value
    got = K.twoindex_cov_tail_series(q, lamtau, 12)
    assert abs(got - ref) <= 0.05 * abs(ref)


def test_tail_series_warns_once_terms_grow():
    # asymptotic, not convergent: pushing far past the optimal truncation
    # point must trip the smallest-term guard instead of summing garbage
    q = TwoIndexParams(0.9, 0.6, 1.0)
    with pytest.warns(DivergenceWarning):
        truncated = K.twoindex_cov_tail_series(q, 10.0, 60)
    ref = K.twoindex_cov(q, 10.0).value
    assert abs(truncated - ref) <= 0.05 * abs(ref)


def test_tail_series_preconditions():
    q = TwoIndexParams(0.9, 0.6, 1.0)
    with pytest.raises(DomainError):
        K.twoindex_cov_tail_series(TwoIndexParams(0.9, 1.0, 1.0), 10.0, 5)
    with pytest.raises(DomainError):
        K.twoindex_cov_tail_series(q, 4.0, 5)
    with pytest.raises(DomainError):
        K.twoindex_cov_tail_series(q, 10.0, 0)


# --- small-time increment law ------------------------------------------------

@pytest.mark.parametrize("alpha beta coeff".split(), (
    (0.9, 0.6, 8.3135556254974624),
    (1.5, 0.5, 1.5957691216057307),
    (1.05, 1.0, 0.96749051010307811),
    (1.25, 1.0, 1.0638460810704871),
    (2.0, 0.5, 1.0),
))
def test_smalltime_coefficient_frozen(alpha, beta, coeff):
    q = TwoIndexParams(alpha, beta, 2.0)
    c, exponent = K.twoindex_smalltime_incvar(q)
    assert abs(c - coeff) <= 1e-9 * coeff
    assert exponent == 2.0 * alpha * beta - 1.0


def test_smalltime_coefficient_ignores_lambda_and_factorization():
    # the law sees only the product alpha*beta; tempering is invisible
    # at vanishing scales
    a = K.twoindex_smalltime_incvar(TwoIndexParams(0.9, 0.6, 1.0))
    b = K.twoindex_smalltime_incvar(TwoIndexParams(0.6, 0.9, 7.0))
    assert a == b


@pytest.mark.parametrize("alpha beta".split(), ((2.0, 0.5), (1.0, 1.0)))
def test_smalltime_law_holds_at_unit_product(alpha, beta):
    # alpha*beta = 1 is the Brownian law var ~ |dt|, not a degeneracy
    q = TwoIndexParams(alpha, beta, 1.0)
    c, exponent = K.twoindex_smalltime_incvar(q)
    assert (c, exponent) == (1.0, 1.0)
    t = 1e-4
    assert abs(K.twoindex_increment_var(q, t) / t - 1.0) <= 1e-3


def test_smalltime_needs_asymptotic_range():
    with pytest.raises(DomainError):
        K.twoindex_smalltime_incvar(TwoIndexParams(4.0, 0.5, 1.0))


def test_increment_variance_approaches_smalltime_law():
    q = TwoIndexParams(0.9, 0.6, 1.0)
    c, exponent = K.twoindex_smalltime_incvar(q)
    t = 1e-3
    ratio = K.twoindex_increment_var(q, t) / (c * t ** exponent)
    assert 0.98 <= ratio <= 1.02


@pytest.mark.parametrize("alpha", (0.75, 1.25, 2.5, 4.0))
def test_increment_variance_matches_the_fou_structure_function(alpha):
    # beta = 1 is fou, whose D is Temme's series with nothing subtracted:
    # two cancellation-free routes, down to lags where C(0) - C(t) would
    # keep no digit
    q = TwoIndexParams(alpha, 1.0, 0.8)
    for t in (1e-12, 1e-6, 1e-3, 0.4, 3.0, 30.0, 1e4):
        ref = 2.0 * float(K.fou.structure_alpha_grid(alpha, 0.8, t))
        got = K.twoindex_increment_var(q, t)
        assert abs(got - ref) <= 1e-13 * ref, t


@pytest.mark.parametrize("lam", (0.3, 1.0, 4.0))
def test_increment_variance_at_unit_indices_is_closed_form(lam):
    # alpha = beta = 1: C(t) = e^(-lambda t) / (2 lambda), so the
    # increment variance is -expm1(-lambda t) / lambda at every scale down
    # to the lag floor lambda t >= 1e-300
    q = TwoIndexParams(1.0, 1.0, lam)
    for t in (4e-300, 1e-100, 1e-9, 1e-2, 1.0, 50.0):
        ref = -math.expm1(-lam * t) / lam
        assert abs(K.twoindex_increment_var(q, t) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("alpha", (0.5005, 0.505, 0.51))
def test_increment_variance_near_the_finite_variance_edge(alpha):
    # alpha beta -> 1/2: h's x^(-2 alpha) tail decays over 40 / (2 alpha
    # - 1) e-folds of x, far past x = e^700; the nodes follow it there
    q = TwoIndexParams(alpha, 1.0, 0.8)
    for t in (1e-12, 1e-3, 1.0, 30.0, 1e4):
        ref = 2.0 * float(K.fou.structure_alpha_grid(alpha, 0.8, t))
        got = K.twoindex_increment_var(q, t)
        assert abs(got - ref) <= 1e-14 * ref, t


@pytest.mark.parametrize("alpha", (1.01, 1.05))
def test_increment_variance_just_above_unit_product_at_tiny_lags(alpha):
    # alpha beta a little above 1 at lambda t <= 1e-100: D less its linear
    # part, whose tail x^(2 - 2 alpha beta) runs past x = e^700, where cx
    # is taken from the weights times x so that nothing overflows
    q = TwoIndexParams(alpha, 1.0, 1.0)
    for t in (1e-280, 1e-200, 1e-100):
        ref = 2.0 * float(K.fou.structure_alpha_grid(alpha, 1.0, t))
        got = K.twoindex_increment_var(q, t)
        assert abs(got - ref) <= 1e-13 * ref, t


def test_increment_variance_on_arrays_equals_its_scalar_calls():
    q = TwoIndexParams(0.9, 0.6, 1.0)
    ts = np.array([[0.0, 1e-8, -0.3], [2.0, 40.0, 1e4]])
    got = K.twoindex_increment_var(q, ts)
    assert got.shape == ts.shape
    for i in np.ndindex(ts.shape):
        assert got[i] == K.twoindex_increment_var(q, ts[i])
    assert K.twoindex_increment_var(q, 0.0) == 0.0


@pytest.mark.parametrize("t, match", ((math.nan, "finite tau"),
                                      (math.inf, "finite tau"),
                                      (1e-310, "lambda\\*\\|tau\\|")))
def test_increment_variance_refuses_what_cov_refuses(t, match):
    with pytest.raises(DomainError, match="twoindex_increment_var.*" + match):
        K.twoindex_increment_var(TwoIndexParams(0.9, 0.6, 1.0), t)


@pytest.mark.parametrize("alpha beta".split(), (
    (0.9, 0.6), (10.4, 0.05), (2.6, 0.2), (0.52, 1.0), (8.0, 1.0)))
def test_increment_variance_at_large_lags_is_twice_var_less_cov(alpha,
                                                                beta):
    # past lambda t ~ 1 C is small beside the variance, so C(0) - C(t)
    # cancels nothing there and is a second opinion on D and its estimate
    q = TwoIndexParams(alpha, beta, 1.0)
    var = K.twoindex_var(q)
    for t in (30.0, 1e4):
        cov = K.twoindex_cov(q, t)
        (d,), (err,), _ = twoindex._trapezoid(q, np.array([t]), True)
        assert 2.0 * d == K.twoindex_increment_var(q, t)
        assert abs(d - (var - cov.value)) <= err + cov.abs_error_estimate
        assert err <= 1e-9 * d


def test_increment_variance_consistent_with_cov():
    q = TwoIndexParams(1.2, 0.8, 0.7)
    t = 0.6
    var = K.twoindex_var(q)
    manual = 2.0 * (var - K.twoindex_cov(q, t).value)
    got = K.twoindex_increment_var(q, t)
    assert abs(got - manual) <= 1e-12 * abs(got)


# --- parameter domain --------------------------------------------------------

@pytest.mark.parametrize("alpha beta lam".split(), (
    (0.0, 0.6, 1.0),
    (-0.4, 0.6, 1.0),
    (0.9, 0.0, 1.0),
    (0.9, 1.2, 1.0),
    (0.9, 0.6, 0.0),
    (0.9, 0.6, math.inf),
    (0.7, 0.7, 1.0),
))
def test_params_domain(alpha, beta, lam):
    with pytest.raises(DomainError):
        TwoIndexParams(alpha, beta, lam)


def test_hurst_property():
    assert TwoIndexParams(0.9, 0.8, 1.0).hurst == 0.9 * 0.8 - 0.5
