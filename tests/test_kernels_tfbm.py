import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import kernels as K
from tplab import sampler, specfun
from tplab.errors import DomainError
from tplab.kernels.params import (FracOUParams, HurstProfile, MixtureParams,
                                  TmbmParams)

PARAM_SETS = ((0.75, 0.5), (1.25, 1.0), (0.6, 2.0), (1.4, 0.25))
EPS = np.finfo(float).eps


# --- reduced (nonstationary) covariance -----------------------------------

@pytest.mark.parametrize("alpha lam".split(), PARAM_SETS)
def test_four_term_vs_coefficient_decomposition(alpha, lam):
    p = FracOUParams(alpha, lam)
    for t in np.linspace(0.15, 4.2, 10):
        for s in np.linspace(0.2, 3.8, 10):
            a = K.tfbm_cov(p, t, s)
            b = K.tfbm_cov_from_ct(p, t, s)
            assert abs(a - b) <= 1e-10


@pytest.mark.parametrize("alpha lam".split(), PARAM_SETS)
def test_array_calls_are_the_scalar_calls(alpha, lam):
    # a grid with t = 0, s = 0 and zero-lag (t = s) cells
    p = FracOUParams(alpha, lam)
    axis = np.array([0.0, 0.15, 0.2, 1.3, 4.2])
    ts, ss = np.meshgrid(axis, axis, indexing="ij")
    four = K.tfbm_cov(p, ts, ss)
    ct = K.tfbm_cov_from_ct(p, ts, ss)
    assert four.tolist() == [[K.tfbm_cov(p, t, s) for s in axis]
                             for t in axis]
    assert ct.tolist() == [[K.tfbm_cov_from_ct(p, t, s) for s in axis]
                           for t in axis]
    assert (four[0] == 0.0).all() and (ct[:, 0] == 0.0).all()
    assert np.abs(four - ct).max() <= 1e-10
    assert (K.tfbm_ct_coefficient(p, axis[1:]).tolist()
            == [K.tfbm_ct_coefficient(p, t) for t in axis[1:]])
    assert isinstance(K.tfbm_cov_from_ct(p, 1.3, 1.3), float)
    with pytest.raises(DomainError):
        K.tfbm_ct_coefficient(p, axis)


@pytest.fixture
def bessel_sizes(monkeypatch):
    """The element count of each specfun.besselk_grid call from here on."""
    sizes = []
    real = specfun.besselk_grid

    def counting(nu, x):
        sizes.append(np.size(x))
        return real(nu, x)

    monkeypatch.setattr(specfun, "besselk_grid", counting)
    return sizes


@pytest.mark.parametrize("call", (
    lambda p: K.tfbm_cov(p, 1.3, 0.4),
    lambda p: K.tfbm_cov(p, np.linspace(0.0, 2.0, 5)[:, None],
                         np.array([0.0, 0.5, 2.0])),
    lambda p: K.tfbm_cov_from_ct(p, 1.3, 0.4),
    lambda p: K.tfbm_cov_from_ct(p, np.linspace(0.0, 2.0, 5)[:, None],
                                 np.array([0.0, 0.5, 2.0])),
    lambda p: K.tfbm_increment_cov(p, 0.1, 0.1 * np.arange(6)),
    lambda p: K.tfbm_increment_cov(p, np.array([0.1, 0.2]), 0.5),
), ids=("cov", "cov-grid", "ct", "ct-grid", "increment", "increment-lags"))
def test_reduced_routes_make_one_bessel_batch(bessel_sizes, call):
    # lags beyond lambda |tau| = 2, where D takes Bessel K (at or below
    # it D makes none: test_gram_makes_no_bessel_call_at_small_lags)
    call(FracOUParams(1.25, 50.0))
    assert len(bessel_sizes) == 1


@pytest.mark.parametrize("t0 bessel_elements".split(),
                         ((0.0, 2 * 63 + 64 * 63), (0.5, 2 * 64 + 64 * 63)))
def test_gram_evaluates_t_s_and_the_lags_at_their_own_sizes(
        bessel_sizes, t0, bessel_elements):
    # n + n + n^2 arguments, not 3 n^2; zero ones are no Bessel value.
    # Every nonzero lambda |tau| is beyond 2, where D takes Bessel K
    K.tfbm_gram(FracOUParams(0.75, 50.0), t0 + 0.05 * np.arange(64))
    assert bessel_sizes == [bessel_elements]


def test_gram_makes_no_bessel_call_at_small_lags(bessel_sizes):
    # every lambda |tau| <= 2: D is its series or, near an integer nu,
    # Temme's form, and no Bessel K is evaluated.  The first two are the
    # benchmark's tmbm and tfbm grids
    times = 0.005 * np.arange(256)
    K.tmbm_gram(HurstProfile.saturating_ramp(0.8, 0.1), 1.0, times)
    sampler.build_gram(sampler.ProcessDescriptor(
        "tfbm", FracOUParams(0.75, 0.05)), sampler.TimeGrid(0.0, 0.01, 512))
    K.tmbm_gram(HurstProfile.saturating_ramp(1.39, 0.1), 1.0, times)
    sampler.build_gram(sampler.ProcessDescriptor(
        "tfbm", FracOUParams(2.5, 1.0)), sampler.TimeGrid(0.3, 0.005, 64))
    assert bessel_sizes == []


def test_pinned_origin_and_symmetry():
    p = FracOUParams(1.25, 0.5)
    assert K.tfbm_cov(p, 0.0, 0.0) == 0.0
    assert K.tfbm_cov(p, 2.0, 0.0) == 0.0
    assert K.tfbm_cov(p, 1.3, 2.9) == K.tfbm_cov(p, 2.9, 1.3)


def test_variance_is_diagonal_of_covariance():
    p = FracOUParams(0.8, 1.0)
    for t in (0.0, 0.4, 2.5):
        assert abs(K.tfbm_cov(p, t, t) - K.tfbm_var(p, t)) <= 1e-14


def test_variance_pinch_between_one_and_two_sigma2():
    p = FracOUParams(1.25, 0.5)
    sig2 = K.fou_var(p)
    for t in np.linspace(0.05, 300.0, 50):
        v = K.tfbm_var(p, t)
        assert 0.0 < v <= 2.0 * sig2 * (1.0 + 1e-14)
    assert K.tfbm_var(p, 80.0) >= sig2


def test_coefficient_times_power_recovers_variance():
    # c_t |t|^(2H) = var(t) exactly, by construction of the tail term
    p = FracOUParams(0.75, 1.0)
    for t in (0.2, 1.0, 7.0):
        lhs = K.tfbm_ct_coefficient(p, t) * t ** (2.0 * p.hurst)
        assert abs(lhs - K.tfbm_var(p, t)) <= 1e-13 * abs(lhs)


def test_coefficient_small_lag_limit():
    # lam t -> 0: c_t -> Gamma(1-2H) cos(H pi) / (H pi), approached at
    # rate O((lam t)^min(2H, 2-2H))
    p = FracOUParams(1.25, 1.0)
    hh = p.hurst
    lim = math.gamma(1.0 - 2.0 * hh) * math.cos(hh * math.pi) / (hh * math.pi)
    got = K.tfbm_ct_coefficient(p, 1e-6)
    assert abs(got - lim) <= 5e-3 * abs(lim)


def test_coefficient_rejects_zero_time():
    with pytest.raises(DomainError):
        K.tfbm_ct_coefficient(FracOUParams(0.75, 1.0), 0.0)


def test_asymptotic_stationarity_offset():
    # cov(t, s) - C(t-s) -> sigma^2 once both times are deep in the bulk
    p = FracOUParams(0.75, 0.5)
    sig2 = K.fou_var(p)
    drift = K.tfbm_cov(p, 400.0, 402.0) - K.fou_cov(p, 2.0)
    assert abs(drift - sig2) <= 1e-12 * sig2


@given(st.floats(min_value=0.55, max_value=1.45),
       st.floats(min_value=0.3, max_value=4.0))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_scaling_identity(alpha, r):
    lam, t, s = 1.0, 2.1, 0.9
    lhs = K.tfbm_cov(FracOUParams(alpha, lam), r * t, r * s)
    rhs = r ** (2.0 * alpha - 1.0) * K.tfbm_cov(FracOUParams(alpha, r * lam),
                                                t, s)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1e-300)


# --- increments ------------------------------------------------------------

def test_increment_cov_at_zero_separation_is_increment_variance():
    p = FracOUParams(1.1, 0.8)
    tau = 0.3
    ref = 2.0 * (K.fou_var(p) - K.fou_cov(p, tau))
    assert abs(K.tfbm_increment_cov(p, tau, 0.0) - ref) <= 1e-14 * ref


def test_increment_cov_even_in_separation():
    p = FracOUParams(0.9, 1.0)
    a = K.tfbm_increment_cov(p, 0.5, 1.7)
    b = K.tfbm_increment_cov(p, 0.5, -1.7)
    assert abs(a - b) <= 1e-14 * abs(a)


def test_increment_spectral_nonnegative_and_even():
    p = FracOUParams(0.75, 1.0)
    kpos = np.linspace(0.3, 30.0, 100)
    f_pos = K.tfbm_increment_spectral(p, 0.4, kpos)
    assert K.tfbm_increment_spectral(p, 0.4, 0.0) >= 0.0
    assert np.all(f_pos >= 0.0)
    assert np.array_equal(f_pos, K.tfbm_increment_spectral(p, 0.4, -kpos))


def test_increment_variance_matches_spectral_integral():
    # var of a lag-tau increment = int_R (2 - 2 cos(k tau)) g(k) dk with
    # g the stationary spectral density; the monotone piece folds through
    # k = tan(theta), the oscillatory piece goes to the cosine transform
    from tplab import quad
    alpha, lam, tau = 0.75, 1.0, 0.4
    p = FracOUParams(alpha, lam)
    inv_two_pi = 1.0 / (2.0 * math.pi)

    def g(k):
        return inv_two_pi * (k * k + lam * lam) ** (-alpha)

    flat = quad.integrate_adaptive(
        lambda th: g(np.tan(th)) / np.cos(th) ** 2,
        0.0, 0.5 * math.pi, tol=1e-11)
    wavy = quad.fourier_cos_halfline(g, tau, tol=1e-11, decay_p=2.0 * alpha)
    ref = K.tfbm_increment_cov(p, tau, 0.0)
    assert abs(2.0 * 2.0 * (flat.value - wavy.value) - ref) <= 1e-7 * ref


# --- long-range dependence plateau ----------------------------------------

def test_plateau_bounds_and_monotone_limit():
    # strictly increasing while the variance is still growing; once it
    # saturates at 2 sigma^2 the plateau sits at exactly 1/2 in floats
    p = FracOUParams(1.25, 0.5)
    prev = 0.0
    for t in (0.1, 1.0, 10.0, 100.0, 400.0):
        pl = K.tfbm_lrd_plateau(p, t)
        assert 0.0 < pl < 0.5 + 1e-12
        assert pl >= prev
        assert pl > prev or t > 10.0
        prev = pl
    assert abs(K.tfbm_lrd_plateau(p, 400.0) - 0.5) <= 1e-12


def test_plateau_matches_exact_correlation_at_long_lag():
    # corr(B(t), B(t+tau)) at lam tau = 40 sits within 2% of the plateau
    p = FracOUParams(1.25, 0.5)
    t, tau = 1.0, 80.0
    corr = (K.tfbm_cov(p, t, t + tau)
            / math.sqrt(K.tfbm_var(p, t) * K.tfbm_var(p, t + tau)))
    plateau = K.tfbm_lrd_plateau(p, t)
    assert abs(corr - plateau) <= 0.02 * plateau


def test_plateau_needs_positive_time():
    with pytest.raises(DomainError):
        K.tfbm_lrd_plateau(FracOUParams(0.75, 1.0), 0.0)


def test_normalization_factor_documented_not_applied(structure_mp):
    p = FracOUParams(0.75, 1.0)
    assert K.ms_normalization_factor(p) == math.gamma(0.75) ** 2
    # the kernel itself is untouched by the factor: 2 D(1) to 1e-15, D
    # in 50-digit mpmath (at lambda t = 1 D no longer subtracts sigma^2
    # - C, which is 3 ulps off there)
    ref = 2.0 * structure_mp(0.75, 1.0, 1.0)
    assert abs(K.tfbm_var(p, 1.0) - ref) <= 1e-15


# --- gram matrices ----------------------------------------------------------

def test_gram_matches_pointwise_and_is_psd():
    p = FracOUParams(0.75, 0.5)
    times = np.linspace(0.0, 3.0, 31)
    g = K.tfbm_gram(p, times)
    assert g.shape == (31, 31)
    assert np.array_equal(g, g.T)
    for i in (0, 7, 30):
        for j in (0, 12, 30):
            assert abs(g[i, j] - K.tfbm_cov(p, times[i], times[j])) <= 1e-12
    w = np.linalg.eigvalsh(g)
    assert w.min() >= -1e-10 * w.max()


# --- every reduced route through the structure function ---------------------

RAMP = HurstProfile.saturating_ramp(0.8, 0.1)


def _reduced_grams(times):
    p = FracOUParams(0.75, 0.5)
    grid = sampler.TimeGrid(times[0], times[1] - times[0], len(times))
    yield K.tfbm_gram(p, times)
    yield K.tfbm_cov(p, times[:, None], times[None, :])
    yield K.mixed_gram(_mixture(), times)
    yield K.tmbm_gram(RAMP, 1.0, times)
    yield np.array([[K.tmbm_cov(RAMP, 1.0, t, s) for s in times]
                    for t in times])
    for family, params in (("tfbm", p), ("mixed", _mixture()),
                           ("tmbm", TmbmParams(RAMP, 1.0))):
        yield sampler.build_gram(sampler.ProcessDescriptor(family, params),
                                 grid)


@pytest.mark.parametrize("t0", (0.0, 0.3))
def test_reduced_routes_are_bitwise_symmetric_and_zero_at_the_origin(t0):
    # each cell is (D(t) + D(s)) - D(t - s): the sum commutes, D is even,
    # and D(0) = 0 leaves D(s) - D(s) at t = 0
    times = t0 + np.linspace(0.0, 3.0, 31)
    for g in _reduced_grams(times):
        assert np.array_equal(g, g.T)
        if t0 == 0.0:
            assert not g[0].any() and not g[:, 0].any()
    assert (K.tmbm_cov(RAMP, 1.0, 0.3, 1.7)
            == K.tmbm_cov(RAMP, 1.0, 1.7, 0.3))


def test_variance_and_increment_covariance_broadcast():
    p = FracOUParams(1.25, 0.5)
    t = np.array([[0.0, 0.3], [1.7, 40.0]])
    assert K.tfbm_var(p, t).tolist() == [[K.tfbm_var(p, u) for u in row]
                                         for row in t]
    assert isinstance(K.tfbm_var(p, 0.3), float)
    tau, d = 0.25, np.array([-1.0, 0.0, 0.25, 3.0])
    got = K.tfbm_increment_cov(p, tau, d)
    assert got.tolist() == [K.tfbm_increment_cov(p, tau, u) for u in d]
    assert isinstance(K.tfbm_increment_cov(p, tau, 0.0), float)
    assert got[1] == K.tfbm_var(p, tau)
    assert np.array_equal(K.tfbm_increment_cov(p, np.array([tau, 0.5]), 1.0),
                          [K.tfbm_increment_cov(p, tau, 1.0),
                           K.tfbm_increment_cov(p, 0.5, 1.0)])


# --- lags below the former floor lambda |tau| >= 1e-6 -----------------------

_BELOW = FracOUParams(1.25, 1e-9)
_T = 0.5e-6 / _BELOW.lam
_FAR = 1.0 / _BELOW.lam


@pytest.mark.parametrize("call taus weights".split(), (
    (lambda: K.tfbm_cov(_BELOW, _T, _FAR), (_T, _FAR, _T - _FAR), (1, 1, -1)),
    (lambda: K.tfbm_var(_BELOW, _T), (_T,), (2,)),
    (None, None, None),
    (lambda: K.tfbm_increment_cov(_BELOW, _T, 0.0), (_T,), (2,)),
    (lambda: K.tfbm_increment_cov(_BELOW, _T, _FAR),
     (_FAR + _T, _FAR - _T, _FAR), (1, 1, -2)),
    (lambda: K.tfbm_gram(_BELOW, [0.0, _T])[1, 1], (_T,), (2,)),
    (lambda: K.mixed_cov(MixtureParams(((1.0, _BELOW),)), _T, _T), (_T,),
     (2,)),
    (lambda: K.tmbm_gram(HurstProfile.constant(1.25), _BELOW.lam,
                         [0.0, _T])[1, 1], (_T,), (2,)),
), ids=("cov", "var", "ct", "increment", "increment-separated", "gram",
        "mixed", "tmbm"))
def test_reduced_routes_refuse_lags_below_the_floor(call, taus, weights,
                                                    structure_mp):
    # sigma^2 ~ 1e13 against a variance ~ 1e-10: D no longer subtracts,
    # so these lags, refused below lambda |tau| = 1e-6 before, keep their
    # digits.  The c_t route still subtracts, and still refuses them
    if call is None:
        with pytest.raises(DomainError, match=r"lambda\*\|t\| >= 1e-06"):
            K.tfbm_ct_coefficient(_BELOW, _T)
        return
    ref = structure_mp(_BELOW.alpha, _BELOW.lam, taus, weights)
    # a far time puts D terms of size ~1e13 into the four-term forms:
    # their rounding, 16 ulps of the terms, bounds any D there
    terms = sum(abs(w * structure_mp(_BELOW.alpha, _BELOW.lam, t))
                for w, t in zip(weights, taus))
    assert abs(call() - ref) <= 2e-13 * abs(ref) + 16.0 * EPS * terms
    assert K.fou_cov(_BELOW, _T) > 0.0


@pytest.mark.parametrize("alpha", (0.75, 1.25, 1.45))
@pytest.mark.parametrize("lam", (1.0, 1e-9))
def test_variance_at_the_lag_floor_against_mpmath(alpha, lam, structure_mp):
    # sigma^2 - C(t) kept about eps (lambda t)^-(2 alpha - 1) here, 1e-4
    # as alpha -> 3/2; D's series does not subtract
    t = 1e-6 / lam
    ref = structure_mp(alpha, lam, t, (2,))
    v = K.tfbm_var(FracOUParams(alpha, lam), t)
    assert abs(v - ref) <= 2e-13 * ref


@pytest.mark.parametrize("alpha", (2.0, 3.0))
def test_variance_at_tiny_tempering_against_mpmath(alpha, structure_mp):
    # sigma^2 - C(t) was off by 4.9e-4 (alpha = 2) and 9.3e-3 (alpha = 3)
    p = FracOUParams(alpha, 1e-4)
    ref = structure_mp(alpha, 1e-4, 0.01, (2,))
    v = K.tfbm_var(p, 0.01)
    assert abs(v - ref) <= 2e-13 * ref
    assert abs(v - ref) <= 32.0 * np.spacing(K.fou_var(p))


# --- mixtures ----------------------------------------------------------------

def _mixture():
    return MixtureParams(((1.0, FracOUParams(0.7, 1.0)),
                          (0.7, FracOUParams(1.3, 0.5))))


def test_mixture_is_weighted_sum_of_components():
    m = _mixture()
    t, s = 1.7, 0.6
    ref = sum(b * b * K.tfbm_cov(p, t, s) for b, p in m.components)
    assert abs(K.mixed_cov(m, t, s) - ref) <= 1e-15
    ref_v = sum(b * b * K.tfbm_var(p, t) for b, p in m.components)
    assert abs(K.mixed_var(m, t) - ref_v) <= 1e-15


def test_mixture_gram_matches_pointwise():
    m = _mixture()
    times = np.linspace(0.0, 2.0, 9)
    g = K.mixed_gram(m, times)
    assert abs(g[3, 5] - K.mixed_cov(m, times[3], times[5])) <= 1e-13
    assert g[0, 0] == 0.0


def test_mixture_rejects_duplicate_indices():
    with pytest.raises(DomainError):
        MixtureParams(((1.0, FracOUParams(0.8, 1.0)),
                       (0.5, FracOUParams(0.8, 2.0))))


def test_mixture_rejects_nonpositive_weight():
    with pytest.raises(DomainError):
        MixtureParams(((0.0, FracOUParams(0.8, 1.0)),))
