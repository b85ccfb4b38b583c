import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import kernels as K
from tplab import quad, sampler, specfun
from tplab.kernels import fou
from tplab.errors import DomainError
from tplab.kernels.params import FracOUParams

# pinned offline at 30 significant digits
FOU_COV_PINNED = 0.61113070686686051      # alpha=1.25, lam=0.5, tau=1.7
FOU_VAR_PINNED = 0.83462684167407319      # alpha=0.75, lam=1


def test_frozen_covariance_value():
    p = FracOUParams(1.25, 0.5)
    assert abs(K.fou_cov(p, 1.7) - FOU_COV_PINNED) <= 1e-10 * FOU_COV_PINNED


def test_frozen_variance_value():
    p = FracOUParams(0.75, 1.0)
    assert abs(K.fou_var(p) - FOU_VAR_PINNED) <= 1e-10 * FOU_VAR_PINNED


@pytest.mark.parametrize("lam tau".split(), (
    (0.5, 0.3), (2.0, 1.0), (4.0, 10.0),
))
def test_ornstein_uhlenbeck_reduction(lam, tau):
    # alpha = 1 collapses the kernel to e^(-lam tau) / (2 lam)
    ref = math.exp(-lam * tau) / (2.0 * lam)
    got = K.fou_cov(FracOUParams(1.0, lam), tau)
    assert abs(got - ref) <= 1e-12 * ref


def test_covariance_at_zero_is_variance():
    p = FracOUParams(0.8, 1.3)
    assert K.fou_cov(p, 0.0) == K.fou_var(p)


def test_covariance_even_in_lag():
    p = FracOUParams(1.1, 0.7)
    assert K.fou_cov(p, -2.4) == K.fou_cov(p, 2.4)


def test_far_tail_underflows_to_zero():
    assert K.fou_cov(FracOUParams(0.8, 100.0), 10.0) == 0.0


@pytest.mark.parametrize("lag", (math.nan, math.inf, -math.inf))
def test_non_finite_lag_is_a_domain_error(lag):
    # a NaN lag must not pass for an underflowed one (C = 0); the reduced
    # covariance would then read sigma^2 - C(t) at a NaN second time
    p = FracOUParams(0.75, 1.0)
    with pytest.raises(DomainError, match="lags must be finite"):
        K.fou_cov(p, lag)
    with pytest.raises(DomainError, match="lags must be finite"):
        K.tfbm_cov(p, 0.05, lag)


def test_a_variance_past_float64_is_a_domain_error_with_no_warning():
    # (2 lambda)^(2 alpha - 1) underflows: fou_var read inf, with a numpy
    # divide-by-zero RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="alpha=3, lambda=1e-300"):
            K.fou_var(FracOUParams(3.0, 1e-300))


@pytest.mark.parametrize("alpha lam tau".split(), (
    (0.75, 1e-300, 1e-300), (0.75, 1e-300, 0.1), (0.75, 1e-8, 1e-8),
    (0.51, 1e-8, 1e-8), (1.0, 1.0, 5e-324), (2.5, 1e-8, 1e-8),
    (5.5, 1.0, 1e-16)))
def test_a_positive_lag_below_the_bessel_box_is_sigma2_minus_d(alpha, lam,
                                                               tau):
    # lambda |tau| below Bessel K's box, 0 included, was refused; C is
    # sigma^2 - D there, held to 50-digit mpmath, and the lag 0 still
    # gives the variance
    mpmath = pytest.importorskip("mpmath")
    p = FracOUParams(alpha, lam)
    got = K.fou_cov(p, [0.0, tau, 2.0 * tau])
    assert got[0] == K.fou_var(p)
    with mpmath.workdps(50):
        a, lm = mpmath.mpf(alpha), mpmath.mpf(lam)
        for c, t in zip(got[1:], (tau, 2.0 * tau)):
            t = mpmath.mpf(t)
            ref = ((t / (2 * lm)) ** (a - 0.5)
                   * mpmath.besselk(a - 0.5, lm * t)
                   / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(a)))
            assert abs(c - ref) <= 2e-15 * ref, (t, c)


@given(st.floats(min_value=0.55, max_value=1.45),
       st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_scaling_identity(alpha, r, tau):
    # C(alpha, lam; r tau) = r^(2 alpha - 1) C(alpha, r lam; tau)
    lam = 0.9
    lhs = K.fou_cov(FracOUParams(alpha, lam), r * tau)
    rhs = r ** (2.0 * alpha - 1.0) * K.fou_cov(FracOUParams(alpha, r * lam),
                                               tau)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-300)


@pytest.mark.parametrize("alpha lam".split(), ((0.7, 0.5), (1.3, 2.0)))
def test_short_range_dependence_integral(alpha, lam):
    # int_0^inf C(tau) dtau = 1 / (2 lam^(2 alpha)); the kernel is only
    # evaluable for lam * tau >= 1e-15, so the head [0, eps] is supplied
    # by the local expansion var + coeff |tau|^(2 alpha - 1)
    p = FracOUParams(alpha, lam)
    eps = 2e-6 / lam
    var, coeff = K.fou_local_expansion(p)
    head = var * eps + coeff * eps ** (2.0 * alpha) / (2.0 * alpha)
    r = quad.integrate_adaptive(lambda u: K.fou_cov(p, u), eps, math.inf,
                                tol=1e-11)
    ref = 0.5 * lam ** (-2.0 * alpha)
    assert abs(head + r.value - ref) <= 1e-8 * ref


def test_spectral_density_even_positive_and_normalized():
    p = FracOUParams(0.9, 1.2)
    kpos = np.linspace(0.25, 8.0, 32)
    f_pos = K.fou_spectral(p, kpos)
    assert K.fou_spectral(p, 0.0) > 0.0
    assert np.all(f_pos > 0.0)
    assert np.array_equal(f_pos, K.fou_spectral(p, -kpos))
    # integrating the spectral density over the line returns the variance;
    # k = tan(theta) folds the k^(-2 alpha) tail into a finite interval
    r = quad.integrate_adaptive(
        lambda th: K.fou_spectral(p, np.tan(th)) / np.cos(th) ** 2,
        0.0, 0.5 * math.pi, tol=1e-11)
    assert abs(2.0 * r.value - K.fou_var(p)) <= 1e-8 * K.fou_var(p)


def test_local_expansion_matches_kernel_at_small_lag():
    p = FracOUParams(0.75, 1.0)
    var, coeff = K.fou_local_expansion(p)
    assert var == K.fou_var(p)
    for tau in (1e-4, 1e-3):
        approx = var + coeff * tau ** (2.0 * p.alpha - 1.0)
        exact = K.fou_cov(p, tau)
        assert abs(approx - exact) <= 1e-3 * abs(exact - var)


@pytest.mark.parametrize("alpha", (0.6, 0.75, 0.95, 1.05, 1.25, 1.4))
def test_local_expansion_coefficient_is_negative(alpha):
    # cos(alpha pi) < 0 on both sides of the markov point, so the
    # |tau|^(2 alpha - 1) coefficient is negative throughout: the kernel
    # bends down away from the origin in the rough and the smooth regime
    _, coeff = K.fou_local_expansion(FracOUParams(alpha, 1.0))
    assert coeff < 0.0


def test_local_expansion_at_markov_point_is_the_ou_expansion():
    # cos(pi) = -1 is no pole: the coefficient is -1/2, and e^(-tau)/2 =
    # 1/2 - tau/2 + O(tau^2), so the residual is tau/2 of the power term
    p = FracOUParams(1.0, 1.0)
    var, coeff = K.fou_local_expansion(p)
    assert coeff == -0.5
    for tau in (1e-4, 1e-3):
        exact = K.fou_cov(p, tau)
        assert abs(var + coeff * tau - exact) <= 1e-3 * abs(exact - var)


def test_grid_evaluation_matches_scalar():
    # zero lag, the bottom of the Bessel box, both Bessel routes, negative
    # lags and lags past underflow, in one array against one call each
    x = np.concatenate(([0.0, 1e-15, 1e-6], np.geomspace(1e-3, 50.0, 40),
                        [700.0, 701.0, 1e4]))
    for alpha in (0.6, 0.75, 1.0, 1.2, 1.4, 2.0, 3.0):
        for lam in (0.05, 0.8, 4.0):
            p = FracOUParams(alpha, lam)
            taus = np.concatenate((x, -x)) / lam
            got = K.fou_cov(p, taus.reshape(2, -1))
            assert got.shape == (2, x.size)
            assert got.ravel().tolist() == [K.fou_cov(p, t) for t in taus]
    assert isinstance(K.fou_cov(p, taus[5]), float)


@pytest.fixture
def gamma_calls(monkeypatch):
    calls = []
    real_gamma = math.gamma

    def counting(v):
        calls.append(v)
        return real_gamma(v)

    monkeypatch.setattr(math, "gamma", counting)
    return calls


@pytest.mark.parametrize("n", (9, 130))
def test_grams_take_gamma_once_per_element_of_their_index(gamma_calls,
                                                          monkeypatch, n):
    # at lambda |tau| <= 2, D takes 1/Gamma of (alpha, nu + 1, 1 - mu) in
    # one numpy call per D call, at its own alpha's shape: once per index
    # pair and argument for tmbm, three values for tfbm; no math.gamma
    sizes = []
    real = specfun.rgamma

    def counting(z):
        sizes.append(np.size(z))
        return real(z)

    monkeypatch.setattr(specfun, "rgamma", counting)
    times = np.linspace(0.0, 2.0, n)
    K.tmbm_gram(K.HurstProfile.saturating_ramp(0.8, 0.1), 0.7, times)
    assert sum(sizes) == 3 * n * (n + 1) // 2
    sizes.clear()
    p = FracOUParams(0.75, 0.7)
    K.tfbm_gram(p, times)
    assert sizes == [3]
    sizes.clear()
    grid = sampler.TimeGrid(0.0, times[1], n)
    sampler.build_gram(sampler.ProcessDescriptor("tfbm", p), grid)
    assert sizes == [3]
    assert not gamma_calls


# --- the structure function D = sigma^2 - C of the reduced families ------

_D_ALPHAS = (0.6, 0.75, 1.0, 1.25, 1.45, 2.0, 3.0)
_D_X = np.concatenate(([0.0, 1e-6, 1e-3], np.geomspace(0.01, 50.0, 30),
                       [700.0, 701.0, 1e4]))


def test_structure_function_is_exactly_zero_at_the_origin():
    for alpha in _D_ALPHAS:
        for lam in (1e-4, 0.05, 1.0, 4.0):
            assert fou.structure_alpha_grid(alpha, lam, 0.0) == 0.0
            assert fou.structure_alpha_grid(alpha, lam, -0.0) == 0.0
    grid = fou.structure_alpha_grid(np.array([[0.75], [1.3]]), 0.7,
                                    np.array([0.0, 2.0, 0.0]))
    assert grid.shape == (2, 3)
    assert not grid[:, [0, 2]].any() and (grid[:, 1] > 0.0).all()


@pytest.mark.parametrize("alpha", _D_ALPHAS)
def test_structure_function_is_even(alpha):
    for lam in (0.05, 1.0):
        tau = _D_X / lam
        assert np.array_equal(fou.structure_alpha_grid(alpha, lam, tau),
                              fou.structure_alpha_grid(alpha, lam, -tau))


def test_structure_function_elementwise_alpha_is_the_scalar_calls():
    # the stacked call a tmbm Gram makes: repeated and distinct indices,
    # zero lags, both Bessel routes and underflow in one array
    rng = np.random.default_rng(5)
    alpha = rng.choice([0.75, 0.8, 0.8625, 1.25, 2.5], size=60)
    tau = rng.choice(np.concatenate((-_D_X, _D_X)), size=60) / 0.7
    got = fou.structure_alpha_grid(alpha, 0.7, tau)
    assert got.tolist() == [float(fou.structure_alpha_grid(a, 0.7, t))
                            for a, t in zip(alpha, tau)]


def test_elementwise_lambda_is_the_per_lambda_calls_bitwise():
    # zero lags, both Bessel routes and underflow, lambda varying per cell
    lams = np.array([0.25, 1.0, 4.0, 0.7])
    alpha = np.array([0.6, 0.75, 1.0, 1.25, 1.4])[:, None, None]
    tau = np.array([0.0, 0.01, 0.1, 1.0, 5.0, 10.0, 300.0])
    got = fou.cov_alpha_grid(alpha, lams[:, None], tau)
    assert got.shape == (5, 4, 7)
    for j, lam in enumerate(lams):
        assert np.array_equal(got[:, j], fou.cov_alpha_grid(alpha[:, 0], lam,
                                                            tau))
    assert np.array_equal(got[..., 0], fou.var_alpha_grid(alpha[..., 0],
                                                          lams))
    d = fou.structure_alpha_grid(alpha, lams[:, None], tau)
    for j, lam in enumerate(lams):
        assert np.array_equal(d[:, j], fou.structure_alpha_grid(
            alpha[:, 0], lam, tau))


@pytest.mark.parametrize("alpha", _D_ALPHAS)
def test_structure_function_is_variance_minus_covariance(alpha,
                                                         structure_mp):
    # beyond lambda |tau| = 2 D is sigma^2 - C(tau); at or below it D
    # cancels sigma^2 analytically, so there it is held to 50-digit
    # mpmath by the bound of the accuracy grid below (sigma^2 - C is
    # itself up to 7 ulps of sigma^2 off mpmath near lambda |tau| = 2)
    for lam in (0.05, 1.0):
        p = FracOUParams(alpha, lam)
        tau = _D_X / lam
        sig2 = K.fou_var(p)
        got = fou.structure_alpha_grid(alpha, lam, tau)
        far = _D_X > 2.0
        ref = sig2 - K.fou_cov(p, tau[far])
        assert np.abs(got[far] - ref).max() <= 4.0 * np.spacing(sig2)
        for d, t in zip(got[~far], tau[~far]):
            err = abs(d - structure_mp(alpha, lam, t))
            assert err <= 16.0 * np.spacing(sig2)
            assert err <= 2e-13 * d


@pytest.mark.parametrize("alpha lam".split(), (
    (0.5, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5),
    (1.0, math.inf), (1.0, math.nan),
))
def test_parameter_domain(alpha, lam):
    with pytest.raises(DomainError):
        FracOUParams(alpha, lam)


def test_hurst_property():
    assert FracOUParams(1.25, 1.0).hurst == 0.75
    with pytest.raises(DomainError):
        FracOUParams(1.6, 1.0).require_hurst_in_unit()


# --- D against 50-digit mpmath, from the smallest lags up to underflow -----

_ACC_ALPHAS = (0.51, 0.75, 0.85, 1.0, 1.25, 1.45, 1.49, 1.499, 1.5, 1.501,
               2.0, 2.45, 2.5, 2.55, 3.0, 4.5, 5.45, 5.5)
_ACC_X = (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 10.0, 700.0)


@pytest.mark.parametrize("alpha", _ACC_ALPHAS)
def test_structure_function_against_mpmath(alpha, structure_mp):
    # near-integer nu = alpha - 1/2 included: the series' 1/sin(nu pi)
    # and Temme's recurrence are both exercised, as is sigma^2 - C
    for lam in (1e-4, 1.0, 30.0):
        taus = np.array(_ACC_X) / lam
        sig2 = K.fou_var(FracOUParams(alpha, lam))
        for d, t in zip(fou.structure_alpha_grid(alpha, lam, taus), taus):
            ref = structure_mp(alpha, lam, t)
            assert abs(d - ref) <= 2e-13 * ref, (lam, t)
            assert abs(d - ref) <= 16.0 * np.spacing(sig2), (lam, t)


def _structure_leading_mp(alpha, lam, tau):
    """D at lambda |tau| <= 1e-300 from the two leading terms of its
    series, in 100-digit mpmath: the omitted ones are (lambda tau / 2)^2
    smaller.  An integer nu = alpha - 1/2 is moved by 1e-40, which moves
    D by about 1e-40 of itself."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(100):
        a, lm, t = mpmath.mpf(alpha), mpmath.mpf(lam), mpmath.mpf(tau)
        nu = a - mpmath.mpf(0.5)
        if nu == int(nu):
            nu += mpmath.mpf(10) ** -40
        half = lm * t / 2
        g = mpmath.pi / (2 * mpmath.sinpi(nu)) * (
            half ** (2 * nu) / mpmath.gamma(1 + nu)
            - half ** 2 / mpmath.gamma(2 - nu))
        return float(lm ** (-2 * nu) / (mpmath.sqrt(mpmath.pi)
                                        * mpmath.gamma(a)) * g)


@pytest.mark.parametrize("x", (1e-300, 5e-324))
def test_structure_function_at_the_smallest_lags(x):
    # D is a normal double at some of these cells and underflows at others
    for alpha in (0.51, 0.75, 1.0, 1.25, 1.5, 2.5, 5.5):
        for lam in (1e-4, 1.0):
            tau = x / lam
            d = float(fou.structure_alpha_grid(alpha, lam, tau))
            ref = _structure_leading_mp(alpha, lam, tau)
            assert math.isfinite(d) and d >= 0.0
            if ref >= sys.float_info.min:
                assert abs(d - ref) <= 2e-13 * ref, (alpha, lam)
            elif ref < 0.5 * math.ulp(0.0):
                assert d == 0.0, (alpha, lam)
