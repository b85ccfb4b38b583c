import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import quad, specfun
from tplab.errors import DomainError, PoleError

# pinned offline at 30 significant digits
BESSELK_PINNED = (
    (0.25, 2.0, 0.11537827684085676),
    (0.3, 0.05, 3.8119663367691108),
    (1.0, 0.05, 19.909674325882507),
    (2.0, 0.04, 1249.5008170881809),
    (5.0, 700.0, 4.7538533896032257e-306),
)
KUMMER_PINNED = (
    (1.0, 1.0, 1.0, 0.59634736232319407),
    (0.75, 1.5, 0.8, 1.0369138327425765),
)
WHITTAKER_PINNED = (
    (0.0, 0.25, 4.0, 0.13019044392260142),
    (0.1, 0.3, 1.0, 0.58064121869760711),
)


# --- gamma ----------------------------------------------------------------

@pytest.mark.parametrize("x", (0.0, -1.0, -7.0))
def test_gamma_poles(x):
    with pytest.raises(PoleError):
        specfun.gamma_fn(x)


def test_gamma_overflow_is_domain_error():
    with pytest.raises(DomainError):
        specfun.gamma_fn(180.0)


def test_gamma_half():
    assert abs(specfun.gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-14


@given(st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=50, deadline=None)
def test_gamma_recurrence(x):
    lhs = specfun.gamma_fn(x + 1.0)
    rhs = x * specfun.gamma_fn(x)
    assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_log_gamma_matches_gamma():
    for x in (0.3, 1.0, 4.5, 21.0):
        assert abs(specfun.log_gamma(x)
                   - math.log(specfun.gamma_fn(x))) < 1e-12


# --- modified Bessel K ----------------------------------------------------

@pytest.mark.parametrize("nu x expected".split(), BESSELK_PINNED)
def test_besselk_frozen_values(nu, x, expected):
    r = specfun.bessel_k(nu, x)
    assert abs(r.value - expected) <= 1e-10 * expected
    assert r.abs_error_estimate <= 1e-10 * max(1.0, abs(r.value))


def test_besselk_symmetric_in_order():
    a = specfun.bessel_k(0.25, 2.0)
    b = specfun.bessel_k(-0.25, 2.0)
    assert a.value == b.value


@pytest.mark.parametrize("x", (0.5, 1.0, 2.0, 10.0))
def test_besselk_half_order_closed_forms(x):
    half = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
    assert abs(specfun.bessel_k(0.5, x).value - half) <= 1e-12 * half
    ref = half * (1.0 + 1.0 / x)
    assert abs(specfun.bessel_k(1.5, x).value - ref) <= 1e-12 * ref


@pytest.mark.parametrize("nu x".split(), (
    (0.8, 0.7),
    (1.2, 3.0),
    (2.6, 0.08),
))
def test_besselk_recurrence(nu, x):
    # K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu
    lhs = specfun.bessel_k(nu + 1.0, x).value
    rhs = (specfun.bessel_k(nu - 1.0, x).value
           + 2.0 * nu / x * specfun.bessel_k(nu, x).value)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


@pytest.mark.parametrize("nu x".split(), (
    (5.5, 1.0),
    (-5.1, 1.0),
    (0.5, 5e-7),
    (0.5, 701.0),
    (0.5, 0.0),
    (0.5, -1.0),
))
def test_besselk_box(nu, x):
    with pytest.raises(DomainError):
        specfun.bessel_k(nu, x)


def test_besselk_grid_matches_scalar():
    nus = np.array([0.25, 1.3, 4.5])
    xs = np.array([0.03, 1.0, 40.0])
    grid = specfun.besselk_grid(nus[:, None], xs[None, :])
    for i, nu in enumerate(nus):
        for j, x in enumerate(xs):
            assert grid[i, j] == specfun.bessel_k(nu, x).value


def test_besselk_truncation_drops_integrand_below_1e_18():
    # the trapezoid's scaled integrand e^(-x (cosh t - 1)) cosh(nu t),
    # taken in logs at t_max, over a grid spanning the supported box
    nu, x = np.meshgrid(np.linspace(0.0, specfun.BESSEL_NU_MAX, 41),
                        np.geomspace(specfun.BESSEL_X_MIN,
                                     specfun.BESSEL_X_MAX, 121))
    nu, x = nu.ravel(), x.ravel()
    t = specfun._trunc_length(nu, x, 18.0)
    log_g = (-x * (np.cosh(t) - 1.0) + np.logaddexp(nu * t, -nu * t)
             - math.log(2.0))
    assert np.all(np.isfinite(t)) and np.all(t > 0.0)
    assert np.max(log_g) < math.log(1e-18)


@given(st.floats(min_value=-4.9, max_value=4.9),
       st.floats(min_value=0.05, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_besselk_positive_decreasing_and_boxed(nu, x):
    r = specfun.bessel_k(nu, x)
    assert r.value > 0.0
    assert r.abs_error_estimate <= 1e-10 * max(1.0, r.value)
    assert specfun.bessel_k(nu, 1.3 * x).value < r.value


# --- Kummer U and Whittaker W ---------------------------------------------

@pytest.mark.parametrize("a b z expected".split(), KUMMER_PINNED)
def test_kummer_frozen_values(a, b, z, expected):
    r = specfun.kummer_u(a, b, z)
    assert abs(r.value - expected) <= 1e-10 * expected
    assert r.abs_error_estimate <= 1e-10 * max(1.0, abs(r.value))


@pytest.mark.parametrize("a z".split(), ((0.7, 2.3), (1.6, 0.4)))
def test_kummer_power_reduction(a, z):
    # b = a+1 collapses the integral to z^(-a)
    r = specfun.kummer_u(a, a + 1.0, z)
    assert abs(r.value - z ** (-a)) <= 1e-10 * z ** (-a)


def test_kummer_boundary_layer_small_z():
    # z -> 0 with b > 1: U ~ Gamma(b-1)/Gamma(a) z^(1-b), a huge value
    # concentrated in an O(z) layer; next correction is O(z)
    a, b, z = 0.7, 2.4, 2e-6
    lead = (math.gamma(b - 1.0) / math.gamma(a) * z ** (1.0 - b)
            * (1.0 + (a - b + 1.0) / (2.0 - b) * z))
    r = specfun.kummer_u(a, b, z)
    assert abs(r.value - lead) <= 1e-7 * lead


def test_kummer_against_direct_quadrature():
    # independent route: untransformed half-line integral
    a, b, z = 1.3, 0.6, 2.0
    direct = quad.integrate_adaptive(
        lambda t: math.exp(-z * t) * t ** (a - 1.0)
        * (1.0 + t) ** (b - a - 1.0), 0.0, math.inf, tol=1e-12)
    ref = direct.value / math.gamma(a)
    assert abs(specfun.kummer_u(a, b, z).value - ref) <= 1e-9 * ref


@pytest.mark.parametrize("a z".split(), ((0.0, 1.0), (-0.5, 1.0),
                                         (1.0, 0.0), (1.0, -2.0)))
def test_kummer_domain(a, z):
    with pytest.raises(DomainError):
        specfun.kummer_u(a, 1.5, z)


@pytest.mark.parametrize("kappa mu z expected".split(), WHITTAKER_PINNED)
def test_whittaker_frozen_values(kappa, mu, z, expected):
    r = specfun.whittaker_w(kappa, mu, z)
    assert abs(r.value - expected) <= 1e-10 * expected


def test_whittaker_bessel_identity():
    # W_{0,mu}(z) = sqrt(z/pi) K_mu(z/2): two distinct pipelines
    z, mu = 4.0, 0.25
    lhs = specfun.whittaker_w(0.0, mu, z).value
    rhs = math.sqrt(z / math.pi) * specfun.bessel_k(mu, 0.5 * z).value
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_whittaker_even_in_mu():
    a = specfun.whittaker_w(0.1, 0.3, 1.0)
    b = specfun.whittaker_w(0.1, -0.3, 1.0)
    assert abs(a.value - b.value) <= 1e-9 * abs(a.value)


def test_whittaker_no_valid_branch():
    # both a = 1/2 +- mu - kappa nonpositive
    with pytest.raises(DomainError):
        specfun.whittaker_w(1.0, 0.25, 2.0)


def test_whittaker_needs_positive_argument():
    with pytest.raises(DomainError):
        specfun.whittaker_w(0.0, 0.25, 0.0)
