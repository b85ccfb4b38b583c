"""Two-index kernel checks: the quadrature-backed covariance, the
closed-form variance, the beta = 1 collapse onto the single-index
family, and both asymptotic laws (large-lag series, small-time
increment law) against frozen high-precision constants.
"""

import math

import numpy as np
import pytest

from tplab import kernels as K
from tplab import quad
from tplab.errors import DegenerateExpansion, DivergenceWarning, DomainError
from tplab.kernels import FracOUParams, TwoIndexParams


# --- variance and beta = 1 collapse -----------------------------------------

def test_variance_frozen_value():
    got = K.twoindex_var(TwoIndexParams(0.9, 0.8, 1.0))
    assert abs(got - 0.87556708932579985) <= 1e-14 * got


@pytest.mark.parametrize("alpha", (0.6, 0.9, 1.2, 1.4))
def test_variance_beta_one_reduces_to_single_index(alpha):
    lam = 1.3
    got = K.twoindex_var(TwoIndexParams(alpha, 1.0, lam))
    ref = K.fou_var(FracOUParams(alpha, lam))
    assert abs(got - ref) <= 1e-12 * ref


@pytest.mark.parametrize("tau", (0.4, 1.1, 3.0))
def test_cov_beta_one_reduces_to_single_index(tau):
    q = TwoIndexParams(1.25, 1.0, 0.5)
    got = K.twoindex_cov(q, tau)
    ref = K.fou_cov(FracOUParams(1.25, 0.5), tau)
    assert abs(got.value - ref) <= 1e-7 * abs(ref)
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


def test_cov_explicit_tolerance_is_honored():
    q = TwoIndexParams(0.9, 0.6, 1.0)
    r = K.twoindex_cov(q, 1.3, tol=1e-9)
    assert r.abs_error_estimate <= 1e-9


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


def test_smalltime_degenerates_at_unit_product():
    with pytest.raises(DegenerateExpansion):
        K.twoindex_smalltime_incvar(TwoIndexParams(2.0, 0.5, 1.0))


def test_smalltime_needs_asymptotic_range():
    with pytest.raises(DomainError):
        K.twoindex_smalltime_incvar(TwoIndexParams(4.0, 0.5, 1.0))


def test_increment_variance_approaches_smalltime_law():
    q = TwoIndexParams(0.9, 0.6, 1.0)
    c, exponent = K.twoindex_smalltime_incvar(q)
    t = 1e-3
    ratio = K.twoindex_increment_var(q, t) / (c * t ** exponent)
    assert 0.98 <= ratio <= 1.02


def test_increment_variance_consistent_with_cov():
    q = TwoIndexParams(1.2, 0.8, 0.7)
    t = 0.6
    var = K.twoindex_var(q)
    manual = 2.0 * (var - K.twoindex_cov(q, t, tol=1e-10 * var).value)
    got = K.twoindex_increment_var(q, t)
    assert abs(got - manual) <= 1e-12 * abs(got)


# --- parameter domain --------------------------------------------------------

@pytest.mark.parametrize("alpha beta lam".split(), (
    (0.0, 0.6, 1.0),
    (-0.4, 0.6, 1.0),
    (0.9, 0.0, 1.0),
    (0.9, 1.2, 1.0),
    (0.9, 0.6, 0.0),
    (0.7, 0.7, 1.0),
))
def test_params_domain(alpha, beta, lam):
    with pytest.raises(DomainError):
        TwoIndexParams(alpha, beta, lam)


def test_hurst_property():
    assert TwoIndexParams(0.9, 0.8, 1.0).hurst == 0.9 * 0.8 - 0.5
