import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import kernels as K
from tplab import quad
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


@given(st.floats(min_value=0.55, max_value=1.45),
       st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=40, deadline=None)
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
        lambda th: K.fou_spectral(p, math.tan(th)) / math.cos(th) ** 2,
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
    p = FracOUParams(1.2, 0.8)
    taus = np.array([0.0, 0.3, 1.7, 6.0])
    got = K.fou_cov_values(p, taus)
    for tau, g in zip(taus, got):
        assert g == K.fou_cov(p, tau)


def test_alpha_grids_call_gamma_once_per_distinct_index(monkeypatch):
    # the averaged indices of a tmbm Gram: symmetric, so about half of
    # the n x n cells repeat a value
    times = np.linspace(0.0, 2.0, 12)
    al = 0.8 + 0.1 * (1.0 - np.exp(-times))
    a_plus = 0.5 * (al[:, None] + al[None, :])
    tau = np.broadcast_to(times[:, None], a_plus.shape)
    calls = []
    real_gamma = math.gamma

    def counting(v):
        calls.append(v)
        return real_gamma(v)

    monkeypatch.setattr(math, "gamma", counting)
    var = fou.var_alpha_grid(a_plus, 0.7)
    distinct = len(np.unique(a_plus))
    assert distinct < a_plus.size
    assert len(calls) == 2 * distinct
    cov = fou.cov_alpha_grid(a_plus, 0.7, tau)

    def per_element(a):
        flat = np.asarray(a, dtype=float).ravel()
        return np.array([real_gamma(v) for v in flat]).reshape(np.shape(a))

    monkeypatch.setattr(fou, "_gamma_arr", per_element)
    assert np.array_equal(var, fou.var_alpha_grid(a_plus, 0.7))
    assert np.array_equal(cov, fou.cov_alpha_grid(a_plus, 0.7, tau))


def test_gamma_arr_of_one_value_skips_the_sort(monkeypatch):
    values = [np.array(a) for a in (1.3, [0.7], [[2.5]])]
    before = [fou._gamma_arr(a) for a in values]

    def no_sort(*args, **kwargs):
        raise AssertionError("np.unique called for a single value")

    monkeypatch.setattr(fou.np, "unique", no_sort)
    for a, ref in zip(values, before):
        got = fou._gamma_arr(a)
        assert got.shape == a.shape and np.array_equal(got, ref)
        assert got.item() == math.gamma(a.item())


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
