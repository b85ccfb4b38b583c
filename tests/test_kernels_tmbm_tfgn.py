"""Multifractional and noise kernels.

The moving-average pair covariance has two genuinely independent
special-function routes (Kummer U vs Whittaker W); their agreement is a
numerical identity, not a tautology.  Constant profiles must collapse
exactly onto the single-index family.  The noise kernel, two fou
kernels, is checked against its four-block Kummer-U route, a frozen
high-precision block value, its sign structure, and its continuity to
the pointwise variance where that exists.
"""

import math
import tracemalloc

import numpy as np
import pytest

from tplab import kernels as K
from tplab import quad, sampler, specfun
from tplab.errors import DomainError
from tplab.kernels import FracOUParams, HurstProfile, TmbmParams


RAMP = HurstProfile.saturating_ramp(0.8, 0.1)


# --- moving-average pair: dual special-function routes ----------------------

@pytest.mark.parametrize("profile", (HurstProfile.constant(0.85), RAMP),
                         ids="constant ramp".split())
@pytest.mark.parametrize("t s".split(), ((0.7, 0.2), (2.5, 1.1), (4.0, 3.9)))
def test_mou_cov_routes_agree(profile, t, s):
    a = K.tmbm_mou_cov(profile, 1.0, t, s, route="kummer")
    b = K.tmbm_mou_cov(profile, 1.0, t, s, route="whittaker")
    assert abs(a - b) <= 1e-9 * abs(a)


def test_mou_cov_symmetric_in_time_order():
    a = K.tmbm_mou_cov(RAMP, 1.0, 2.0, 0.5)
    b = K.tmbm_mou_cov(RAMP, 1.0, 0.5, 2.0)
    assert a == b


def test_mou_cov_constant_profile_is_stationary_kernel():
    h = HurstProfile.constant(0.85)
    for tau in (0.3, 1.4, 5.0):
        got = K.tmbm_mou_cov(h, 1.0, tau, 0.0)
        ref = K.fou_cov(FracOUParams(0.85, 1.0), tau)
        assert abs(got - ref) <= 1e-8 * abs(ref)


def test_mou_cov_rejects_equal_times_and_bad_route():
    with pytest.raises(DomainError):
        K.tmbm_mou_cov(RAMP, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        K.tmbm_mou_cov(RAMP, 1.0, 1.0, 0.5, route="bessel")
    with pytest.raises(DomainError):
        K.tmbm_mou_cov(RAMP, 0.0, 1.0, 0.5)


@pytest.mark.parametrize("route", ("kummer", "whittaker"))
def test_mou_cov_on_arrays_equals_its_scalar_calls_bitwise(route):
    ts, ss = np.meshgrid([0.3, 1.7, 4.0], [0.2, 2.5], indexing="ij")
    got = K.tmbm_mou_cov(RAMP, 1.0, ts, ss, route=route)
    assert got.shape == ts.shape
    for i in np.ndindex(ts.shape):
        assert got[i] == K.tmbm_mou_cov(RAMP, 1.0, ts[i], ss[i], route=route)


def test_cross_cov_on_arrays_equals_its_scalar_calls_bitwise():
    mu, nu, tau = [1.2, 0.9, 0.85], [0.9, 1.2, 0.85], [2.0, 0.3, 5.0]
    got = K.tfgn_cross_cov(mu, nu, 1.0, tau)
    assert list(got) == [K.tfgn_cross_cov(m, n, 1.0, t)
                         for m, n, t in zip(mu, nu, tau)]


@pytest.mark.parametrize("t s name".split(), (
    (math.nan, 0.5, "t"), (1.0, math.nan, "s"), (math.inf, 0.5, "t"),
    ([1.0, 2.0], [0.5, math.nan], "s"),
))
def test_mou_cov_refuses_non_finite_times_by_name(t, s, name):
    h = HurstProfile.constant(0.85)
    for route in ("kummer", "whittaker"):
        with pytest.raises(DomainError,
                           match="tmbm_mou_cov requires finite %s" % name):
            K.tmbm_mou_cov(h, 1.0, t, s, route=route)


@pytest.mark.parametrize("args name".split(), (
    ((math.nan, 1.0, 1.0, 1.0), "mu"), ((1.0, math.nan, 1.0, 1.0), "nu"),
    ((1.0, 1.0, math.nan, 1.0), "lambda"), ((1.0, 1.0, 1.0, math.nan), "tau"),
))
def test_cross_cov_refuses_non_finite_arguments_by_name(args, name):
    with pytest.raises(DomainError,
                       match="tfgn_cross_cov requires finite %s" % name):
        K.tfgn_cross_cov(*args)


# --- reduced process ---------------------------------------------------------

def test_cov_constant_profile_reduces_to_single_index():
    h = HurstProfile.constant(1.25)
    p = FracOUParams(1.25, 0.5)
    for t, s in ((2.0, 0.7), (5.0, 5.0), (0.4, 3.1)):
        assert K.tmbm_cov(h, 0.5, t, s) == K.tfbm_cov(p, t, s)


def test_var_uses_local_index():
    t = 2.0
    assert K.tmbm_var(RAMP, 1.0, t) == K.tfbm_var(
        FracOUParams(RAMP.alpha(t), 1.0), t)


def test_pinned_at_origin():
    assert K.tmbm_var(RAMP, 1.0, 0.0) == 0.0
    assert abs(K.tmbm_cov(RAMP, 1.0, 3.0, 0.0)) <= 1e-12


def test_gram_matches_pointwise_and_is_symmetric():
    times = np.linspace(0.0, 4.0, 9)
    g = K.tmbm_gram(RAMP, 1.0, times)
    assert np.array_equal(g, g.T)
    for i in (0, 3, 8):
        for j in (1, 5):
            ref = K.tmbm_cov(RAMP, 1.0, times[i], times[j])
            assert abs(g[i, j] - ref) <= 1e-12 * max(abs(ref), 1e-12)
    assert np.linalg.eigvalsh(g).min() >= -1e-10 * np.linalg.eigvalsh(g).max()


@pytest.mark.parametrize("t0", (0.0, 0.3))
def test_gram_is_bitwise_symmetric_and_matches_every_pointwise_cell(t0):
    times = t0 + 0.45 * np.arange(9)
    g = K.tmbm_gram(RAMP, 1.0, times)
    assert np.array_equal(g, g.T)
    # cells next to the pinned origin are cancellation residue, so the
    # error is measured against the matrix scale there
    scale = np.abs(g).max()
    for i in range(len(times)):
        for j in range(len(times)):
            ref = K.tmbm_cov(RAMP, 1.0, times[i], times[j])
            assert abs(g[i, j] - ref) <= 1e-12 * max(abs(ref), scale)


def test_gram_constant_profile_matches_single_index_gram():
    times = np.linspace(0.0, 3.0, 7)
    got = K.tmbm_gram(HurstProfile.constant(0.9), 1.2, times)
    ref = K.tfbm_gram(FracOUParams(0.9, 1.2), times)
    assert np.allclose(got, ref, rtol=0.0, atol=1e-13)


def _one_call_gram(h, lam, times):
    # the whole-matrix assembly: one D call over the upper triangle's
    # lags and the n x n averaged-index matrix against t_i
    al = np.array([h.alpha(t) for t in times])
    n = len(times)
    iu, ju = np.triu_indices(n)
    d = K.fou.structure_alpha_grid(
        np.concatenate((0.5 * (al[iu] + al[ju]),
                        (0.5 * (al[:, None] + al[None, :])).ravel())), lam,
        np.concatenate((times[iu] - times[ju], times.repeat(n))))
    d_lag = np.empty((n, n))
    d_lag[iu, ju] = d_lag[ju, iu] = d[:len(iu)]
    d_t = d[len(iu):].reshape(n, n)
    return (d_t + d_t.T) - d_lag


_PROFILES = (RAMP, HurstProfile.constant(1.25),
             HurstProfile.tabulated([0.0, 1.0, 2.5, 4.0],
                                    [0.8, 0.95, 0.85, 1.1]))


@pytest.mark.parametrize("profile", _PROFILES,
                         ids="ramp constant tabulated".split())
@pytest.mark.parametrize("t0", (0.0, 0.3))
@pytest.mark.parametrize("n", (127, 128, 181))
def test_gram_in_pair_blocks_is_the_one_call_gram_bitwise(profile, t0, n):
    # 8,128 pairs are one block, 8,256 two and 16,471 three
    times = t0 + 0.02 * np.arange(n)
    got = K.tmbm_gram(profile, 0.9, times)
    assert got.tobytes() == _one_call_gram(profile, 0.9, times).tobytes()


def test_gram_peak_memory_is_a_few_n_by_n_arrays():
    times = 0.01 * np.arange(512)
    tracemalloc.start()
    try:
        K.tmbm_gram(RAMP, 1.0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 512 x 512 float matrix is 2.1 MB
    assert peak < 16e6


# --- profile declarations ----------------------------------------------------

def test_profile_bounds_enforced_on_evaluation():
    h = HurstProfile(lambda t: 0.8 + 0.2 * t, 0.2, 1.0, 0.8, 1.0)
    assert h.alpha(1.0) == 1.0
    with pytest.raises(DomainError):
        h.alpha(3.0)


def test_profile_spot_check_catches_undeclared_jump():
    # declared Lipschitz-0.01 but contains a step of height 0.2
    h = HurstProfile(lambda t: 0.8 if t < 1.0 else 1.0, 0.01, 1.0, 0.8, 1.0)
    with pytest.raises(DomainError):
        h.spot_check(np.linspace(0.0, 2.0, 21))


def test_profile_constructor_domain():
    with pytest.raises(DomainError):
        HurstProfile(lambda t: 0.4, 0.0, 1.0, 0.4, 0.4)
    with pytest.raises(DomainError):
        HurstProfile.saturating_ramp(0.8, 0.9)
    with pytest.raises(DomainError):
        HurstProfile(lambda t: 1.0, -1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        HurstProfile(lambda t: 1.0, 0.0, 1.5, 1.0, 1.0)


@pytest.mark.parametrize("lam", (0.0, -1.0, math.inf, math.nan))
def test_tmbm_params_need_a_positive_finite_rate(lam):
    with pytest.raises(DomainError):
        TmbmParams(RAMP, lam)


def test_tabulated_profile_interpolates_and_validates():
    h = HurstProfile.tabulated((0.0, 1.0, 2.0), (0.8, 1.0, 0.9))
    assert h.alpha(0.5) == 0.9
    assert h.alpha(5.0) == 0.9
    h.spot_check(np.linspace(0.0, 2.0, 11))
    with pytest.raises(DomainError):
        HurstProfile.tabulated((0.0, 0.0, 1.0), (0.8, 0.9, 1.0))
    with pytest.raises(DomainError):
        HurstProfile.tabulated((0.0,), (0.8,))


# --- noise kernel ------------------------------------------------------------

def test_cross_cov_frozen_value():
    got = K.tfgn_cross_cov(1.2, 0.9, 1.0, 2.0)
    assert abs(got - 0.094252013380921076) <= 1e-10 * got


def test_cross_cov_matches_defining_integral():
    # C^(mu,nu)(tau) = int_0^inf e^(-lam (2s + tau)) (tau+s)^(mu-1)
    # s^(nu-1) ds / (Gamma(mu) Gamma(nu)); the first index belongs to the
    # later time, so exchanging (mu, nu) at fixed positive lag genuinely
    # changes the value
    lam, tau = 1.0, 2.0
    for mu, nu in ((1.2, 0.9), (0.9, 1.2)):
        r = quad.integrate_adaptive(
            lambda s, mu=mu, nu=nu: np.exp(-lam * (2.0 * s + tau))
            * (tau + s) ** (mu - 1.0) * s ** (nu - 1.0),
            0.0, math.inf, tol=1e-12)
        ref = r.value / (math.gamma(mu) * math.gamma(nu))
        assert abs(K.tfgn_cross_cov(mu, nu, lam, tau) - ref) <= 1e-9 * ref
    assert (K.tfgn_cross_cov(1.2, 0.9, lam, tau)
            != K.tfgn_cross_cov(0.9, 1.2, lam, tau))


def test_cross_cov_diagonal_is_stationary_kernel():
    for alpha, tau in ((0.75, 0.6), (1.25, 2.0)):
        got = K.tfgn_cross_cov(alpha, alpha, 1.0, tau)
        ref = K.fou_cov(FracOUParams(alpha, 1.0), tau)
        assert abs(got - ref) <= 1e-8 * abs(ref)


def test_var_frozen_value():
    got = K.tfgn_var(1.7, 1.0)
    assert abs(got - 0.7126336651619607) <= 1e-12 * got


def test_cov_continuous_to_var_at_small_lag():
    # Holder continuity at rate tau^(2 alpha - 3): slow, so the window
    # is loose but the gap must shrink toward zero
    var = K.tfgn_var(1.7, 1.0)
    near = K.tfgn_cov(1.7, 1.0, 1e-6)
    far = K.tfgn_cov(1.7, 1.0, 1e-3)
    assert abs(near - var) <= 1e-2 * var
    assert abs(near - var) < abs(far - var)


def test_cov_even_and_can_go_negative():
    a = K.tfgn_cov(1.2, 1.0, 1.5)
    assert a == K.tfgn_cov(1.2, 1.0, -1.5)
    # the noise is not a rescaled stationary kernel: it takes negative
    # values at moderate lags
    assert a < 0.0
    assert K.tfgn_cov(1.2, 1.0, 1.5) != pytest.approx(
        K.fou_cov(FracOUParams(0.2 + 1.0, 1.0), 1.5))


def test_noise_domain_errors():
    with pytest.raises(DomainError):
        K.tfgn_cov(1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        K.tfgn_cov(1.2, 1.0, 0.0)
    with pytest.raises(DomainError):
        K.tfgn_var(1.5, 1.0)
    with pytest.raises(DomainError):
        K.tfgn_cross_cov(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        K.tfgn_cross_cov(1.0, 1.0, 1.0, -2.0)


def _four_block_cov(alpha, lam, tau):
    # the moving-average route: four Kummer-U cross-covariance blocks
    a, b = alpha - 1.0, alpha
    return (K.tfgn_cross_cov(a, a, lam, tau)
            - lam * K.tfgn_cross_cov(a, b, lam, tau)
            - lam * K.tfgn_cross_cov(b, a, lam, tau)
            + lam * lam * K.tfgn_cross_cov(b, b, lam, tau))


def _four_block_var(alpha, lam):
    # tau -> 0+ limits of the four blocks, each Gamma(mu+nu-1) /
    # (Gamma(mu) Gamma(nu) (2 lam)^(mu+nu-1))
    def limit(mu, nu):
        return (math.gamma(mu + nu - 1.0) / (math.gamma(mu) * math.gamma(nu)
                * (2.0 * lam) ** (mu + nu - 1.0)))
    a, b = alpha - 1.0, alpha
    return limit(a, a) - 2.0 * lam * limit(a, b) + lam * lam * limit(b, b)


NOISE_LAGS = (1e-3, 0.1, 1.0, 6.0)


@pytest.mark.parametrize("alpha", (1.05, 1.45, 1.5, 2.5, 5.4))
@pytest.mark.parametrize("lam", (0.5, 2.0))
def test_cov_matches_the_four_block_route(alpha, lam):
    ref = [_four_block_cov(alpha, lam, tau) for tau in NOISE_LAGS]
    scale = max(map(abs, ref))
    for tau, r in zip(NOISE_LAGS, ref):
        assert abs(K.tfgn_cov(alpha, lam, tau) - r) <= 1e-11 * scale
    if alpha > 1.5:
        var = _four_block_var(alpha, lam)
        assert abs(K.tfgn_var(alpha, lam) - var) <= 1e-13 * abs(var)


def test_gram_matches_the_four_block_route_lag_by_lag():
    alpha, lam, n = 1.8, 1.0, 8
    gram = sampler.build_gram(
        sampler.ProcessDescriptor("tfgn", FracOUParams(alpha, lam)),
        sampler.TimeGrid(0.0, 0.25, n))
    ref = [_four_block_var(alpha, lam)] + [
        _four_block_cov(alpha, lam, 0.25 * k) for k in range(1, n)]
    scale = max(map(abs, ref))
    for i in range(n):
        for j in range(n):
            assert abs(gram[i, j] - ref[abs(i - j)]) <= 1e-11 * scale


def test_noise_makes_no_kummer_call(monkeypatch):
    def kummer_u(*args):
        raise AssertionError("kummer_u called")

    monkeypatch.setattr(specfun, "kummer_u", kummer_u)
    gram = sampler.build_gram(
        sampler.ProcessDescriptor("tfgn", FracOUParams(1.8, 1.0)),
        sampler.TimeGrid(0.0, 0.25, 4))
    assert gram[0, 0] == K.tfgn_var(1.8, 1.0)
    assert gram[0, 2] == K.tfgn_cov(1.8, 1.0, 0.5)
