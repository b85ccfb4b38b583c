import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import quad, specfun
from tplab.errors import AccuracyError, DomainError, PoleError

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
@settings(max_examples=50, deadline=None, derandomize=True)
def test_gamma_recurrence(x):
    lhs = specfun.gamma_fn(x + 1.0)
    rhs = x * specfun.gamma_fn(x)
    assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


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
    (0.5, 5e-16),
    (0.5, 701.0),
    (0.5, 0.0),
    (0.5, -1.0),
    (0.5, math.nan),
    (math.nan, 1.0),
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


def _box_grid():
    # 41 x 121 (nu, x) grid spanning the supported box
    nu, x = np.meshgrid(np.linspace(0.0, specfun.BESSEL_NU_MAX, 41),
                        np.geomspace(specfun.BESSEL_X_MIN,
                                     specfun.BESSEL_X_MAX, 121))
    return nu.ravel(), x.ravel()


def test_besselk_stopping_rule_leaves_a_remainder_below_the_estimate(
        monkeypatch):
    # the remainder Temme's series leaves when it stops, measured against
    # the same series run on to a 2^11 times tighter stop
    nu, x = _box_grid()
    steps = []

    def counting(i, *state, _step=specfun._series_step):
        steps.append(i)
        return _step(i, *state)
    monkeypatch.setattr(specfun, "_series_step", counting)
    value, err = specfun._besselk_array(nu, x)
    assert np.all(err <= specfun.TOL_BOX * np.maximum(1.0, value))
    taken = len(steps)
    monkeypatch.setattr(specfun, "_STOP", specfun._STOP / 2048.0)
    longer, _ = specfun._besselk_array(nu, x)
    assert len(steps) > 2 * taken
    assert np.all(np.abs(longer - value) <= err)
    # the trapezoid's spacing and cut (x > 2), against twice the nodes
    # and a cut e^-10 further down the integrand
    above = x > 2.0
    n = 2 * specfun._NODES
    monkeypatch.setattr(specfun, "_NODES", n)
    monkeypatch.setattr(specfun, "_ORDER", np.r_[2:n + 1:2, 1:n:2] * 1.0)
    monkeypatch.setattr(specfun, "_CUT", specfun._CUT + 10.0)
    finer, _ = specfun._besselk_array(nu[above], x[above])
    assert np.all(np.abs(finer - value[above]) <= err[above])


# orders near an integer (mu ~ 0), near a half-integer (mu ~ +-1/2) and
# at the box edges; arguments at the box edges and either side of x = 2,
# where the series switches to the trapezoid rule
ESTIMATE_NUS = (0.0, 1e-12, -3e-9, 0.37, 0.5, 0.5 - 1e-9, 0.5 + 1e-9,
                -1.5 + 1e-12, 1.4999999, 2.0 + 1e-7, 2.5, 3.7, -4.2, 5.0,
                -5.0)
ESTIMATE_XS = (1e-6, 3e-4, 0.05, 0.7, 1.5, 1.9999999, 2.0,
               float(np.nextafter(2.0, 3.0)), 2.0000001, 2.5, 9.0, 60.0,
               300.0, 700.0)


def _estimate_grid():
    return (a.ravel() for a in np.meshgrid(ESTIMATE_NUS, ESTIMATE_XS))


def test_besselk_error_estimate_covers_mpmath_across_the_box():
    mpmath = pytest.importorskip("mpmath")
    nu, x = _estimate_grid()
    value, err = specfun._besselk_array(nu, x)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselk(a, b))
                        for a, b in zip(nu, x)])
    assert np.all(np.abs(value - ref) <= err)
    assert np.all(err <= specfun.TOL_BOX * np.maximum(1.0, ref))
    # the series' terms cancel near x = 2, and the estimate says so
    near_two = (x > 1.9) & (x <= 2.0)
    assert np.min(err[near_two] / ref[near_two]) > 50 * np.finfo(float).eps
    r = specfun.bessel_k(nu[-1], x[-1])
    assert (r.value, r.abs_error_estimate) == (value[-1], err[-1])


def test_besselk_small_argument_edge_against_mpmath():
    # 23 orders, near-integer and near-half-integer ones included, at 16
    # arguments from the box's lower edge up to 1e-6
    mpmath = pytest.importorskip("mpmath")
    nus = (0.0, 1e-12, -3e-9, 0.1, 0.37, 0.5, 0.5 - 1e-9, -0.5 + 1e-12,
           1.0, 1.0 + 1e-10, -1.5, 1.4999999, 2.0 - 1e-7, 2.25, 2.5, 3.0,
           3.0 + 1e-12, 3.7, -4.2, 4.5, 4.9999999, 5.0, -5.0)
    nu, x = (a.ravel() for a in np.meshgrid(
        nus, np.geomspace(specfun.BESSEL_X_MIN, 9.9e-7, 16)))
    value, err = specfun._besselk_array(nu, x)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselk(a, b))
                        for a, b in zip(nu, x)])
    assert np.all(np.abs(value - ref) <= err)
    assert np.all(np.abs(value - ref) <= 1e-14 * ref)
    assert np.all(err <= specfun.TOL_BOX * np.maximum(1.0, ref))
    assert specfun.BESSEL_X_MIN == 1e-15
    with pytest.raises(DomainError):
        specfun.bessel_k(0.5, 0.9e-15)


def test_besselk_grid_is_bitwise_invariant_under_permuting_and_splitting(
        monkeypatch):
    rng = np.random.default_rng(5)
    grid_nu, grid_x = _estimate_grid()
    nu = np.concatenate([rng.uniform(-5.0, 5.0, 300), grid_nu])
    x = np.concatenate([np.exp(rng.uniform(math.log(1e-6), math.log(700.0),
                                           300)), grid_x])
    whole = specfun.besselk_grid(nu, x)
    perm = rng.permutation(nu.size)
    assert np.array_equal(specfun.besselk_grid(nu[perm], x[perm]),
                          whole[perm])
    # batches either side of _FLOAT_BATCH: on Python floats, on arrays
    small = specfun._FLOAT_BATCH
    for size in (1, 2, 7, small, small + 1, 64):
        parts = [specfun.besselk_grid(nu[k:k + size], x[k:k + size])
                 for k in range(0, nu.size, size)]
        assert np.array_equal(np.concatenate(parts), whole)
    monkeypatch.setattr(specfun, "_BLOCK", 5)
    assert np.array_equal(specfun.besselk_grid(nu, x), whole)
    # every element on arrays, then every element on floats
    for small in (0, nu.size):
        monkeypatch.setattr(specfun, "_FLOAT_BATCH", small)
        assert np.array_equal(specfun.besselk_grid(nu, x), whole)


def test_besselk_agrees_across_the_seam_at_two():
    # Temme's series at x = 2, the trapezoid rule one ulp above
    nu = np.array(ESTIMATE_NUS)
    below, e_below = specfun._besselk_array(nu, np.full(nu.size, 2.0))
    above, e_above = specfun._besselk_array(
        nu, np.full(nu.size, np.nextafter(2.0, 3.0)))
    assert np.all(np.abs(above - below) <= e_below + e_above)


def test_besselk_trapezoid_blocks_change_no_bit(monkeypatch):
    rng = np.random.default_rng(7)
    nu = rng.uniform(-5.0, 5.0, 200)
    x = np.exp(rng.uniform(math.log(2.0), math.log(700.0), 200))
    whole = specfun.besselk_grid(nu, x)
    for size in (1, 3, 64):
        monkeypatch.setattr(specfun, "_TRAP_BLOCK", size)
        assert np.array_equal(specfun.besselk_grid(nu, x), whole)


def test_reciprocal_gamma_coefficients_match_mpmath():
    # 1/Gamma(1+mu) = sum_j c_j mu^j, the series Temme's Gamma_1 and
    # Gamma_2 are built from.  By log Gamma(1+z) = -gamma z +
    # sum_k>=2 (-1)^k zeta(k) z^k / k, its coefficients obey
    # j c_j = sum_k=1..j (-1)^(k+1) zeta(k) c_(j-k), zeta(1) -> gamma
    mpmath = pytest.importorskip("mpmath")
    pinned = specfun._RGAMMA1P
    with mpmath.workdps(40):
        z = [mpmath.euler] + [mpmath.zeta(k) for k in range(2, 24)]
        coeffs = [mpmath.mpf(1)]
        for j in range(1, len(pinned) + 1):
            coeffs.append(sum((-1) ** (k + 1) * z[k - 1] * coeffs[j - k]
                              for k in range(1, j + 1)) / j)
        assert abs(coeffs[4] - mpmath.taylor(
            lambda t: mpmath.rgamma(1 + t), 0, 4)[4]) < 1e-30
    assert [float(c) for c in coeffs[:-1]] == list(pinned)
    # the first omitted term is negligible at |mu| = 1/2
    assert abs(float(coeffs[-1])) * 0.5 ** len(pinned) < 1e-20
    eps = np.finfo(float).eps
    for mu in (-0.5, -0.1, 0.0, 1e-9, 0.3, 0.5):
        g1, g2 = specfun._temme_gammas(mu)
        for got, ref in ((g2 - mu * g1, mpmath.rgamma(1 + mu)),
                         (g2 + mu * g1, mpmath.rgamma(1 - mu))):
            assert abs(got - float(ref)) <= 4 * eps * abs(got)


@given(st.floats(min_value=-4.9, max_value=4.9),
       st.floats(min_value=0.05, max_value=50.0))
@settings(max_examples=60, deadline=None, derandomize=True)
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


@pytest.mark.parametrize("a b z".split(), ((0.7, 2.4, 2e-6),
                                           (0.9, 1.7, 1e-7),
                                           (2.5, 3.5, 3e-6)))
def test_kummer_tiny_z_is_quick_and_accurate(a, b, z):
    # the t^(b-1) e^(-zt) mass near t ~ 1/z lies where log t advances
    # linearly along the rule, so a tiny z costs a few dozen nodes
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.hyperu(a, b, z))
    start = time.perf_counter()
    r = specfun.kummer_u(a, b, z)
    assert time.perf_counter() - start < 0.05
    assert abs(r.value - ref) <= 1e-12 * ref


def test_kummer_against_direct_quadrature():
    # independent route: untransformed half-line integral
    a, b, z = 1.3, 0.6, 2.0
    direct = quad.integrate_adaptive(
        lambda t: np.exp(-z * t) * t ** (a - 1.0)
        * (1.0 + t) ** (b - a - 1.0), 0.0, math.inf, tol=1e-12)
    ref = direct.value / math.gamma(a)
    assert abs(specfun.kummer_u(a, b, z).value - ref) <= 1e-9 * ref


@pytest.mark.parametrize("b", (-4.5, -0.7, 0.5, 0.9, 1.0, 1.1, 2.4, 5.0))
def test_kummer_sweep_meets_its_estimate_and_the_contract(b):
    # small a, the b ~ 1 plateau out to z ~ 1e-12, negative b and z up
    # to 700, against 30-digit mpmath; the error is within the estimate
    # and the estimate within the accuracy contract in every cell
    mpmath = pytest.importorskip("mpmath")
    a, z = (v.ravel() for v in np.meshgrid(
        (0.005, 0.05, 0.3, 1.0, 2.5, 6.0),
        (1e-12, 1e-6, 1e-4, 0.03, 1.0, 30.0, 700.0)))
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.hyperu(x, b, y)) for x, y in zip(a, z)])
    r = specfun.kummer_u(a, b, z)
    assert np.all(np.abs(r.value - ref) <= r.abs_error_estimate)
    assert np.all(r.abs_error_estimate
                  <= specfun.TOL_BOX * np.maximum(1.0, np.abs(r.value)))
    assert np.all(np.abs(r.value - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("a b z".split(), (
    (20.0, 1.5, 1.0), (100.0, 2.0, 5.0), (0.5, -50.0, 0.1),
    (0.5, 30.0, 1e-3), (0.5, 30.0, 5.0), (1e-4, 0.5, 1e-3),
    (0.7, 1.0, 1e-300), (0.7, 2.0, 1e-100), (2.0, 3.0, 1e5),
    (0.3, 0.2, 1e8), (5.0, -10.0, 300.0), (3.0, 7.0, 1e-4)))
def test_kummer_far_corners_meet_the_contract(a, b, z):
    # sharp peaks (large a or |b|), a tiny a, z from 1e-300 to 1e8: the
    # step halves with the curvature and the rows run to the cut
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.hyperu(a, b, z))
    r = specfun.kummer_u(a, b, z)
    assert abs(r.value - ref) <= r.abs_error_estimate
    assert r.abs_error_estimate <= 1e-12 * abs(ref)


@pytest.mark.parametrize("a b z".split(), ((2.0, 3.0, 1e5),
                                          (6.0, -4.5, 700.0)))
def test_kummer_keeps_its_relative_accuracy_below_one(a, b, z):
    # an adaptive route once returned these two 100 % and 52 % off,
    # inside the absolute contract of the time.  The fixed rule holds
    # them to 2e-14 relative
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.hyperu(a, b, z))
    assert abs(specfun.kummer_u(a, b, z).value - ref) <= 2e-14 * abs(ref)


def test_besselk_contract_is_relative_below_one(monkeypatch):
    # a planted estimate of 1e-9 |K| at K = 1e-200 carries no correct
    # digit of the 1e-10 contract: refused, not passed as under 1e-10
    def planted(nu, x):
        return np.array([[1e-200] * nu.size, [1e-209] * nu.size])
    monkeypatch.setattr(specfun, "_trapezoid_block", planted)
    with pytest.raises(AccuracyError, match="bessel_k\\(nu=0.5, x=5\\)"):
        specfun.bessel_k(0.5, 5.0)


@pytest.mark.parametrize("value err ok".split(), (
    (1e-200, 1e-209, False), (1e-200, 1e-211, True), (-3.0, 2.9e-10, True),
    (-3.0, 3.1e-10, False), (1e-320, 2e-308, True), (0.0, 3e-308, False),
    (1.0, math.nan, False)))
def test_check_estimate_bound_is_rtol_of_the_value_or_least_normal(
        value, err, ok):
    args = ("f", np.array([value]), np.array([err]), 1e-10)
    if ok:
        specfun.check_estimate(*args, x=[1.0])
    else:
        with pytest.raises(AccuracyError, match="f\\(x=1\\)"):
            specfun.check_estimate(*args, x=[1.0])


def test_kummer_is_bitwise_the_same_in_any_batch():
    # rows of different lengths and steps, permuted and split
    rng = np.random.default_rng(11)
    a = rng.uniform(0.01, 4.0, 300)
    b = rng.uniform(-3.0, 5.0, 300)
    z = 10.0 ** rng.uniform(-10.0, 2.8, 300)
    whole = specfun.kummer_u(a, b, z)
    perm = rng.permutation(300)
    r = specfun.kummer_u(a[perm], b[perm], z[perm])
    assert np.array_equal(r.value, whole.value[perm])
    assert np.array_equal(r.abs_error_estimate,
                          whole.abs_error_estimate[perm])
    for lo in range(0, 300, 41):
        part = specfun.kummer_u(a[lo:lo + 41], b[lo:lo + 41], z[lo:lo + 41])
        assert np.array_equal(part.value, whole.value[lo:lo + 41])


@pytest.mark.parametrize("b", (1e12, -1e12))
def test_kummer_refuses_rows_past_the_cap_before_building_them(b):
    # |b| = 1e12 would take a row of 6e8 nodes, gigabytes a working array:
    # the row length is checked before any row is allocated
    start = time.perf_counter()
    with pytest.raises(AccuracyError, match="nodes, above the"):
        specfun.kummer_u([1.0, 0.5], [1.5, b], 1.0)
    assert time.perf_counter() - start < 0.5


def test_kummer_gamma_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="gamma"):
        specfun.kummer_u(1000.0, 1.5, 1.0)


@pytest.mark.parametrize("a z".split(), ((0.0, 1.0), (-0.5, 1.0),
                                         (1.0, 0.0), (1.0, -2.0)))
def test_kummer_domain(a, z):
    with pytest.raises(DomainError):
        specfun.kummer_u(a, 1.5, z)


def test_kummer_on_arrays_equals_its_scalar_calls_bitwise():
    # a scalar call is the one-element batch; tiny z lengthens a row,
    # b = 1 and a = 1 hit numpy's special exponents
    a = np.array([[1.0, 0.75, 0.7, 0.9], [2.5, 1.3, 0.6, 1.6]])
    b = np.array([[1.0, 1.5, 2.4, 1.7], [3.5, 0.6, 1.2, 2.1]])
    z = np.array([[1.0, 0.8, 2e-6, 1e-7], [3e-6, 2.0, 30.0, 0.4]])
    r = specfun.kummer_u(a, b, z)
    assert r.value.shape == r.abs_error_estimate.shape == a.shape
    for i in np.ndindex(a.shape):
        one = specfun.kummer_u(a[i], b[i], z[i])
        assert type(one.value) is float
        assert (r.value[i], r.abs_error_estimate[i]) == (
            one.value, one.abs_error_estimate)
    # broadcasting a scalar b over a column of a and a row of z
    r = specfun.kummer_u(a[:, :1], 1.5, z[:1])
    assert r.value[1, 2] == specfun.kummer_u(a[1, 0], 1.5, z[0, 2]).value


def test_whittaker_on_arrays_equals_its_scalar_calls_bitwise():
    # the second element needs the -mu form
    kappa, mu, z = [0.0, 0.1, 0.3], [0.25, -0.3, 0.4], [4.0, 1.0, 0.2]
    r = specfun.whittaker_w(kappa, mu, z)
    for i in range(3):
        one = specfun.whittaker_w(kappa[i], mu[i], z[i])
        assert (r.value[i], r.abs_error_estimate[i]) == (
            one.value, one.abs_error_estimate)


@pytest.mark.parametrize("args name".split(), (
    ((0.5, 1.0, math.nan), "z"), ((0.5, 1.0, math.inf), "z"),
    ((math.nan, 1.0, 1.0), "a"), ((math.inf, 1.0, 1.0), "a"),
    ((0.5, math.nan, 1.0), "b"), ((0.5, -math.inf, 1.0), "b"),
    (([0.5, math.nan], 1.0, 1.0), "a"),
    ((0.5, 1.0, [1.0, 2.0, math.nan]), "z"),
))
def test_kummer_refuses_non_finite_arguments_by_name(args, name):
    with pytest.raises(DomainError,
                       match="kummer_u requires finite %s" % name):
        specfun.kummer_u(*args)


@pytest.mark.parametrize("args name".split(), (
    ((0.1, 0.2, math.nan), "z"), ((math.nan, 0.2, 1.0), "kappa"),
    ((0.1, math.inf, 1.0), "mu"), (([0.1, 0.1], 0.2, [1.0, math.inf]), "z"),
))
def test_whittaker_refuses_non_finite_arguments_by_name(args, name):
    with pytest.raises(DomainError,
                       match="whittaker_w requires finite %s" % name):
        specfun.whittaker_w(*args)


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


# --- 1/Gamma and the Bessel K deficit --------------------------------------

def test_rgamma_matches_math_gamma():
    z = np.concatenate((np.linspace(0.5, 12.0, 400), [1.0, 2.0, 6.5]))
    got = specfun.rgamma(z)
    ref = np.array([1.0 / math.gamma(v) for v in z])
    assert np.all(np.abs(got - ref) <= 8 * np.spacing(ref))
    assert got.tolist() == [float(specfun.rgamma(v)) for v in z]


def test_besselk_deficit_against_mpmath():
    # G_nu(x) = Gamma(nu)/2 - (x/2)^nu K_nu(x), its cancellation resolved
    # by the working precision; integer, near-integer and half-integer nu,
    # wherever the recurrence from mu = nu - round(nu) < 0 is stable:
    # round(nu) = 1, or |mu| ln(2/x) <= 1/2, as the structure function
    # routes it
    mpmath = pytest.importorskip("mpmath")
    nus = (0.51, 0.99, 1.0, 1.01, 1.5, 1.98, 2.0, 2.3, 3.0, 4.49, 5.0)
    xs = (1e-9, 1e-4, 0.01, 0.3, 1.0, 2.0)
    nu, x = (a.ravel() for a in np.meshgrid(nus, xs))
    mu = nu - np.round(nu)
    keep = (np.round(nu) == 1.0) | (-mu * np.log(2.0 / x) <= 0.5)
    nu, x = nu[keep], x[keep]
    got = specfun.besselk_deficit(nu, x)
    for g, n, v in zip(got, nu, x):
        with mpmath.workdps(80):
            a, b = mpmath.mpf(n), mpmath.mpf(v)
            ref = mpmath.gamma(a) / 2 - (b / 2) ** a * mpmath.besselk(a, b)
        assert abs(g - float(ref)) <= 1e-13 * float(ref), (n, v)
    # a batch of at most 32 runs on floats, with the same bits
    assert got.tolist() == [float(specfun.besselk_deficit([n], [v])[0])
                            for n, v in zip(nu, x)]
