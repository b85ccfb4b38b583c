import math
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import quad
from tplab.errors import DomainError, NonConvergence, SlowDecay

# pinned offline at 30 significant digits
PI_OVER_2E = 0.57786367489546086
PI_TIMES_EXP_M1 = 1.1557273497909217


# --- finite and half-line adaptive integration ---------------------------

def test_polynomial_single_panel():
    r = quad.integrate_adaptive(lambda x: x ** 5, 0.0, 1.0)
    assert abs(r.value - 1.0 / 6.0) < 1e-14
    assert r.subdivisions == 1


def test_endpoint_singularity():
    # open rule never evaluates the endpoint; 1/sqrt(x) integrates to 2
    r = quad.integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert abs(r.value - 2.0) < 1e-9


def test_halfline_exponential():
    r = quad.integrate_adaptive(lambda x: np.exp(-x), 0.0, math.inf)
    assert abs(r.value - 1.0) < 1e-10


def test_halfline_lorentzian():
    r = quad.integrate_adaptive(lambda x: 1.0 / (1.0 + x * x), 0.0,
                                math.inf)
    assert abs(r.value - 0.5 * math.pi) < 1e-9


def test_empty_interval_is_zero():
    r = quad.integrate_adaptive(np.ones_like, 2.0, 2.0)
    assert r.value == 0.0 and r.subdivisions == 0


@pytest.mark.parametrize("bad_tol", (0.0, -1e-3))
def test_tolerance_must_be_positive(bad_tol):
    with pytest.raises(DomainError):
        quad.integrate_adaptive(lambda x: x, 0.0, 1.0, tol=bad_tol)


def test_infinite_lower_limit_rejected():
    with pytest.raises(DomainError):
        quad.integrate_adaptive(lambda x: x, -math.inf, 1.0)


@pytest.mark.parametrize("a b".split(), (
    (0.0, -math.inf),           # was the integral over [0, +inf)
    (math.nan, 1.0),
    (0.0, math.nan),            # was value nan, with nothing raised
    (1.0, 0.0),                 # was NonConvergence after bisecting
))
def test_limits_outside_the_contract_rejected(a, b):
    with pytest.raises(DomainError):
        quad.integrate_adaptive(lambda x: np.exp(-x), a, b)


# --- one integrand call per batch of panels ---------------------------------

def _two_sided():
    # a different formula on each side of x = 0, written by masks

    def f(x):
        out = np.empty_like(x)
        neg = x < 0.0
        out[neg] = np.exp(0.1 / x[neg]) / -x[neg]
        out[~neg] = x[~neg] ** 0.3 * np.exp(-x[~neg])
        return out

    return f


@pytest.mark.parametrize("f edges".split(), (
    (np.exp, (0.0, 0.3, 1.0, 2.5)),
    (lambda x: 1.0 / np.sqrt(x), (0.0, 1e-9, 1e-3, 1.0)),
    (lambda x: np.sin(40.0 * x) / (1.0 + x), (0.0, 1.0, 1.0, 2.0, 7.5)),
    (_two_sided(), (-0.5, -0.25, 0.0, 0.25, 0.5 ** 0.7)),
))
def test_batched_panels_equal_single_panels_bitwise(f, edges):
    # the panels between edges and random pieces of them, in batches of
    # 1, 2, 33 and 64 in shuffled order
    rng = np.random.default_rng(18)
    base = list(zip(edges[:-1], edges[1:]))
    pieces = [np.sort(lo + (hi - lo) * rng.random(2)).tolist()
              for lo, hi in (base[i] for i in rng.integers(len(base),
                                                           size=64))]
    lo, hi = np.array(base + pieces).T
    single = [list(zip(*quad._rule_pairs(f, [a], [b])))
              for a, b in zip(lo, hi)]
    for n in (1, 2, 33, 64):
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        pick = rng.permutation(lo.size)[:n]
        batch = quad._rule_pairs(counted, lo[pick], hi[pick])
        assert calls == [22 * n]
        assert list(zip(*batch)) == [single[i][0] for i in pick]


@pytest.mark.parametrize("f lo_range".split(), (
    (lambda x: np.sin(40.0 * x) / (1.0 + x), (0.0, 10.0)),
    (lambda x: np.exp(30.0 * x), (-5.0, 5.0)),
    (lambda x: np.exp(-30.0 * x), (-5.0, 5.0)),
    (lambda x: x ** -0.5, (0.0, 1.0)),
), ids=("sin40-over-1px", "exp30", "exp-30", "inverse-sqrt"))
def test_panel_sums_stay_within_half_the_rounding_floor(f, lo_range):
    # the row reductions against correctly rounded sums of the same terms
    rng = np.random.default_rng(7)
    lo = rng.uniform(*lo_range, size=500)
    hi = lo + 10.0 ** rng.uniform(-6.0, 0.7, size=500)
    i15 = quad._rule_pairs(f, lo, hi)[0]
    h = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + h[:, None] * quad._X15
    terms = quad._W15 * f(nodes)
    for v, hk, t in zip(i15, h, terms):
        bound = 0.5 * quad.ROUNDING_FLOOR * abs(hk) * math.fsum(abs(t))
        assert abs(v - hk * math.fsum(t)) <= bound


# --- pinned results ---------------------------------------------------------

_CAP_HIT = "subdivision cap 40 hit on [0, %s]"
_FLOOR_HIT = "tol=%s is below float64 resolution on [0, 1]: rounding floor %s"

# (f, a, b, tol, pinned): finite and half-line, an endpoint singularity,
# an oscillation, a tiny scale, an empty interval, and two that cannot
# meet tol: the float64 floor on [0, 1] and on [0, inf).  pinned is the
# (value, abs_error_estimate, subdivisions) of the result, or of the
# partial after the NonConvergence message, bit for bit
_MIXED = (
    (np.exp, 0.0, 1.0, 1e-13,
     (1.718281828459045, 1.9076760487502454e-14, 1)),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-10,
     (1.999999999926009, 8.752557334926787e-11, 60)),
    (lambda x: np.sin(40.0 * x) / (1.0 + x), 0.0, 7.5, 1e-9,
     (0.025042617016809633, 2.0249069079003872e-10, 64)),
    (lambda x: np.exp(-x), 0.0, math.inf, 1e-12,
     (0.9999999999999998, 2.0687475914665257e-14, 10)),
    (lambda x: 1.0 / (1.0 + x * x), 0.5, math.inf, 1e-10,
     (1.1071487177552854, 4.981598022982607e-11, 44)),
    (np.exp, 2.0, 2.0, 1e-10, (0.0, 0.0, 0)),
    (np.exp, 0.0, 1.0, 1e-25,
     (_FLOOR_HIT % ("1e-25", "1.90768e-14"),
      1.718281828459045, 1.9076760487502454e-14, 1)),
    (lambda x: np.exp(-x), 0.0, math.inf, 1e-25,
     (_FLOOR_HIT % ("2.5e-26", "7.01795e-15"),
      0.9999999999999998, 1.1102230631751573e-14, 24)),
    (lambda x: 1e-30 * np.exp(x), -1.0, 1.0, 1e-42,
     (2.3504023872876024e-30, 2.6094708475006304e-44, 1)),
)


def _outcome(f, a, b, tol):
    # the result as a tuple, or the failure's message and then its partial
    try:
        return astuple(quad.integrate_adaptive(f, a, b, tol))
    except NonConvergence as exc:
        assert type(exc) is NonConvergence
        return (str(exc),) + astuple(exc.partial)


@pytest.mark.parametrize("case", _MIXED, ids=(
    "exp", "inverse-sqrt", "sin40", "exp-halfline", "lorentzian-tail",
    "empty", "exp-floor", "halfline-floor", "tiny-scale"))
def test_mixed_results_are_pinned(case):
    *args, pinned = case
    assert _outcome(*args) == pinned


def test_cap_hit_keeps_its_pinned_partial(monkeypatch):
    # a cap hit stops with its partial; integrals within the cap are
    # untouched by it
    monkeypatch.setattr(quad, "SUBDIVISION_CAP", 40)
    wiggle = (lambda x: np.sin(300.0 * x) / (1.0 + x), 0.0, 30.0, 1e-12)
    assert _outcome(*wiggle) == (
        _CAP_HIT % 30, 0.1922159195531665, 0.13536132971466258, 40)
    assert _outcome(*_MIXED[2][:4]) == (
        _CAP_HIT % 7.5, 0.025042617016809692, 1.289510085195891e-06, 40)
    for case in (_MIXED[0], _MIXED[3]):
        assert _outcome(*case[:4]) == case[4]


def test_domain_errors_raise_before_any_evaluation():
    def f(x):
        raise AssertionError("integrand called")

    with pytest.raises(DomainError):
        quad.integrate_adaptive(f, 0.0, math.nan, 1e-10)
    with pytest.raises(DomainError, match="tol must be positive"):
        quad.integrate_adaptive(f, 0.0, math.inf, 0.0)


def test_unattainable_tolerance_keeps_partial():
    # float64 cannot certify 1e-25 absolute on a value of order 1; the
    # failure must still carry the (perfectly good) partial result
    with pytest.raises(NonConvergence) as exc:
        quad.integrate_adaptive(np.exp, 0.0, 1.0, tol=1e-25)
    partial = exc.value.partial
    assert partial is not None
    assert abs(partial.value - (math.e - 1.0)) < 1e-12


def test_unattainable_tolerance_keeps_partial_on_halfline():
    # the partial must cover all of [0, inf), not just the panel that
    # ran into the float64 floor
    with pytest.raises(NonConvergence) as exc:
        quad.integrate_adaptive(lambda x: np.exp(-x), 0.0, math.inf,
                                tol=1e-25)
    partial = exc.value.partial
    assert partial is not None
    assert abs(partial.value - 1.0) < 1e-12


@pytest.mark.parametrize("f b".split(), (
    (np.exp, 1.0),
    (lambda x: np.exp(-x), math.inf),
    (lambda x: 1.0 / np.sqrt(x), 1.0),
))
def test_unattainable_tolerance_stops_short_of_cap(f, b):
    # once the panels at their rounding floor alone exceed tol, bisecting
    # further cannot help; the routine must give up then, not grind to
    # the cap (or, next to a singular endpoint, to underflow)
    with pytest.raises(NonConvergence) as exc:
        quad.integrate_adaptive(f, 0.0, b, tol=1e-25)
    assert exc.value.partial.subdivisions < quad.SUBDIVISION_CAP // 20


@pytest.mark.parametrize("f a b tol".split(), (
    (lambda x: x ** 5, 0.0, 1.0, 1e-10),
    (np.exp, 0.0, 1.0, 1e-13),
    (np.sin, 0.0, 3.0, 1e-13),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-10),
    (lambda x: np.exp(-x), 0.0, math.inf, 1e-12),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, 1e-10),
))
def test_converged_error_never_below_rounding(f, a, b, tol):
    # a converged estimate may not claim more than float64 certifies
    r = quad.integrate_adaptive(f, a, b, tol=tol)
    assert r.abs_error_estimate <= tol
    assert r.abs_error_estimate >= sys.float_info.epsilon * abs(r.value)


def test_additivity_of_panels():
    f = lambda x: np.sin(x) + 0.3 * x
    whole = quad.integrate_adaptive(f, 0.0, 2.0)
    a = quad.integrate_adaptive(f, 0.0, 1.0)
    b = quad.integrate_adaptive(f, 1.0, 2.0)
    assert abs(whole.value - (a.value + b.value)) < 1e-12


@given(st.floats(min_value=0.1, max_value=9.0))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_known_gaussian_mass(scale):
    # int_0^inf e^(-(x/s)^2) dx = s sqrt(pi)/2
    r = quad.integrate_adaptive(
        lambda x: np.exp(-((x / scale) ** 2)), 0.0, math.inf)
    assert abs(r.value - 0.5 * scale * math.sqrt(math.pi)) < 1e-8 * scale


# --- oscillatory cosine transform ----------------------------------------

def test_cosine_transform_exponential_kernel():
    # int_0^inf e^(-k) cos(2k) dk = 1/(1+4) = 0.2
    r = quad.fourier_cos_halfline(lambda k: np.exp(-k), 2.0, tol=1e-11,
                                  decay_p=2.0)
    assert abs(r.value - 0.2) < 1e-10


def test_cosine_transform_lorentzian():
    # int_0^inf cos(k)/(k^2+1) dk = (pi/2) e^(-1)
    r = quad.fourier_cos_halfline(lambda k: 1.0 / (k * k + 1.0), 1.0,
                                  tol=1e-11, decay_p=2.0)
    assert abs(r.value - 0.5 * PI_TIMES_EXP_M1) < 1e-10


def test_cosine_transform_even_in_tau():
    g = lambda k: 1.0 / (k * k + 2.0)
    a = quad.fourier_cos_halfline(g, 1.3)
    b = quad.fourier_cos_halfline(g, -1.3)
    assert a.value == b.value


def test_cosine_transform_tau_zero_reduces_to_plain_integral():
    r = quad.fourier_cos_halfline(lambda k: 1.0 / (k * k + 1.0), 0.0)
    assert abs(r.value - 0.5 * math.pi) < 1e-9


def test_cosine_transform_extreme_cancellation():
    # (pi/2) e^(-40): ratio of lobe amplitude to value is ~1e17, so the
    # float64 lobe sum cannot certify the tolerance; it must say so and
    # keep its partial, whose estimate still covers the true error
    target = 0.5 * math.pi * math.exp(-40.0)
    with pytest.raises(NonConvergence) as exc:
        quad.fourier_cos_halfline(lambda k: 1.0 / (k * k + 1.0), 40.0,
                                      tol=1e-8 * target, decay_p=2.0)
    partial = exc.value.partial
    assert partial is not None
    assert abs(partial.value - target) <= partial.abs_error_estimate


def test_cosine_transform_requires_integrable_tail():
    with pytest.raises(DomainError):
        quad.fourier_cos_halfline(lambda k: 1.0, 1.0, decay_p=1.0)


@pytest.mark.parametrize("tau nseg".split(), ((1.0, 36), (2.5, 31)))
def test_lobe_sum_subdivisions_are_pinned(tau, nseg):
    # pinned counts: evaluating a batch of panels in one integrand call
    # must not move a single bisection
    r = quad.fourier_cos_halfline(
        lambda k: (k * k + 1.0) ** -0.8 / math.pi, tau, tol=1e-11,
        decay_p=1.6)
    assert r.subdivisions == nseg
