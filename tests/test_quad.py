import math
import sys

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
    r = quad.integrate_adaptive(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
    assert abs(r.value - 2.0) < 1e-9


def test_halfline_exponential():
    r = quad.integrate_adaptive(lambda x: math.exp(-x), 0.0, math.inf)
    assert abs(r.value - 1.0) < 1e-10


def test_halfline_lorentzian():
    r = quad.integrate_adaptive(lambda x: 1.0 / (1.0 + x * x), 0.0,
                                math.inf)
    assert abs(r.value - 0.5 * math.pi) < 1e-9


def test_empty_interval_is_zero():
    r = quad.integrate_adaptive(lambda x: 1.0, 2.0, 2.0)
    assert r.value == 0.0 and r.subdivisions == 0


@pytest.mark.parametrize("bad_tol", (0.0, -1e-3))
def test_tolerance_must_be_positive(bad_tol):
    with pytest.raises(DomainError):
        quad.integrate_adaptive(lambda x: x, 0.0, 1.0, tol=bad_tol)


def test_infinite_lower_limit_rejected():
    with pytest.raises(DomainError):
        quad.integrate_adaptive(lambda x: x, -math.inf, 1.0)


def test_unattainable_tolerance_keeps_partial():
    # float64 cannot certify 1e-25 absolute on a value of order 1; the
    # failure must still carry the (perfectly good) partial result
    with pytest.raises(NonConvergence) as exc:
        quad.integrate_adaptive(math.exp, 0.0, 1.0, tol=1e-25)
    partial = exc.value.partial
    assert partial is not None
    assert abs(partial.value - (math.e - 1.0)) < 1e-12


def test_unattainable_tolerance_keeps_partial_on_halfline():
    # the partial must cover all of [0, inf), not just the panel that
    # ran into the float64 floor
    with pytest.raises(NonConvergence) as exc:
        quad.integrate_adaptive(lambda x: math.exp(-x), 0.0, math.inf,
                                tol=1e-25)
    partial = exc.value.partial
    assert partial is not None
    assert abs(partial.value - 1.0) < 1e-12


@pytest.mark.parametrize("f b".split(), (
    (math.exp, 1.0),
    (lambda x: math.exp(-x), math.inf),
    (lambda x: 1.0 / math.sqrt(x), 1.0),
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
    (math.exp, 0.0, 1.0, 1e-13),
    (math.sin, 0.0, 3.0, 1e-13),
    (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 1e-10),
    (lambda x: math.exp(-x), 0.0, math.inf, 1e-12),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, 1e-10),
))
def test_converged_error_never_below_rounding(f, a, b, tol):
    # a converged estimate may not claim more than float64 certifies
    r = quad.integrate_adaptive(f, a, b, tol=tol)
    assert r.abs_error_estimate <= tol
    assert r.abs_error_estimate >= sys.float_info.epsilon * abs(r.value)


def test_additivity_of_panels():
    f = lambda x: math.sin(x) + 0.3 * x
    whole = quad.integrate_adaptive(f, 0.0, 2.0)
    a = quad.integrate_adaptive(f, 0.0, 1.0)
    b = quad.integrate_adaptive(f, 1.0, 2.0)
    assert abs(whole.value - (a.value + b.value)) < 1e-12


def test_breakpoints_and_relative_budget():
    # a kink on a breakpoint leaves two polynomial panels; a relative
    # budget follows the value down to any scale
    r = quad.integrate_adaptive(lambda x: abs(x - 0.3), 0.0, 1.0,
                                points=(0.3,))
    assert r.subdivisions == 2 and abs(r.value - 0.29) < 1e-15
    r = quad.integrate_adaptive(lambda x: 1e-30 * math.exp(x), 0.0, 1.0,
                                tol=0.0, rel=1e-12)
    assert abs(r.value - 1e-30 * (math.e - 1.0)) <= r.abs_error_estimate
    assert r.abs_error_estimate <= 1e-12 * r.value
    with pytest.raises(DomainError):
        quad.integrate_adaptive(math.exp, 0.0, math.inf, points=(1.0,))


@given(st.floats(min_value=0.1, max_value=9.0))
@settings(max_examples=25, deadline=None)
def test_known_gaussian_mass(scale):
    # int_0^inf e^(-(x/s)^2) dx = s sqrt(pi)/2
    r = quad.integrate_adaptive(
        lambda x: math.exp(-((x / scale) ** 2)), 0.0, math.inf)
    assert abs(r.value - 0.5 * scale * math.sqrt(math.pi)) < 1e-8 * scale


# --- oscillatory cosine transform ----------------------------------------

def test_cosine_transform_exponential_kernel():
    # int_0^inf e^(-k) cos(2k) dk = 1/(1+4) = 0.2
    r = quad.fourier_cos_halfline(lambda k: math.exp(-k), 2.0, tol=1e-11,
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
