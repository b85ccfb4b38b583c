"""Real-argument special functions: Gamma, modified Bessel K of real
order, Kummer U, Whittaker W.

Everything a tempered-kernel evaluation needs, on an explicitly declared
parameter box, with per-call error estimates derived from quadrature
refinement deltas.  No complex arguments, no arbitrary precision.

Algorithms
    bessel_k     step-halving trapezoid on K_nu(x) = int_0^inf
                 exp(-x cosh t) cosh(nu t) dt for x >= 0.1 (the even,
                 analytic, decaying integrand makes the trapezoid rule
                 geometrically convergent); ascending series with the
                 reflection pair K_nu = pi/2 (I_-nu - I_nu)/sin(nu pi)
                 for x < 0.1, except within 0.01 of integer nu where the
                 reflection cancels digits and the trapezoid (with a
                 longer truncation) is used instead.
    kummer_u     U(a,b,z) = (1/Gamma(a)) int_0^inf e^(-zt) t^(a-1)
                 (1+t)^(b-a-1) dt, mapped to [0,1) by t = u/(1-u); for
                 a < 1 the additional u = v^(1/a) substitution absorbs
                 the endpoint power exactly, then adaptive subdivision.
    whittaker_w  W_{kappa,mu}(z) = e^(-z/2) z^(1/2+mu)
                 U(1/2+mu-kappa, 1+2mu, z), switching to the -mu form
                 (W is even in mu) when the U argument 1/2+mu-kappa is
                 not positive.

All functions are pure and reentrant.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .errors import AccuracyError, DomainError, NonConvergence, PoleError

BESSEL_NU_MAX = 5.0
BESSEL_X_MIN = 1e-6
BESSEL_X_MAX = 700.0

# abs_error_estimate must stay below TOL_BOX * max(1, |value|)
TOL_BOX = 1e-10


@dataclass(frozen=True)
class SpecFunResult:
    value: float
    abs_error_estimate: float


def gamma_fn(x):
    """Gamma(x) for real x, poles at 0, -1, -2, ... raise PoleError."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError("gamma pole at x=%g" % x)
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError("gamma(%g) overflows double precision" % x)


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    x = float(x)
    if x <= 0.0:
        raise DomainError("log_gamma requires x > 0, got %g" % x)
    return math.lgamma(x)


# --- modified Bessel K --------------------------------------------------


def _trunc_length(nu, x, decades):
    """t_max with exp(-x(cosh t - 1)) cosh(nu t) below 10^(-decades),
    elementwise over arrays of orders nu >= 0 and arguments x > 0."""
    target = decades * math.log(10.0)
    t = np.arccosh(1.0 + target / x)
    for _ in range(3):
        t = np.arccosh(1.0 + (target + nu * t) / x)
    return 1.05 * t


def _besselk_trapezoid(nu, x):
    """Vectorized trapezoid on the cosh integral, scaled by e^x.

    nu, x are equal-length 1d arrays.  Returns (value, err) arrays where
    value = K_nu(x) and err is the last refinement delta plus rounding.
    """
    nu = np.abs(np.asarray(nu, dtype=float))
    x = np.asarray(x, dtype=float)
    tmax = _trunc_length(nu, x, 18.0)

    def scaled_integral(n_points):
        # composite trapezoid with n_points panels on [0, tmax]
        s = np.linspace(0.0, 1.0, n_points + 1)
        t = tmax[:, None] * s[None, :]
        with np.errstate(over="ignore"):
            g = np.exp(-x[:, None] * (np.cosh(t) - 1.0)) * np.cosh(
                nu[:, None] * t)
        g[:, 0] *= 0.5
        g[:, -1] *= 0.5
        return (tmax / n_points) * g.sum(axis=1)

    n = 64
    prev = scaled_integral(n)
    err = np.full_like(prev, np.inf)
    cur = prev
    while n < 8192:
        n *= 2
        cur = scaled_integral(n)
        err = np.abs(cur - prev)
        if np.all(err <= 3e-13 * np.abs(cur) + 1e-300):
            break
        prev = cur
    scale = np.exp(-x)
    value = scale * cur
    return value, scale * err + np.abs(value) * 5e-16


def _besselk_series(nu, x):
    """Ascending-series K via the reflection pair, x < 0.1, nu away from
    integers.  Vectorized; returns (value, err)."""
    nu = np.abs(np.asarray(nu, dtype=float))
    x = np.asarray(x, dtype=float)
    half = 0.5 * x

    def bessel_i(order):
        # I_order(x) = sum (x/2)^(order+2m) / (m! Gamma(order+m+1))
        total = np.zeros_like(x)
        size = np.zeros_like(x)
        lead = half ** order
        term = lead / np.array(
            [math.gamma(o + 1.0) for o in order])
        for m in range(40):
            total = total + term
            size = np.maximum(size, np.abs(term))
            if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
                break
            term = term * half * half / ((m + 1.0) * (order + m + 1.0))
        return total, size

    ip, sp = bessel_i(-nu)
    im, sm = bessel_i(nu)
    s = np.sin(nu * np.pi)
    value = 0.5 * np.pi * (ip - im) / s
    err = 0.5 * np.pi * (sp + sm) / np.abs(s) * 1e-15 + np.abs(value) * 1e-15
    return value, err


def _besselk_array(nu, x):
    """K_nu(x) over matching 1d arrays; routes each element by regime.

    The trapezoid route is chunked: its refinement grids are dense in
    the point axis, so large Gram-style batches are processed a few
    thousand elements at a time.
    """
    nu = np.asarray(nu, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    if np.any(x <= 0.0):
        raise DomainError("bessel_k requires x > 0")
    if np.any(np.abs(nu) > BESSEL_NU_MAX) or np.any(
            x < BESSEL_X_MIN) or np.any(x > BESSEL_X_MAX):
        raise DomainError(
            "bessel_k supported box is |nu| <= %g, %g <= x <= %g"
            % (BESSEL_NU_MAX, BESSEL_X_MIN, BESSEL_X_MAX))
    near_int = np.abs(nu - np.round(nu)) < 0.01
    use_series = (x < 0.1) & ~near_int
    value = np.empty_like(x)
    err = np.empty_like(x)
    idx = np.flatnonzero(~use_series)
    for lo in range(0, len(idx), 4096):
        sel = idx[lo:lo + 4096]
        value[sel], err[sel] = _besselk_trapezoid(nu[sel], x[sel])
    if use_series.any():
        value[use_series], err[use_series] = _besselk_series(
            nu[use_series], x[use_series])
    return value, err


def besselk_grid(nu, x):
    """Vectorized K_nu(x) for kernel Gram assembly; values only.

    nu and x broadcast to a common shape.  Raises AccuracyError if any
    element misses the box-wide accuracy contract.  The trapezoid
    refines a chunk until every element in it converges, so an
    element's last bits (about 1e-13 relative) depend on its chunk.
    """
    nu_b, x_b = np.broadcast_arrays(np.asarray(nu, float),
                                    np.asarray(x, float))
    value, err = _besselk_array(nu_b.ravel(), x_b.ravel())
    bound = TOL_BOX * np.maximum(1.0, np.abs(value))
    if np.any(err > bound):
        worst = int(np.argmax(err - bound))
        raise AccuracyError(
            "bessel_k error estimate %g exceeds %g at nu=%g x=%g"
            % (err[worst], bound[worst], nu_b.ravel()[worst],
               x_b.ravel()[worst]))
    return value.reshape(nu_b.shape)


def bessel_k(nu, x):
    """Modified Bessel function of the second kind, real order.

    Supported box: |nu| <= 5, 1e-6 <= x <= 700.  Symmetric in nu by the
    evenness of cosh(nu t).  Returns SpecFunResult.
    """
    value, err = _besselk_array([nu], [x])
    v, e = float(value[0]), float(err[0])
    if e > TOL_BOX * max(1.0, abs(v)):
        raise AccuracyError(
            "bessel_k(%g, %g) error estimate %g above contract" % (nu, x, e))
    return SpecFunResult(v, e)


# --- Kummer U and Whittaker W -------------------------------------------


def _kummer_integrand(a, b, z):
    """Integrand on [0,1] after t = u/(1-u) (and u = v^(1/a) if a < 1)."""
    if a < 1.0:
        inv_a = 1.0 / a

        def f(v):
            if v <= 0.0:
                return 1.0
            w = v ** inv_a
            one_minus = 1.0 - w
            if one_minus <= 1e-305:
                return 0.0
            arg = z * w / one_minus
            if arg > 708.0:
                return 0.0
            return math.exp(-arg) * one_minus ** (-b)

        return f, 1.0 / (a * math.gamma(a))

    def f(u):
        one_minus = 1.0 - u
        if one_minus <= 1e-305:
            return 0.0
        arg = z * u / one_minus
        if arg > 708.0:
            return 0.0
        return math.exp(-arg) * u ** (a - 1.0) * one_minus ** (-b)

    return f, 1.0 / math.gamma(a)


def kummer_u(a, b, z):
    """Confluent hypergeometric U(a, b, z) for a > 0, z > 0, real b.

    Evaluated from the Laplace-type integral representation
    (1/Gamma(a)) int_0^inf e^(-zt) t^(a-1) (1+t)^(b-a-1) dt.
    """
    a, b, z = float(a), float(b), float(z)
    if a <= 0.0:
        raise DomainError("kummer_u requires a > 0, got a=%g" % a)
    if z <= 0.0:
        raise DomainError("kummer_u requires z > 0, got z=%g" % z)
    f, pref = _kummer_integrand(a, b, z)
    probe = quad._rule_pair(f, 0.0, 1.0)[0]
    tol = max(1e-13, 1e-12 * abs(probe))
    try:
        res = quad.integrate_adaptive(f, 0.0, 1.0, tol=tol)
    except NonConvergence as exc:
        # the probe can miss a boundary layer at u -> 1 when z is tiny and
        # the integral is huge, leaving tol unattainable; the partial is
        # then judged by the accuracy contract on the final scale (the
        # bisection order does not depend on tol, so a retry at a
        # rescaled tol would only retrace the same panels)
        res = exc.partial
    value = pref * res.value
    # the integral's rounding floor, 50 ulps of its magnitude, already
    # covers the few ulps that pref and the product add
    err = pref * res.abs_error_estimate
    if err > TOL_BOX * max(1.0, abs(value)):
        raise AccuracyError(
            "kummer_u(%g, %g, %g) error estimate %g above contract"
            % (a, b, z, err))
    return SpecFunResult(value, err)


def whittaker_w(kappa, mu, z):
    """Whittaker W_{kappa,mu}(z) for z > 0.

    Uses W = e^(-z/2) z^(1/2+mu) U(1/2+mu-kappa, 1+2mu, z) with the given
    mu when 1/2+mu-kappa > 0, falling back to the -mu form (W is even in
    mu) otherwise.  The two sign choices are genuinely different
    integrals, which is what makes the mu <-> -mu agreement a real
    consistency check rather than a tautology.
    """
    kappa, mu, z = float(kappa), float(mu), float(z)
    if z <= 0.0:
        raise DomainError("whittaker_w requires z > 0, got z=%g" % z)
    for m in (mu, -mu):
        a = 0.5 + m - kappa
        if a > 0.0:
            u = kummer_u(a, 1.0 + 2.0 * m, z)
            pref = math.exp(-0.5 * z) * z ** (0.5 + m)
            value = pref * u.value
            err = pref * u.abs_error_estimate + abs(value) * 5e-16
            return SpecFunResult(value, err)
    raise DomainError(
        "whittaker_w(%g, %g, %g): both U forms have nonpositive first "
        "argument" % (kappa, mu, z))
