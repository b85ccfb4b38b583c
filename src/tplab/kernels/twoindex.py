"""Two-index family: Riesz-type spectral kernels with separate
smoothness (alpha) and spatial (beta) indices.

The stationary Y-form spectral density is

    S(k) = (1/2 pi) (|k|^(2 beta) + lambda^(2 beta))^(-alpha)

whose covariance has no closed form for beta < 1; it is produced by the
oscillatory quadrature.  The beta = 1 slice collapses to the
single-index family exactly.
"""

import math
import warnings

import numpy as np

from .. import quad
from ..errors import DegenerateExpansion, DivergenceWarning, DomainError
from .params import TwoIndexParams


def twoindex_spectral(q: TwoIndexParams, k, variant="Y"):
    """Spectral density; variant Y is the stationary form, variant X the
    nonstationary-construction form with its cos(alpha pi/2) cross term.
    """
    k = np.abs(np.asarray(k, dtype=float))
    lb = q.lam ** (2.0 * q.beta)
    if variant == "Y":
        base = k ** (2.0 * q.beta) + lb
    elif variant == "X":
        base = (k ** (2.0 * q.beta)
                + 2.0 * q.lam ** q.beta * k ** q.beta
                * math.cos(0.5 * q.alpha * math.pi) + lb)
    else:
        raise DomainError("variant must be 'X' or 'Y', got %r" % (variant,))
    out = base ** -q.alpha / (2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def twoindex_var(q: TwoIndexParams):
    """Gamma(1/(2 beta)) Gamma(alpha - 1/(2 beta)) / (2 pi beta
    Gamma(alpha)) * lambda^(1 - 2 alpha beta)."""
    inv2b = 0.5 / q.beta
    return (math.gamma(inv2b) * math.gamma(q.alpha - inv2b)
            / (2.0 * math.pi * q.beta * math.gamma(q.alpha))
            * q.lam ** (1.0 - 2.0 * q.alpha * q.beta))


def _cov_quadrature(q, tau, tol):
    g = lambda k: (k ** (2.0 * q.beta) + q.lam ** (2.0 * q.beta)) ** -q.alpha
    r = quad.fourier_cos_halfline(g, tau, tol=math.pi * tol,
                                  decay_p=2.0 * q.alpha * q.beta)
    return quad.QuadResult(r.value / math.pi,
                           r.abs_error_estimate / math.pi, r.subdivisions)


def twoindex_cov(q: TwoIndexParams, tau, tol=None):
    """Covariance by quadrature: (1/pi) int_0^inf (k^(2b) +
    lambda^(2b))^(-a) cos(k tau) dk.

    tol, when given, is the absolute tolerance on the covariance value;
    the default policy targets 1e-7 relative after a first pass scaled
    to the variance.  tau = 0 returns the closed-form variance.
    """
    tau = abs(float(tau))
    var = twoindex_var(q)
    if tau == 0.0:
        return quad.QuadResult(var, abs(var) * 1e-15, 0)
    if tol is not None:
        return _cov_quadrature(q, tau, float(tol))
    r = _cov_quadrature(q, tau, max(1e-13, 1e-9 * var))
    fine = max(1e-13, 1e-7 * abs(r.value))
    if fine < max(1e-13, 1e-9 * var):
        r = _cov_quadrature(q, tau, fine)
    return r


def twoindex_cov_tail_series(q: TwoIndexParams, tau, n_terms):
    """Large-lag expansion of the covariance, polynomial in 1/tau:

    sum_{j>=1} (-1)^(j+1) lambda^(-2 beta (alpha+j)) Gamma(alpha+j)
    Gamma(1+2 beta j) sin(beta j pi) / (pi Gamma(alpha) j!)
    tau^(-(2 beta j + 1))

    The series is asymptotic, not convergent: summation stops at the
    smallest term (with a DivergenceWarning) if the terms stop
    decreasing before n_terms.  Terms with beta*j integer vanish
    through the sine and are skipped in the size comparison.
    """
    if not 0.0 < q.beta < 1.0:
        raise DomainError("tail series needs 0 < beta < 1 strictly")
    tau = abs(float(tau))
    if q.lam * tau < 5.0:
        raise DomainError(
            "tail series needs lambda*tau >= 5, got %g" % (q.lam * tau))
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    log_lam, log_tau = math.log(q.lam), math.log(tau)
    lg_alpha = math.lgamma(q.alpha)
    total = 0.0
    last_size = math.inf
    for j in range(1, int(n_terms) + 1):
        s = math.sin(q.beta * j * math.pi)
        if s == 0.0:
            continue
        log_mag = (-2.0 * q.beta * (q.alpha + j) * log_lam
                   + math.lgamma(q.alpha + j) + math.lgamma(1.0 + 2.0 * q.beta * j)
                   + math.log(abs(s)) - math.log(math.pi) - lg_alpha
                   - math.lgamma(j + 1.0) - (2.0 * q.beta * j + 1.0) * log_tau)
        mag = math.exp(log_mag)
        if mag >= last_size:
            warnings.warn(
                "tail series terms stopped decreasing at j=%d; "
                "truncated at the smallest term" % j, DivergenceWarning)
            break
        sign = 1.0 if (j % 2 == 1) == (s > 0.0) else -1.0
        total += sign * mag
        last_size = mag
    return total


def twoindex_smalltime_incvar(q: TwoIndexParams, t=0.0):
    """Small-time law of the increment variance: var(Y(t+dt) - Y(t)) ~
    leading_coeff * |dt|^exponent with exponent = 2 alpha beta - 1 and

        leading_coeff = (4/pi) int_0^inf k^(-2 alpha beta) sin^2(k/2) dk

    The coefficient depends only on the product alpha*beta and carries
    no lambda: tempering is invisible at vanishing scales.
    """
    q.require_asymptotic_range()
    ab = q.alpha * q.beta
    if abs(ab - 1.0) < 1e-12:
        raise DegenerateExpansion(
            "small-time law degenerates at alpha*beta = 1; use the exact "
            "increment variance")
    c = 4.0 / math.pi * quad.power_sin2_halfline(2.0 * ab).value
    return c, 2.0 * ab - 1.0


def twoindex_increment_var(q: TwoIndexParams, t):
    """Exact increment variance 2 (C(0) - C(t)) at tight tolerance."""
    var = twoindex_var(q)
    cov = twoindex_cov(q, t, tol=max(1e-13, 1e-10 * var))
    return 2.0 * (var - cov.value)
