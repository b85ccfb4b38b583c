"""Two-index family: Riesz-type spectral kernels with separate
smoothness (alpha) and spatial (beta) indices.

The stationary Y-form spectral density is

    S(k) = (1/2 pi) (|k|^(2 beta) + lambda^(2 beta))^(-alpha)

whose covariance has no closed form for beta < 1; twoindex_cov takes it
as a Laplace integral on the imaginary axis.  The beta = 1 slice
collapses to the single-index family exactly.
"""

import math
import warnings

import numpy as np

from .. import quad, specfun
from ..errors import DivergenceWarning, DomainError, NonConvergence
from . import fou
from .params import FracOUParams, TwoIndexParams

# lags per quadrature batch: a lag's panels take about 14 kB until its
# batch ends, and blocks this size run as fast as one whole batch
_LAG_BLOCK = 64


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


def twoindex_cov(q: TwoIndexParams, tau, tol=None):
    """Covariance (1/pi) int_0^inf (k^(2b) + lambda^(2b))^(-a) cos(k tau)
    dk, a Laplace integral on k = i u; with v = u tau and c = lambda tau

        C(tau) = -lambda^(1 - 2ab) / (pi c) Im int_0^inf h(v/c) e^(-v) dv,
        h(x) = (1 + x^(2b) e^(i pi b))^(-a).

    As b -> 1 the base of h nearly vanishes at v = c (the fOU branch
    point at b = 1), so the contour dips below the real axis, where h is
    analytic, on a parabola of depth rho = min(c/2, 1) (e^(-v) stays
    within e of e^(-c)); past c + rho it runs on log v.

    tol, when given, is the absolute tolerance on C; without it the
    error budget is 1e-7 |C|.  The estimate is never below float64's
    rounding floor; a tol below it raises NonConvergence with the
    partial result.  tau = 0 gives the closed-form variance.

    tau may be an array: the result then holds arrays of its shape, and
    the lags' integrals run through quad.integrate_batch in blocks of
    _LAG_BLOCK, each as it would alone; the first lag that fails raises.
    """
    shape, (tau,) = specfun.flat_args(tau)
    tau = np.abs(tau)
    specfun.require("twoindex_cov", "tau", tau)
    out = [None] * tau.size
    lags = np.flatnonzero(tau)
    if lags.size < tau.size:
        var = twoindex_var(q)
        out = [quad.QuadResult(var, abs(var) * 1e-15, 0)] * tau.size
    c = q.lam * tau[lags]
    if (c < 1e-300).any():
        raise DomainError("lambda*|tau| must be 0 or >= 1e-300, got %g"
                          % c[c < 1e-300][0])
    rho = np.minimum(0.5 * c, 1.0)
    lo, hi = c - rho, c + rho
    scale = -q.lam ** (1.0 - 2.0 * q.alpha * q.beta) / (math.pi * c)
    # e^(i pi b) from the exact 1 - b: Im stays accurate as b -> 1, +0 at 1
    d = math.pi * (1.0 - q.beta)
    rot = complex(-math.cos(d), math.sin(d))

    a, two_b = q.alpha, 2.0 * q.beta

    def axis(v, k):
        return scale[k] * (((1.0 + (v / c[k]) ** two_b * rot) ** -a).imag
                           * np.exp(-v))

    def dip(s, k):
        t = (s - c[k]) / rho[k]
        v = s - 1j * (rho[k] * (1.0 - t * t))
        dv = 1.0 + 2j * t
        return scale[k] * ((1.0 + (v / c[k]) ** two_b * rot) ** -a
                           * np.exp(-v) * dv).imag

    def log_axis(s, k):
        # v = hi e^(s - hi) > c, h in a form that cannot overflow
        v = hi[k] * np.exp(s - hi[k])
        y = (v / c[k]) ** -two_b
        return scale[k] * v * np.exp(-v) * (y ** a * (y + rot) ** -a).imag

    def f(s, k):
        out = np.empty_like(s)
        for sel, segment in ((s < lo[k], axis),
                             ((s >= lo[k]) & (s < hi[k]), dip),
                             (s >= hi[k], log_axis)):
            if sel.any():
                out[sel] = segment(s[sel], k[sel])
        return out

    # e^(-v) is 0 in float64 past v = 746, so the contour ends there; a
    # panel per doubling of log v keeps each rule pair from reading zeros
    points, ends = [], []
    for lo_k, hi_k in zip(lo.tolist(), hi.tolist()):
        t_end = math.log(max(746.0 / hi_k, 1.0))
        cuts = [hi_k + 2.0 ** k for k in range(-1, 10) if 2.0 ** k < t_end]
        points.append([lo_k, hi_k, *cuts] if lo_k < 746 else [])
        ends.append(hi_k + t_end if lo_k < 746 else 746.0)
    abs_tol, rel_tol = (0.0, 1e-7) if tol is None else (tol, 0.0)
    for at in range(0, lags.size, _LAG_BLOCK):
        blk = slice(at, at + _LAG_BLOCK)
        for i, r in zip(lags[blk], quad.integrate_batch(
                lambda s, k: f(s, k + at), 0.0, ends[blk], abs_tol,
                points[blk], rel_tol)):
            if isinstance(r, NonConvergence):
                raise r
            out[i] = r
    return out[0] if not shape else quad.QuadResult(*(
        np.reshape(v, shape) for v in zip(*(vars(r).values() for r in out))))


def twoindex_cov_tail_series(q: TwoIndexParams, tau, n_terms):
    """Large-lag expansion of the covariance, polynomial in 1/tau:

    sum_{j>=1} (-1)^(j+1) lambda^(-2 beta (alpha+j)) Gamma(alpha+j)
    Gamma(1+2 beta j) sin(beta j pi) / (pi Gamma(alpha) j!)
    tau^(-(2 beta j + 1))

    This is Watson's lemma on twoindex_cov's rotated integral, with
    sin(beta j pi) = Im e^(i pi beta j).

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
                      = -1 / (Gamma(2 alpha beta) cos(alpha beta pi))

    At large k the density is the fou density of index alpha*beta, so
    the coefficient is -2 times fou_local_expansion's power coefficient
    there (the increment variance is 2 (C(0) - C(dt))).  It depends only
    on the product alpha*beta and carries no lambda: tempering is
    invisible at vanishing scales.  At alpha*beta = 1 it is 1, the
    Brownian law.
    """
    q.require_asymptotic_range()
    ab = q.alpha * q.beta
    _, coeff = fou.fou_local_expansion(FracOUParams(ab, q.lam))
    return -2.0 * coeff, 2.0 * ab - 1.0


def twoindex_increment_var(q: TwoIndexParams, t):
    """Exact increment variance 2 (C(0) - C(t)) at tight tolerance."""
    var = twoindex_var(q)
    cov = twoindex_cov(q, t, tol=max(1e-13, 1e-10 * var))
    return 2.0 * (var - cov.value)
