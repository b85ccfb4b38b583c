"""Tempered fractional Brownian motion as the reduced stationary
process: B(t) = X(t) - X(0) for X with the fou kernel, so

    C(t,s) = D(t) + D(s) - D(t-s),   D(tau) = sigma^2 - C_fou(tau)

with D the structure function (fou.structure_alpha_grid), the route of
every reduced law here.  The lag-dependent coefficient decomposition

    C(t,s) = (c_t |t|^(2H) + c_s |s|^(2H) - c_(t-s) |t-s|^(2H)) / 2

is the identities suite's independent side, through ct_from_besselk;
tfbm_cov_from_ct, with its removable singularity at 0, serves tests.
"""

import math

import numpy as np

from .. import specfun
from ..errors import DomainError
from . import fou
from .params import FracOUParams


def _stacked(fn, *args):
    """fn over the arrays args raveled into one, split back into their
    own shapes: one Bessel batch, each argument at its own size."""
    flat = fn(np.concatenate([a.ravel() for a in args]))
    ends = np.cumsum([a.size for a in args])[:-1]
    return [v.reshape(a.shape) for v, a in zip(np.split(flat, ends), args)]


def tfbm_cov(p: FracOUParams, t, s):
    """D(t) + D(s) - D(t-s): 0 whenever t or s is 0, bitwise symmetric.
    Broadcasts over arrays of t and s; scalars give a float."""
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    d_t, d_s, d_lag = _stacked(
        lambda u: fou.structure_alpha_grid(p.alpha, p.lam, u), t, s, t - s)
    out = (d_t + d_s) - d_lag
    return float(out) if out.ndim == 0 else out


def tfbm_var(p: FracOUParams, t):
    """Variance 2 D(t); 0 at t=0, to 2 sigma^2 at infinity, crossing
    sigma^2 where C_fou(t) = sigma^2/2.  Broadcasts like tfbm_cov."""
    out = 2.0 * fou.structure_alpha_grid(p.alpha, p.lam, t)
    return float(out) if out.ndim == 0 else out


def tfbm_ct_coefficient(p: FracOUParams, t):
    """Coefficient c_t with c_t |t|^(2H) equal to the variance at t:

    c_t = 2 Gamma(2H) / (Gamma(H+1/2)^2 (2 lambda |t|)^(2H))
          - (2/(sqrt(pi) Gamma(H+1/2))) (2 lambda |t|)^(-H) K_H(lambda |t|)

    As lambda|t| -> 0 this tends to Gamma(1-2H) cos(H pi) / (H pi), the
    untempered self-similarity constant; as lambda|t| -> infinity the
    Bessel term dies and c_t |t|^(2H) -> 2 sigma^2.  Broadcasts over an
    array of t; a scalar gives a float.  The two terms cancel as
    lambda|t| -> 0, so 0 < lambda|t| < 1e-6 is a DomainError.
    """
    p.require_hurst_in_unit()
    t = np.abs(np.asarray(t, dtype=float))
    if (t == 0.0).any():
        raise DomainError("c_t is undefined at t = 0")
    # lead and tail are both about (lambda t)^-2H against c_t = O(1), so
    # lead - tail keeps about eps (lambda t)^-2H of relative accuracy.
    # This route stays off D: it is the independent side of the
    # ct-decomposition identity
    if (p.lam * t < 1e-6).any():
        raise DomainError(
            "c_t needs lambda*|t| >= 1e-06 (its two terms cancel below "
            "it), got %g" % np.min(p.lam * t))
    out = ct_from_besselk(p, t, specfun.besselk_grid(p.hurst, p.lam * t))
    return float(out) if out.ndim == 0 else out


def ct_from_besselk(p: FracOUParams, t, bes):
    """c_t at the lags |t| from bes = K_H(lambda |t|): the arithmetic of
    tfbm_ct_coefficient after its Bessel call, for a caller that takes
    the Bessel values of several parameter sets in one batch.  The lags
    must be in tfbm_ct_coefficient's domain; they are not checked here.
    """
    h = p.hurst
    x = 2.0 * p.lam * np.abs(t)
    # np.power, not **: a numpy scalar's ** is libm's pow, which can
    # differ in the last bit from the array loop
    lead = (2.0 * math.gamma(2.0 * h)
            / (math.gamma(h + 0.5) ** 2 * np.power(x, 2.0 * h)))
    tail = (2.0 / (math.sqrt(math.pi) * math.gamma(h + 0.5))
            * np.power(x, -h) * bes)
    return lead - tail


def tfbm_cov_from_ct(p: FracOUParams, t, s):
    """Secondary covariance route through the c_t decomposition;
    broadcasts like tfbm_cov."""
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)

    def piece(u):
        out = np.zeros(u.shape)
        live = u != 0.0
        u = u[live]
        out[live] = tfbm_ct_coefficient(p, u) * np.abs(u) ** (2.0 * p.hurst)
        return out

    c_t, c_s, c_lag = _stacked(piece, t, s, t - s)
    out = 0.5 * (c_t + c_s - c_lag)
    return float(out) if out.ndim == 0 else out


def tfbm_increment_cov(p: FracOUParams, lag_tau, t_minus_s):
    """Covariance of increments over lag tau at separation d = t-s:

    D(d + tau) + D(d - tau) - 2 D(d)

    Depends on (t,s) only through d; even in d; at d=0 equals the
    increment variance 2 D(tau).  Broadcasts like tfbm_cov.
    """
    tau, d = np.broadcast_arrays(lag_tau, t_minus_s)
    d_plus, d_minus, d_mid = _stacked(
        lambda u: fou.structure_alpha_grid(p.alpha, p.lam, u),
        d + tau, d - tau, d)
    out = (d_plus + d_minus) - 2.0 * d_mid
    return float(out) if out.ndim == 0 else out


def tfbm_increment_spectral(p: FracOUParams, lag_tau, k):
    """Spectral density of the lag-tau increment process:

    (2 - 2 cos(k tau)) (k^2 + lambda^2)^(-alpha) / (2 pi) >= 0
    """
    k = np.asarray(k, dtype=float)
    out = (2.0 - 2.0 * np.cos(k * lag_tau)) * fou.fou_spectral(p, k)
    return float(out) if out.ndim == 0 else out


def tfbm_lrd_plateau(p: FracOUParams, t):
    """Long-lag limit of the correlation corr(B(t), B(t+tau)), tau ->
    infinity, at fixed t:

        (1/2) sqrt(var(t) / (2 sigma^2))  in (0, 1/2)

    Nonzero for every t > 0, which is the long-memory signature of the
    reduced process; tends to 1/2 as t -> infinity.
    """
    if not t > 0.0:
        raise DomainError("plateau needs t > 0, got %g" % t)
    return 0.5 * math.sqrt(tfbm_var(p, t) / (2.0 * fou.fou_var(p)))


def ms_normalization_factor(p: FracOUParams):
    """Multiplier Gamma(H + 1/2)^2 converting this kernel family to the
    moving-average normalization common elsewhere in the literature.

    Provided as a documented constant; never applied silently.
    """
    return math.gamma(p.alpha) ** 2


def tfbm_gram(p: FracOUParams, times):
    """Dense covariance matrix over a time grid, as tfbm_cov does it."""
    times = np.asarray(times, dtype=float)
    return tfbm_cov(p, times[:, None], times[None, :])
