"""Tempered multifractional Brownian motion: the reduced process with a
deterministic time-varying index alpha(t).

Pairwise structure is governed by the averaged index alpha_plus(s,t) =
(alpha(t)+alpha(s))/2: the covariance is the four-term stationary
combination with every term evaluated at alpha_plus(s,t), which reduces
exactly to the constant-index process when the profile is flat and
pins the process to 0 at t=0.

The underlying moving-average stationary pair has two independent
closed forms, one through Kummer U and one through Whittaker W; their
agreement is a genuine numerical identity since the two evaluations
follow different special-function pipelines.
"""

import math

import numpy as np

from .. import specfun
from ..errors import DomainError
from . import fou, tfbm, tfgn
from .params import FracOUParams, HurstProfile


def tmbm_mou_cov(h: HurstProfile, lam, t, s, route="kummer"):
    """Cross-covariance of the stationary moving-average pair at
    unequal times, by either special-function route.

    kummer:    e^(-lam d) d^(2 a_plus - 1) U(a_lo, 2 a_plus, 2 lam d)
               / Gamma(a_hi), the noise block tfgn_cross_cov(a_hi, a_lo)
    whittaker: d^(a_plus - 1) / (Gamma(a_hi) (2 lam)^a_plus)
               * W_{a_minus, 1/2 - a_plus}(2 lam d)

    with d = |t - s| > 0, a_hi, a_lo the indices at the later/earlier
    time, a_plus their mean and a_minus their half-difference.  The
    wrapper symmetrizes, so argument order does not matter.
    """
    if not lam > 0.0:
        raise DomainError("lambda must be positive, got %g" % lam)
    if t == s:
        raise DomainError(
            "equal-time displays are singular; use the variance route")
    hi, lo = (t, s) if t > s else (s, t)
    a_hi, a_lo = h.alpha(hi), h.alpha(lo)
    d = hi - lo
    if route == "kummer":
        return tfgn.tfgn_cross_cov(a_hi, a_lo, lam, d)
    if route == "whittaker":
        a_plus = 0.5 * (a_hi + a_lo)
        w = specfun.whittaker_w(0.5 * (a_hi - a_lo), 0.5 - a_plus,
                                2.0 * lam * d).value
        return (d ** (a_plus - 1.0)
                / (math.gamma(a_hi) * (2.0 * lam) ** a_plus) * w)
    raise DomainError("route must be 'kummer' or 'whittaker', got %r"
                      % (route,))


def tmbm_cov(h: HurstProfile, lam, t, s):
    """Four-term combination at the averaged index alpha_plus(s,t)."""
    return tfbm.tfbm_cov(FracOUParams(h.alpha_plus(t, s), lam), t, s)


def tmbm_var(h: HurstProfile, lam, t):
    """Variance at the local index alpha(t); 0 at t = 0."""
    return tfbm.tfbm_var(FracOUParams(h.alpha(t), lam), t)


def tmbm_gram(h: HurstProfile, lam, times):
    """Dense covariance matrix over a time grid.

    All four stationary-kernel terms vary with the pair (i,j) through
    the averaged index, which is exactly symmetric, as is |t_i - t_j|:
    the lag term is evaluated on the upper triangle and mirrored, the
    C(t_j) term is the transpose of the C(t_i) term, and the matrix is
    bitwise symmetric.  Each sum pairs equal operands at t_i = 0 (the
    lag term with C(t_j), the variance with C(0)), so a row and column
    at the origin are exactly 0."""
    times = np.asarray(times, dtype=float)
    h.spot_check(times)
    al = np.array([h.alpha(t) for t in times])
    a_plus = 0.5 * (al[:, None] + al[None, :])
    iu, ju = np.triu_indices(len(times))
    fou.require_reduced_lags(lam, np.diff(np.sort(times)), times)
    c_lag = np.empty(a_plus.shape)
    c_lag[iu, ju] = fou.cov_alpha_grid(a_plus[iu, ju], lam,
                                       times[iu] - times[ju])
    c_lag[ju, iu] = c_lag[iu, ju]
    c_ti = fou.cov_alpha_grid(a_plus, lam, np.broadcast_to(
        times[:, None], a_plus.shape))
    v = fou.var_alpha_grid(a_plus, lam)
    return (c_lag + v) - (c_ti + c_ti.T)
