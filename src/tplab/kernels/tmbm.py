"""Tempered multifractional Brownian motion: the reduced process with a
deterministic time-varying index alpha(t).

Pairwise structure is governed by the averaged index (alpha(t) +
alpha(s))/2: the covariance is D(t) + D(s) - D(t-s), the structure
function D of the reduced process at that index, formed by one pair
kernel for tmbm_cov (the variance is tmbm_cov(h, lam, t, t)) and for
tmbm_gram.  It reduces exactly to the constant-index process when the
profile is flat and pins the process to 0 at t=0.

The underlying moving-average stationary pair has two independent
closed forms, one through Kummer U and one through Whittaker W; their
agreement is a genuine numerical identity since the two evaluations
follow different special-function pipelines.
"""

import math

import numpy as np

from .. import specfun
from ..errors import DomainError
from . import fou, tfgn
from .params import HurstProfile


def tmbm_mou_cov(h: HurstProfile, lam, t, s, route="kummer"):
    """Cross-covariance of the stationary moving-average pair at
    unequal times, by either special-function route.

    kummer:    e^(-lam d) d^(2 a_plus - 1) U(a_lo, 2 a_plus, 2 lam d)
               / Gamma(a_hi), the noise block tfgn_cross_cov(a_hi, a_lo)
    whittaker: d^(a_plus - 1) / (Gamma(a_hi) (2 lam)^a_plus)
               * W_{a_minus, 1/2 - a_plus}(2 lam d)

    with d = |t - s| > 0, a_hi, a_lo the indices at the later/earlier
    time, a_plus their mean and a_minus their half-difference.  The
    wrapper symmetrizes, so argument order does not matter.  t and s
    broadcast; arrays give an array from one special-function call.
    """
    if not lam > 0.0:
        raise DomainError("lambda must be positive, got %g" % lam)
    if route not in ("kummer", "whittaker"):
        raise DomainError("route must be 'kummer' or 'whittaker', got %r"
                          % (route,))
    shape, (t, s) = specfun.flat_args(t, s)
    specfun.require("tmbm_mou_cov", "t", t)
    specfun.require("tmbm_mou_cov", "s", s)
    if (t == s).any():
        raise DomainError(
            "equal-time displays are singular; use the variance route")
    hi, lo = np.maximum(t, s), np.minimum(t, s)
    a_hi, a_lo = specfun.each(h.alpha, hi), specfun.each(h.alpha, lo)
    d = hi - lo
    if route == "kummer":
        return specfun.shaped(shape, tfgn.tfgn_cross_cov(a_hi, a_lo, lam, d))
    a_plus = 0.5 * (a_hi + a_lo)
    w = specfun.whittaker_w(0.5 * (a_hi - a_lo), 0.5 - a_plus,
                            2.0 * lam * d).value
    pre = specfun.each(lambda x, ap, ah: x ** (ap - 1.0) / (
        math.gamma(ah) * (2.0 * lam) ** ap), d, a_plus, a_hi)
    return specfun.shaped(shape, pre * w)


def _pair_cov(lam, a_t, a_s, t, s):
    """(D(t) + D(s)) - D(t - s) at the averaged index (a_t + a_s)/2, in
    one D call over the stacked pairs (arrays of one shape)."""
    d_lag, d_t, d_s = fou.structure_alpha_grid(
        0.5 * (a_t + a_s), lam, np.stack((t - s, t, s)))
    return (d_t + d_s) - d_lag


def tmbm_cov(h: HurstProfile, lam, t, s):
    """The pair kernel over t and s broadcast, alpha evaluated once per
    element of each; 0 when t or s is 0, and scalars give a float."""
    if not 0.0 < lam < math.inf:
        raise DomainError("lambda must be finite > 0, got %g" % lam)
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    a_t, a_s = (specfun.each(h.alpha, u.ravel()).reshape(u.shape)
                for u in (t, s))
    out = _pair_cov(lam, *np.broadcast_arrays(a_t, a_s, t, s))
    return float(out) if out.ndim == 0 else out


def _pair_block(n):
    """Index pairs per D call in an n-point tmbm_gram.  D holds up to
    about 1.5 kB a pair while it works (on its Bessel route), so n^2/1024
    pairs keep that under a fifth of the Gram's 8 n^2 bytes; at least
    1024 pairs amortize its per-call cost."""
    return max(1024, n * n // 1024)


def tmbm_gram(h: HurstProfile, lam, times):
    """Dense covariance matrix over a time grid.

    Every D term varies with the pair (i,j) through the averaged index,
    which is exactly symmetric, as is |t_i - t_j|.  The upper triangle's
    pairs go in blocks of at most _pair_block(n), one D call each, over the
    lag, t_i and t_j at the pair's index; (D(t_i) + D(t_j)) - D(t_i - t_j)
    fills both (i,j) and (j,i).  So the matrix is bitwise symmetric, and
    a row and column at the origin are D(t_j) - D(t_j) = 0.  Each D value
    depends on its own arguments only, so the blocks do not change bits."""
    times = np.asarray(times, dtype=float)
    al = h.spot_check(times)
    n = len(times)
    # pair k of the row-major upper triangle is (i, i + k - first[i]),
    # made a block at a time: no n^2 index arrays
    r = np.arange(n)
    first = r * n - r * (r - 1) // 2
    pairs, block = n * (n + 1) // 2, _pair_block(n)
    out = np.empty((n, n))
    for lo in range(0, pairs, block):
        k = np.arange(lo, min(lo + block, pairs))
        i = np.searchsorted(first, k, side="right") - 1
        j = i + (k - first[i])
        out[i, j] = out[j, i] = _pair_cov(lam, al[i], al[j], times[i],
                                          times[j])
    return out
