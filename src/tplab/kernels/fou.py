"""Stationary kernel of the tempered fractional Ornstein-Uhlenbeck
family.

    C(tau)  = (1/(sqrt(pi) Gamma(alpha))) (|tau|/(2 lambda))^(alpha-1/2)
              K_(alpha-1/2)(lambda |tau|)
    sigma^2 = Gamma(2 alpha - 1) / (Gamma(alpha)^2 (2 lambda)^(2 alpha - 1))
    S(k)    = (1/2 pi) (k^2 + lambda^2)^(-alpha)

C is even, strictly decreasing in |tau|, and continuous at 0 where it
equals sigma^2.  At alpha = 1 it collapses to the classical OU kernel
e^(-lambda |tau|)/(2 lambda).

The structure function D(tau) = sigma^2 - C(tau), the law of every
reduced process, is computed without that subtraction at small lags:
with nu = alpha - 1/2 and x = lambda |tau|,

    D = lambda^(-2 nu) / (sqrt(pi) Gamma(alpha)) G_nu(x),
    G_nu(x) = Gamma(nu)/2 - (x/2)^nu K_nu(x),

and G_nu is a power series in (x/2)^2 whose constant term cancels.
"""

import math

import numpy as np

from .. import specfun
from ..errors import DomainError
from .params import FracOUParams

# lambda*|tau| beyond which K underflows double precision entirely;
# the kernel is exactly 0 at that resolution
_X_UNDERFLOW = 700.0


def _gammas(a):  # math.gamma of each element, in a's shape
    try:
        return np.fromiter(map(math.gamma, a.ravel().tolist()), float,
                           a.size).reshape(a.shape)
    except OverflowError:
        raise DomainError("alpha is too large: Gamma(%g) overflows" % a.max())


def _finite(out, what, alpha, lam):
    """out, or a DomainError naming alpha and lambda at a NaN or inf."""
    bad = ~np.isfinite(out)
    if bad.any():
        alpha, lam = (np.broadcast_to(v, bad.shape)[bad][0]
                      for v in (alpha, lam))
        raise DomainError("%s is not finite in double precision at "
                          "alpha=%g, lambda=%g" % (what, alpha, lam))
    return out


def _power(base, exponent):
    """base ** exponent elementwise through the general pow loop: for a
    broadcast exponent of -1, 1/2 or 2, numpy's loop takes a reciprocal,
    sqrt or square instead, whose last bit can differ, so a scalar alpha
    would not get an array alpha's bits.  The exponent is laid out at
    the result's shape."""
    shape = np.broadcast_shapes(np.shape(base), np.shape(exponent))
    exponent = np.array(np.broadcast_to(exponent, shape), ndmin=1)
    return np.power(base, exponent).reshape(shape)


def _sigma2(alpha, lam, gam):  # gam is Gamma(alpha)
    a2 = 2.0 * alpha - 1.0
    # an underflowed or overflowed power is left to the caller's _finite
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _gammas(a2) / (gam ** 2 * _power(2.0 * lam, a2))


def var_alpha_grid(alpha, lam):
    """sigma^2 with elementwise alpha and lambda (broadcast); a sigma^2
    that double precision cannot hold is a DomainError."""
    alpha = np.asarray(alpha, dtype=float)
    return _finite(_sigma2(alpha, lam, _gammas(alpha)), "the variance",
                   alpha, lam)


def require_bessel_lags(alpha, lam, tau):
    """DomainError, naming alpha, lambda and the lag, at a positive lag
    tau whose lambda |tau| is below Bessel K's box, 0 where it underflows
    (arguments broadcast)."""
    alpha, lam, tau = np.broadcast_arrays(alpha, lam, np.abs(tau))
    lost = (lam * tau < specfun.BESSEL_X_MIN) & (tau > 0.0)
    if lost.any():
        a, l, t = (v[lost][0] for v in (alpha, lam, tau))
        raise DomainError(
            "the covariance needs lambda*|tau| >= %g at a positive lag, got "
            "%g at alpha=%g, lambda=%g, tau=%g"
            % (specfun.BESSEL_X_MIN, l * t, a, l, t))


def cov_alpha_grid(alpha, lam, tau):
    """C(tau) with elementwise alpha, lambda and tau (broadcast): sigma^2
    at tau = 0, sigma^2 - D below Bessel K's box (refused at alpha <= 1/2,
    require_bessel_lags), 0 where K underflows, a non-finite lag or C
    refused, and Gamma once per element of alpha at its own shape."""
    alpha = np.asarray(alpha, dtype=float)
    lam = np.asarray(lam, dtype=float)
    tau = np.abs(np.asarray(tau, dtype=float))
    if not np.isfinite(tau).all():
        raise DomainError("covariance lags must be finite")
    gam = _gammas(alpha)
    alpha_b, lam_b, tau_b, gam_b = np.broadcast_arrays(alpha, lam, tau, gam)
    at_zero = tau_b == 0.0
    out = np.zeros(at_zero.shape)
    if at_zero.any():
        out[at_zero] = _sigma2(alpha_b[at_zero], lam_b[at_zero],
                               gam_b[at_zero])
    live = ~at_zero & (lam_b * tau_b <= _X_UNDERFLOW)
    low = live & (lam_b * tau_b < specfun.BESSEL_X_MIN) & (alpha_b > 0.5)
    if low.any():
        a, lm, t = alpha_b[low], lam_b[low], tau_b[low]
        out[low] = _sigma2(a, lm, gam_b[low]) - structure_alpha_grid(a, lm, t)
        live &= ~low
    require_bessel_lags(*(v[live] for v in (alpha_b, lam_b, tau_b)))
    if live.any():
        # a shared lambda stays a scalar: no array of it beside the lags
        lam_l = lam if lam.ndim == 0 else lam_b[live]
        tau_l = tau_b[live]
        nu = alpha_b[live] - 0.5
        bes = specfun.besselk_grid(nu, lam_l * tau_l)
        # a power, not exp(nu log(.)): the exponential would amplify the
        # rounding of its argument, nu |log(tau / 2 lambda)| ulps
        out[live] = (_power(tau_l / (2.0 * lam_l), nu) * bes
                     / (math.sqrt(math.pi) * gam_b[live]))
    return _finite(out, "the covariance", alpha, lam)


# D's routes, with x = lambda |tau| and nu = alpha - 1/2 = n + mu,
# n = round(nu), chosen by measurement against 30- to 50-digit mpmath
# over nu in (0, 5] and x in [1e-12, 2.5].  Beyond _X_SMALL, sigma^2 -
# C(tau) is within a few ulps of sigma^2 and D is a fixed fraction of
# it; at or below it D's small-lag forms cancel sigma^2 analytically.
_X_SMALL = 2.0
# For nu >= 1/2 the series cancels through 1/sin(nu pi): at every x
# within _MU_TEMME of an integer, and above _X_SERIES in a band around
# each integer that widens with x.  Temme's form takes those cells.
_X_SERIES = 0.5
_MU_TEMME = 0.02
# Carried up from mu < 0, Temme's form amplifies rounding by about
# (2/x)^(2 |mu|): the series takes a cell with |mu| ln(2/x) above this.
_TEMME_LOG = 0.5
# The series needs terms k <= _SERIES_TERMS up to y = (x/2)^2 = 1 and
# k <= _SERIES_LO up to y = _SERIES_Y_LO: the first omitted term is
# below 2^-56 of the sum for every nu in (0, 5].  Each cell sums the low
# terms, and past _SERIES_Y_LO adds the high ones, by its own y alone.
_SERIES_TERMS = 15
_SERIES_LO, _SERIES_Y_LO = 12, 0.43


def _series(nu, n, mu, rg, lam, tau, y):
    """D at lambda |tau| <= _X_SMALL, sigma^2 cancelled analytically
    (DLMF 10.27.4 with 10.25.2):

        D = sqrt(pi) / (2 Gamma(alpha) sin(nu pi))
            [(tau/2)^(2 nu) sum_k a_k y^k
             - lambda^(2 - 2 nu) (tau/2)^2 sum_(k>=1) b_k y^(k-1)]

    with y = (lambda tau / 2)^2, a_k = 1/(k! Gamma(k+1+nu)) and b_k =
    1/(k! Gamma(k+1-nu)); rg holds 1/Gamma of alpha, nu + 1 and 1 - mu.
    The coefficients are formed once at nu's shape and broadcast against
    the lags, whose cells sum both series in one Horner pass.  0 at tau
    = 0."""
    sin_nu = np.sin(np.pi * mu) * (1.0 - 2.0 * np.mod(n, 2.0))
    # an integer nu takes Temme's form at every nonzero lag
    pref = (0.5 * math.sqrt(math.pi) * rg[0]
            / np.where(sin_nu == 0.0, np.inf, sin_nu))
    # coef[k] holds (a_k, b_(k+1)), b's top entry 0, for one Horner pass
    # over both sums.  b_k climbs to its value at k = n, 1/(n!
    # Gamma(1-mu)), by dividing by k, then by k (k - nu) as 1/Gamma(w+1)
    # = 1/(w Gamma(w)); below n it descends by the inverse step.  No step
    # divides by 0, and an integer nu gives exact zeros below n
    coef = np.zeros((_SERIES_TERMS + 1, 2) + nu.shape)
    a, b = coef[:, 0], coef[:, 1]
    a[0] = pref * _power(0.5, 2.0 * nu) * rg[1]
    b[0] = pref * rg[2]                   # n! b_n
    n_max = int(n.max(initial=0.0))
    for k in range(1, _SERIES_TERMS + 1):
        np.divide(a[k - 1], k * (k + nu), out=a[k:k + 1])
        up = k - nu if k > n_max else np.where(k > n, k - nu, 1.0)
        np.divide(b[k - 1], k * up, out=b[k:k + 1])
    for k in range(n_max - 1, 0, -1):
        b[k] = np.where(k < n, b[k + 1] * ((k + 1) * (k + 1 - nu)), b[k])
    b[:-1] = b[1:].copy()
    b[-1] = 0.0
    shape = np.broadcast_shapes(y.shape, nu.shape)
    coef = coef.reshape(coef.shape[:2] + (1,) * (len(shape) - nu.ndim)
                        + nu.shape)
    s = np.zeros((2,) + shape)
    for c in coef[_SERIES_LO::-1]:
        s *= y
        s += c
    high = np.broadcast_to(y > _SERIES_Y_LO, shape)
    if high.any():
        y_h = np.broadcast_to(y, shape)[high]
        top = 0.0
        for c in coef[:_SERIES_LO:-1]:
            top = top * y_h + np.broadcast_to(c, s.shape)[:, high]
        s[:, high] += np.power(y_h, _SERIES_LO + 1.0) * top
    w = 0.5 * _power(lam, 1.0 - nu) * tau
    return _power(tau, 2.0 * nu) * s[0] - w * w * s[1]


def structure_alpha_grid(alpha, lam, tau):
    """Structure function D(tau) = sigma^2 - C(tau), elementwise alpha,
    lambda and tau (broadcast): Var B(t) = 2 D(t) and cov(B(t), B(s))
    = D(t) + D(s) - D(t-s).  Even, exactly 0 at tau = 0.

    With x = lambda |tau| and nu = alpha - 1/2: at x <= _X_SMALL, the
    series (_series) or, near an integer nu >= 1/2 and where the series
    cancels, Temme's form lambda^(-2 nu) G_nu(x) / (sqrt(pi) Gamma(alpha))
    (specfun.besselk_deficit).  Neither subtracts, so D keeps its
    relative accuracy down to the smallest positive lag.  Beyond, D =
    sigma^2 - C(tau), sigma^2 where K underflows.  A non-finite lag,
    alpha - 1/2 beyond the Bessel K box at tau > 0 and x <= 700, or a D
    that double precision cannot hold is a DomainError.
    """
    alpha = np.asarray(alpha, dtype=float)
    lam = np.asarray(lam, dtype=float)
    tau = np.abs(np.asarray(tau, dtype=float))
    if not np.isfinite(tau).all():
        raise DomainError("covariance lags must be finite")
    x = lam * tau
    # past the box the series serves only D(0) = 0, at alpha clipped to it
    boxed = np.minimum(alpha, specfun.BESSEL_NU_MAX + 0.5)
    bad = (boxed < alpha) & (tau > 0.0) & (x <= _X_UNDERFLOW)
    if bad.any():
        raise DomainError(
            "the structure function needs alpha - 1/2 <= %g, got alpha=%g"
            % (specfun.BESSEL_NU_MAX,
               np.broadcast_to(alpha, bad.shape)[bad][0]))
    nu = boxed - 0.5
    n = np.round(nu)
    mu = nu - n
    rg = specfun.rgamma(np.stack((boxed, nu + 1.0, 1.0 - mu)))
    small = x <= _X_SMALL
    tau_s = np.where(small, tau, 0.0)
    x_s = np.where(small, x, 0.0)
    out = np.asarray(_series(nu, n, mu, rg, lam, tau_s, 0.25 * x_s * x_s))
    # Temme's form where the series cancels, its recurrence is stable
    # (x >= lo: |mu| ln(2/x) <= _TEMME_LOG for mu < 0 and n >= 2), and
    # x/2 does not underflow
    lo = np.where(n >= 2.0, 2.0 * np.exp(-_TEMME_LOG
                                         / np.maximum(-mu, 1e-300)), 0.0)
    temme = ((0.5 * x_s > 0.0) & (n >= 1.0) & (x_s >= lo)
             & ((np.abs(mu) < _MU_TEMME) | (x_s > _X_SERIES)))
    if temme.any():
        nu_t, lam_t, x_t = (np.broadcast_to(v, temme.shape)[temme]
                            for v in (nu, lam, x))
        out[temme] = (_power(lam_t, -2.0 * nu_t) / math.sqrt(math.pi)
                      * np.broadcast_to(rg[0], temme.shape)[temme]
                      * specfun.besselk_deficit(nu_t, x_t))
    if not small.all():
        out = np.where(small, out, _sigma2(alpha, lam, _gammas(alpha))
                       - cov_alpha_grid(alpha, lam, tau - tau_s))
    # -0.0, from a negative prefactor at tau = 0 or an underflow, + 0.0
    # is +0.0; any other value is unchanged
    return _finite(out + 0.0, "the structure function", alpha, lam)


def fou_var(p: FracOUParams):
    """Stationary variance sigma^2."""
    return float(var_alpha_grid(p.alpha, p.lam))


def fou_cov(p: FracOUParams, tau):
    """Stationary covariance C(tau); C(0) = fou_var(p).  Broadcasts over
    an array of lags; a scalar lag gives a float."""
    out = cov_alpha_grid(p.alpha, p.lam, tau)
    return float(out) if out.ndim == 0 else out


def fou_spectral(p: FracOUParams, k):
    """Spectral density S(k) = (k^2 + lambda^2)^(-alpha) / (2 pi)."""
    k = np.asarray(k, dtype=float)
    out = (k * k + p.lam ** 2) ** -p.alpha / (2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def fou_local_expansion(p: FracOUParams):
    """Leading coefficients of C(tau) near tau = 0.

    C(tau) = sigma^2 + |tau|^(2 alpha - 1) / (2 Gamma(2 alpha)
    cos(alpha pi)) + O(tau^2); returns (constant_term,
    power_term_coeff).  The power coefficient is negative throughout
    1/2 < alpha < 3/2; at alpha = 1 it is -1/2, the OU expansion
    e^(-lambda |tau|)/(2 lambda) = 1/(2 lambda) - |tau|/2 + O(tau^2).
    """
    p.require_hurst_in_unit()
    coeff = 1.0 / (2.0 * math.gamma(2.0 * p.alpha)
                   * math.cos(p.alpha * math.pi))
    return fou_var(p), coeff
