"""Stationary kernel of the tempered fractional Ornstein-Uhlenbeck
family.

    C(tau)  = (1/(sqrt(pi) Gamma(alpha))) (|tau|/(2 lambda))^(alpha-1/2)
              K_(alpha-1/2)(lambda |tau|)
    sigma^2 = Gamma(2 alpha - 1) / (Gamma(alpha)^2 (2 lambda)^(2 alpha - 1))
    S(k)    = (1/2 pi) (k^2 + lambda^2)^(-alpha)

C is even, strictly decreasing in |tau|, and continuous at 0 where it
equals sigma^2.  At alpha = 1 it collapses to the classical OU kernel
e^(-lambda |tau|)/(2 lambda).
"""

import math

import numpy as np

from .. import specfun
from ..errors import DomainError
from .params import FracOUParams

# lambda*|tau| beyond which K underflows double precision entirely;
# the kernel is exactly 0 at that resolution
_X_UNDERFLOW = 700.0

# The reduced families subtract C(tau) from sigma^2 ~ lambda^-(2 alpha - 1),
# keeping about eps (lambda |tau|)^-(2 alpha - 1) relative accuracy, 1e-4 at
# worst at this floor; the kernel alone goes down to specfun.BESSEL_X_MIN.
REDUCED_X_MIN = 1e-6


def require_reduced_lags(lam, *taus):
    """DomainError unless lambda |tau| >= REDUCED_X_MIN at nonzero lags."""
    for tau in taus:
        x = lam * np.abs(tau)
        low = (x < REDUCED_X_MIN) & (x != 0.0)
        if low.any():
            raise DomainError(
                "reduced covariance needs lambda*|tau| >= %g at nonzero "
                "lags (sigma^2 - C(tau) cancels below it), got %g"
                % (REDUCED_X_MIN, np.min(np.where(low, x, np.inf))))


def _gamma_arr(a):
    """math.gamma elementwise, called once per distinct value (a single
    value skips the sort)."""
    a = np.asarray(a, dtype=float)
    if a.size == 1:
        return np.full(a.shape, math.gamma(a.item()))
    vals, inv = np.unique(a, return_inverse=True)
    out = np.array([math.gamma(v) for v in vals])
    return out[inv].reshape(a.shape)


def var_alpha_grid(alpha, lam):
    """sigma^2 over an array of alpha values, shared lambda."""
    alpha = np.asarray(alpha, dtype=float)
    return (_gamma_arr(2.0 * alpha - 1.0)
            / (_gamma_arr(alpha) ** 2 * (2.0 * lam) ** (2.0 * alpha - 1.0)))


def cov_alpha_grid(alpha, lam, tau):
    """C(tau) with elementwise alpha and tau (broadcast), shared lambda.

    The time-varying index families evaluate their Gram matrices through
    this path, so it handles tau = 0 cells (variance) and underflow
    cells (0) inline.  A NaN or infinite lag is a DomainError.
    """
    alpha_b, tau_b = np.broadcast_arrays(
        np.asarray(alpha, dtype=float), np.abs(np.asarray(tau, dtype=float)))
    if not np.isfinite(tau_b).all():
        raise DomainError("covariance lags must be finite")
    x = lam * tau_b
    out = np.zeros(alpha_b.shape)
    at_zero = tau_b == 0.0
    if at_zero.any():
        out[at_zero] = var_alpha_grid(alpha_b[at_zero], lam)
    live = ~at_zero & (x <= _X_UNDERFLOW)
    if live.any():
        nu = alpha_b[live] - 0.5
        bes = specfun.besselk_grid(nu, x[live])
        pref = np.exp(nu * np.log(tau_b[live] / (2.0 * lam))
                      - np.log(np.sqrt(np.pi) * _gamma_arr(alpha_b[live])))
        out[live] = pref * bes
    return out


def fou_var(p: FracOUParams):
    """Stationary variance sigma^2."""
    return (math.gamma(2.0 * p.alpha - 1.0)
            / (math.gamma(p.alpha) ** 2
               * (2.0 * p.lam) ** (2.0 * p.alpha - 1.0)))


def fou_cov(p: FracOUParams, tau):
    """Stationary covariance C(tau); C(0) = fou_var(p)."""
    return float(cov_alpha_grid(p.alpha, p.lam, tau))


def fou_cov_values(p: FracOUParams, taus):
    """Vectorized C over a lag array."""
    taus = np.asarray(taus, dtype=float)
    return cov_alpha_grid(np.full(taus.shape, p.alpha), p.lam, taus)


def fou_spectral(p: FracOUParams, k):
    """Spectral density S(k) = (k^2 + lambda^2)^(-alpha) / (2 pi)."""
    k = np.asarray(k, dtype=float)
    out = (k * k + p.lam ** 2) ** -p.alpha / (2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def fou_local_expansion(p: FracOUParams, tau=0.0):
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
