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


def _gammas(a):  # math.gamma of each element, in a's shape
    return np.fromiter(map(math.gamma, a.ravel().tolist()), float,
                       a.size).reshape(a.shape)


def _sigma2(alpha, lam, gam):  # gam is Gamma(alpha)
    a2 = 2.0 * alpha - 1.0
    # np.power, not **: a scalar alpha gets the array loop's bits
    return _gammas(a2) / (gam ** 2 * np.power(2.0 * lam, a2))


def _alpha_grid(alpha, lam, tau, structure):
    """D(tau) if structure, else C(tau), elementwise (broadcast): Gamma
    once per element of alpha at its own shape, C only at
    0 < lambda |tau| <= 700, and sigma^2 only where it is used: once at
    broadcast(alpha, lambda) for D, at the tau = 0 cells for C."""
    alpha = np.asarray(alpha, dtype=float)
    lam = np.asarray(lam, dtype=float)
    tau = np.abs(np.asarray(tau, dtype=float))
    if not np.isfinite(tau).all():
        raise DomainError("covariance lags must be finite")
    gam = _gammas(alpha)
    alpha_b, lam_b, tau_b, gam_b = np.broadcast_arrays(alpha, lam, tau, gam)
    at_zero = tau_b == 0.0
    if structure:  # 0 at tau = 0, sigma^2 where K underflows
        out = np.where(at_zero, 0.0, _sigma2(alpha, lam, gam))
    else:
        out = np.zeros(at_zero.shape)
        if at_zero.any():
            out[at_zero] = _sigma2(alpha_b[at_zero], lam_b[at_zero],
                                   gam_b[at_zero])
    live = ~at_zero & (lam_b * tau_b <= _X_UNDERFLOW)
    if live.any():
        # a shared lambda stays a scalar: no array of it beside the lags
        lam_l = lam if lam.ndim == 0 else lam_b[live]
        tau_l = tau_b[live]
        nu = alpha_b[live] - 0.5
        bes = specfun.besselk_grid(nu, lam_l * tau_l)
        log_gamma = np.log(np.sqrt(np.pi) * gam_b[live])
        c = np.exp(nu * np.log(tau_l / (2.0 * lam_l)) - log_gamma) * bes
        out[live] = out[live] - c if structure else c
    return out


def var_alpha_grid(alpha, lam):
    """sigma^2 with elementwise alpha and lambda (broadcast)."""
    alpha = np.asarray(alpha, dtype=float)
    return _sigma2(alpha, lam, _gammas(alpha))


def cov_alpha_grid(alpha, lam, tau):
    """C(tau) with elementwise alpha, lambda and tau (broadcast): sigma^2
    at tau = 0, 0 where K underflows, and a non-finite lag refused."""
    return _alpha_grid(alpha, lam, tau, structure=False)


# D = sigma^2 - C(tau) subtracts numbers of size lambda^-(2 alpha - 1) and
# keeps about eps (lambda |tau|)^-(2 alpha - 1) relative accuracy, so D
# refuses nonzero lags below this floor, which does not scale with alpha:
# at it, tfbm_var is off by 4.9e-4 at alpha = 2 and 9.3e-3 at alpha = 3
# (lambda = 1e-4, t = 0.01).  C alone reaches specfun.BESSEL_X_MIN.
REDUCED_X_MIN = 1e-6


def require_reduced_lags(lam, tau):
    """DomainError unless lambda |tau| >= REDUCED_X_MIN at nonzero lags."""
    x = lam * np.abs(tau)
    low = (x < REDUCED_X_MIN) & (x != 0.0)
    if low.any():
        raise DomainError(
            "reduced covariance needs lambda*|tau| >= %g at nonzero "
            "lags (sigma^2 - C(tau) cancels below it), got %g"
            % (REDUCED_X_MIN, np.min(np.where(low, x, np.inf))))


def structure_alpha_grid(alpha, lam, tau):
    """Structure function D(tau) = sigma^2 - C(tau), elementwise alpha,
    lambda and tau (broadcast): Var B(t) = 2 D(t) and cov(B(t), B(s))
    = D(t) + D(s) - D(t-s).  Even, exactly 0 at tau = 0; a nonzero lag
    below REDUCED_X_MIN or a non-finite one is a DomainError."""
    require_reduced_lags(lam, tau)
    return _alpha_grid(alpha, lam, tau, structure=True)


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
