"""Tempered fractional Gaussian noise: the stationary noise obtained
from the moving-average process by differentiation and tempering.

Its spectral density is k^2 S_alpha(k) = S_(alpha-1)(k) - lambda^2
S_alpha(k), with S_alpha the fou density of index alpha, so its
covariance is two fou kernels:

    C(tau) = C_(alpha-1)(tau) - lambda^2 C_alpha(tau)

which requires alpha > 1 for C_(alpha-1) to exist at tau != 0, and
alpha > 3/2 for the pointwise variance sigma^2_(alpha-1) - lambda^2
sigma^2_alpha.  tfgn_cov takes any lag array, 0 included; it refuses a
positive lag below Bessel K's box only at alpha <= 3/2, where C_(alpha-1)
has no sigma^2 - D form.

The moving-average construction gives the same covariance as four
blocks of the cross-covariance

    C^(mu,nu)(tau) = e^(-lambda tau) tau^(mu+nu-1)
                     U(nu, mu+nu, 2 lambda tau) / Gamma(mu),  tau > 0

at mu, nu in {alpha-1, alpha}:

    C = C^(a-1,a-1) - lambda C^(a-1,a) - lambda C^(a,a-1) + lambda^2 C^(a,a)

with the first index attached to the later time, so index exchange
pairs with lag reversal: C^(mu,nu)(t,s) = C^(nu,mu)(s,t), and
C^(alpha,alpha) equals the stationary fou kernel.  tfgn_cross_cov
evaluates a block by Kummer U; tmbm uses it, and the four-block route
is the reference the fou form is tested against.
"""

import math

import numpy as np

from .. import specfun
from ..errors import DomainError
from . import fou


def tfgn_cross_cov(mu, nu, lam, tau):
    """C^(mu,nu)(tau) for mu, nu, lam, tau all positive.  The arguments
    broadcast; arrays give an array from one specfun.kummer_u call."""
    shape, (mu, nu, lam, tau) = specfun.flat_args(mu, nu, lam, tau)
    for name, x in (("mu", mu), ("nu", nu), ("lambda", lam), ("tau", tau)):
        specfun.require("tfgn_cross_cov", name, x, x > 0.0, " > 0")
    u = specfun.kummer_u(nu, mu + nu, 2.0 * lam * tau).value
    pre = specfun.each(lambda m, n, lt, t: math.exp(-lt * t)
                       * t ** (m + n - 1.0), mu, nu, lam, tau)
    return specfun.shaped(shape, pre * u / specfun.each(math.gamma, mu))


def tfgn_cov(alpha, lam, tau):
    """C_(alpha-1)(tau) - lambda^2 C_alpha(tau): even in tau, and the
    pointwise variance at tau = 0, which exists only for alpha > 3/2.
    Requires alpha > 1.  Broadcasts over an array of lags; a scalar lag
    gives a float."""
    alpha = float(alpha)
    tau = np.asarray(tau, dtype=float)
    if not alpha > 1.5 and (tau == 0.0).any():
        raise DomainError(
            "the noise has a pointwise variance only for alpha > 3/2, "
            "got %g" % alpha)
    if not alpha > 1.0:
        raise DomainError(
            "the noise covariance decomposition needs alpha > 1, got %g"
            % alpha)
    if not (lam > 0.0 and math.isfinite(lam * lam)):
        raise DomainError("lambda must be positive with a finite square, "
                          "got %g" % lam)
    if not alpha > 1.5:  # below K's box C_(alpha-1) has no sigma^2 - D
        fou.require_bessel_lags(alpha, lam, tau)
    out = (fou.cov_alpha_grid(alpha - 1.0, lam, tau)
           - lam * lam * fou.cov_alpha_grid(alpha, lam, tau))
    return float(out) if out.ndim == 0 else out
