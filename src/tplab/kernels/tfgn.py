"""Tempered fractional Gaussian noise: the stationary noise obtained
from the moving-average process by differentiation and tempering.

Its spectral density is k^2 S_alpha(k) = S_(alpha-1)(k) - lambda^2
S_alpha(k), with S_alpha the fou density of index alpha, so its
covariance is two fou kernels:

    C(tau) = C_(alpha-1)(tau) - lambda^2 C_alpha(tau)

which requires alpha > 1 for C_(alpha-1) to exist at tau != 0, and
alpha > 3/2 for the pointwise variance sigma^2_(alpha-1) - lambda^2
sigma^2_alpha.  Both kernels are evaluated in fou's Bessel box,
alpha - 1/2 <= 5.

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
    """C^(mu,nu)(tau) for mu, nu, lam, tau all positive."""
    mu, nu, lam, tau = float(mu), float(nu), float(lam), float(tau)
    if mu <= 0.0:
        raise DomainError("tfgn_cross_cov requires mu > 0, got %g" % mu)
    if nu <= 0.0:
        raise DomainError("tfgn_cross_cov requires nu > 0, got %g" % nu)
    if lam <= 0.0:
        raise DomainError("lambda must be positive, got %g" % lam)
    if tau <= 0.0:
        raise DomainError("tfgn_cross_cov requires tau > 0, got %g" % tau)
    u = specfun.kummer_u(nu, mu + nu, 2.0 * lam * tau).value
    return (math.exp(-lam * tau) * tau ** (mu + nu - 1.0) * u
            / math.gamma(mu))


def tfgn_cov_values(alpha, lam, taus):
    """C_(alpha-1)(tau) - lambda^2 C_alpha(tau) over a lag array; even
    in tau, and the pointwise variance at tau = 0."""
    alpha = float(alpha)
    taus = np.asarray(taus, dtype=float)
    if not alpha > 1.5 and (taus == 0.0).any():
        raise DomainError(
            "the noise has a pointwise variance only for alpha > 3/2, "
            "got %g" % alpha)
    if not alpha > 1.0:
        raise DomainError(
            "the noise covariance decomposition needs alpha > 1, got %g"
            % alpha)
    if not lam > 0.0:
        raise DomainError("lambda must be positive, got %g" % lam)
    return (fou.cov_alpha_grid(alpha - 1.0, lam, taus)
            - lam * lam * fou.cov_alpha_grid(alpha, lam, taus))


def tfgn_var(alpha, lam):
    """Pointwise variance of the noise, finite only for alpha > 3/2."""
    return float(tfgn_cov_values(alpha, lam, 0.0))


def tfgn_cov(alpha, lam, tau):
    """Covariance of the stationary noise at lag tau != 0 (the noise has
    no pointwise variance for alpha < 3/2).  Requires alpha > 1."""
    if float(tau) == 0.0:
        raise DomainError("the noise covariance is evaluated at tau != 0")
    return float(tfgn_cov_values(alpha, lam, tau))
