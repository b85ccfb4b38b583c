"""Mixtures of independent reduced processes with distinct indices.

The covariance is the weight-squared sum of the component covariances;
small-time roughness is governed by the smallest alpha in the mixture.
"""

from . import tfbm
from .params import MixtureParams


def mixed_cov(m: MixtureParams, t, s):
    """sum_i b_i^2 C_i(t, s); weights enter squared by independence."""
    return sum(b * b * tfbm.tfbm_cov(p, t, s) for b, p in m.components)


def mixed_var(m: MixtureParams, t):
    return sum(b * b * tfbm.tfbm_var(p, t) for b, p in m.components)


def mixed_gram(m: MixtureParams, times):
    return sum(b * b * tfbm.tfbm_gram(p, times) for b, p in m.components)
