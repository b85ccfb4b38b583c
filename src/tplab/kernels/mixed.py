"""Mixtures of independent reduced processes with distinct indices.

mixed_cov is the weight-squared sum of the component covariances, from
one D call over every component; the variance and the Gram are
mixed_cov at (t, t) and at (times[:, None], times[None, :]).  Small-time
roughness is governed by the smallest alpha in the mixture.
"""

import numpy as np

from . import fou, tfbm
from .params import MixtureParams


def mixed_cov(m: MixtureParams, t, s):
    """sum_i b_i^2 C_i(t, s), weights squared by independence, broadcast."""
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    weights, alpha, lam = zip(*((b, p.alpha, p.lam) for b, p in m.components))
    d_t, d_s, d_lag = tfbm._stacked(
        lambda u: fou.structure_alpha_grid(alpha, lam, u[:, None]),
        t, s, t - s)
    cov = (d_t + d_s) - d_lag
    out = sum(b * b * cov[..., k] for k, b in enumerate(weights))
    return float(out) if out.ndim == 0 else out
