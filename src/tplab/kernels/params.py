"""Parameter containers for the tempered process families.

Each type validates its admissibility constraints at construction so the
kernel routines can assume a valid parameter point.  All containers are
frozen; operations never mutate them.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from ..errors import DomainError


@dataclass(frozen=True)
class FracOUParams:
    """Index alpha > 1/2 and finite tempering rate lambda > 0.

    The associated Hurst parameter is H = alpha - 1/2; operations that
    need H in (0,1) additionally require alpha < 3/2 and check it via
    require_hurst_in_unit().
    """

    alpha: float
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lam", float(self.lam))
        if not self.alpha > 0.5:
            raise DomainError(
                "alpha must exceed 1/2 for a finite variance, got %g"
                % self.alpha)
        if not 0.0 < self.lam < math.inf:
            raise DomainError("lambda must be finite > 0, got %g" % self.lam)

    @property
    def hurst(self):
        return self.alpha - 0.5

    def require_hurst_in_unit(self):
        if not self.alpha < 1.5:
            raise DomainError(
                "operation needs H = alpha - 1/2 in (0,1); alpha=%g"
                % self.alpha)
        return self


@dataclass(frozen=True)
class TwoIndexParams:
    """Smoothness index alpha, Riesz index beta in (0,1], finite
    tempering lambda > 0, with alpha*beta > 1/2 for a finite variance."""

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "lam", float(self.lam))
        if not 0.0 < self.alpha < math.inf:
            raise DomainError("alpha must be finite > 0, got %g" % self.alpha)
        if not 0.0 < self.beta <= 1.0:
            raise DomainError("beta must lie in (0, 1], got %g" % self.beta)
        if not 0.0 < self.lam < math.inf:
            raise DomainError("lambda must be finite > 0, got %g" % self.lam)
        if not self.alpha * self.beta > 0.5:
            raise DomainError(
                "alpha*beta must exceed 1/2 for a finite variance, "
                "got %g" % (self.alpha * self.beta))

    @property
    def hurst(self):
        return self.alpha * self.beta - 0.5

    def require_asymptotic_range(self):
        ab = self.alpha * self.beta
        if not 0.5 < ab < 1.5:
            raise DomainError(
                "asymptotic laws need alpha*beta in (1/2, 3/2), got %g" % ab)
        return self


@dataclass(frozen=True)
class MixtureParams:
    """Weighted superposition of independent single-index components.

    components is a nonempty tuple of (weight, FracOUParams) with all
    weights strictly positive and pairwise-distinct alpha values.
    """

    components: Tuple[Tuple[float, FracOUParams], ...]

    def __post_init__(self):
        comps = tuple((float(b), p) for b, p in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise DomainError("mixture needs at least one component")
        for b, p in comps:
            if not b > 0.0:
                raise DomainError("mixture weights must be positive")
            if not isinstance(p, FracOUParams):
                raise DomainError("mixture components must be FracOUParams")
        alphas = [p.alpha for _, p in comps]
        if len(set(alphas)) != len(alphas):
            raise DomainError("mixture alphas must be pairwise distinct")


@dataclass(frozen=True)
class TmbmParams:
    """Pairing of a time-varying index profile with a tempering rate."""

    profile: "HurstProfile"
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        if not isinstance(self.profile, HurstProfile):
            raise DomainError("profile must be a HurstProfile")
        if not 0.0 < self.lam < math.inf:
            raise DomainError("lambda must be finite > 0, got %g" % self.lam)


@dataclass(frozen=True)
class HurstProfile:
    """Deterministic time-varying index alpha(t).

    The profile declares its own regularity: |alpha(t) - alpha(s)| <=
    holder_constant * |t-s|^holder_exponent, spot-checked on evaluation
    grids, and hard bounds 1/2 < alpha_min <= alpha(t) <= alpha_max <
    3/2 checked at every evaluation.
    """

    alpha_of_t: Callable[[float], float] = field(repr=False)
    holder_constant: float
    holder_exponent: float
    alpha_min: float
    alpha_max: float

    def __post_init__(self):
        if not self.holder_constant >= 0.0:
            raise DomainError("holder_constant must be >= 0")
        if not 0.0 < self.holder_exponent <= 1.0:
            raise DomainError("holder_exponent must lie in (0, 1]")
        if not 0.5 < self.alpha_min <= self.alpha_max < 1.5:
            raise DomainError(
                "bounds must satisfy 1/2 < alpha_min <= alpha_max < 3/2")

    def alpha(self, t):
        v = float(self.alpha_of_t(float(t)))
        if not (self.alpha_min - 1e-12 <= v <= self.alpha_max + 1e-12):
            raise DomainError(
                "alpha(%g) = %g escapes declared bounds [%g, %g]"
                % (t, v, self.alpha_min, self.alpha_max))
        return v

    def alpha_plus(self, t, s):
        return 0.5 * (self.alpha(t) + self.alpha(s))

    def spot_check(self, ts):
        """Bounds plus the declared Holder modulus on a grid of times."""
        ts = np.asarray(ts, dtype=float)
        vals = np.array([self.alpha(t) for t in ts])
        order = np.argsort(ts)
        ts, vals = ts[order], vals[order]
        for stride in (1, max(1, len(ts) // 3)):
            dt = np.abs(ts[stride:] - ts[:-stride])
            dv = np.abs(vals[stride:] - vals[:-stride])
            bound = (self.holder_constant * dt ** self.holder_exponent
                     * (1.0 + 1e-9) + 1e-12)
            if np.any(dv > bound):
                i = int(np.argmax(dv - bound))
                raise DomainError(
                    "profile violates declared Holder modulus between "
                    "t=%g and t=%g" % (ts[i], ts[i + stride]))
        return self

    @classmethod
    def constant(cls, alpha):
        alpha = float(alpha)
        return cls(lambda t: alpha, 0.0, 1.0, alpha, alpha)

    @classmethod
    def saturating_ramp(cls, base, gain):
        """alpha(t) = base + gain * t/(1+t) for t >= 0, constant base
        for t < 0; Lipschitz with constant |gain|."""
        base, gain = float(base), float(gain)

        def fn(t):
            m = max(t, 0.0)
            return base + gain * m / (1.0 + m)

        lo, hi = sorted((base, base + gain))
        return cls(fn, abs(gain), 1.0, lo, hi)

    @classmethod
    def tabulated(cls, ts, alphas):
        """Piecewise-linear interpolation through (ts, alphas), held
        constant outside the table range."""
        ts = np.asarray(ts, dtype=float)
        alphas = np.asarray(alphas, dtype=float)
        if ts.ndim != 1 or ts.shape != alphas.shape or len(ts) < 2:
            raise DomainError("tabulated profile needs matching 1d arrays "
                              "with at least two knots")
        if np.any(np.diff(ts) <= 0.0):
            raise DomainError("tabulated profile times must increase")
        slopes = np.abs(np.diff(alphas) / np.diff(ts))
        return cls(lambda t: float(np.interp(t, ts, alphas)),
                   float(slopes.max()), 1.0,
                   float(alphas.min()), float(alphas.max()))
