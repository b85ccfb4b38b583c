"""Path statistics that confront samples with the kernel laws: local
Hurst exponent via the variogram, graph fractal dimension, and the
long-lag correlation plateau.

All estimators are pure functions of (paths, options) with fixed
reduction orders, so repeated calls on the same inputs are bit-stable.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientData, RegimeWarning

MIN_PATHS = 100

# dt * lambda above which tempering bleeds into the smallest lags and
# the variogram slope no longer reads 2H
LOCAL_REGIME_LIMIT = 0.01
N_LAGS = 8  # every local fit takes the lags of 1, ..., N_LAGS grid steps


@dataclass(frozen=True)
class VariogramEstimate:
    lags: np.ndarray
    gamma_hat: np.ndarray
    slope: float
    slope_stderr: float

    def __post_init__(self):
        if np.any(np.diff(self.lags) <= 0.0):
            raise DomainError("lags must increase strictly")
        if np.any(self.gamma_hat < 0.0):
            raise DomainError("gamma_hat must be nonnegative")
        if not math.isfinite(self.slope):
            raise DomainError("slope must be finite")


def _as_matrix(paths):
    if len(paths) < MIN_PATHS:
        raise InsufficientData(
            "need at least %d paths, got %d" % (MIN_PATHS, len(paths)))
    grid = paths[0].grid
    for p in paths[1:]:
        if p.grid != grid:
            raise DomainError("paths must share one grid")
    return grid, np.stack([p.values for p in paths])


def _lag_steps(lags, dt, n):
    lags = np.asarray(lags, dtype=float)
    ks = np.rint(lags / dt).astype(int)
    if np.any(np.abs(ks * dt - lags) > 1e-9 * np.maximum(1.0, lags)):
        raise InsufficientData("lags must be grid multiples of dt=%g" % dt)
    if np.any(ks < 1) or np.any(ks >= n):
        raise InsufficientData("lags must lie within the grid span")
    return ks


def _mean_sq_increments(values, ks):
    """gamma_hat(k dt) averaged over paths and t, fixed order.  Each lag's
    increments are squared in place in one reused flat buffer, as one
    contiguous array, so the mean sums them in the same order as over a
    fresh array."""
    p, n = values.shape
    buf = np.empty(p * max(n - 1, 0))
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        d = buf[:p * (n - k)].reshape(p, n - k)
        np.subtract(values[:, k:], values[:, :-k], out=d)
        d *= d
        out[i] = float(np.mean(d))
    return out


def fit_loglog(lags, gamma_hat):
    """Least-squares slope of log gamma against log lag.

    Returns (slope, stderr); exact for pure-power data gamma = c *
    lag^s, where the residuals vanish and stderr is 0.
    """
    lags = np.asarray(lags, dtype=float)
    gamma_hat = np.asarray(gamma_hat, dtype=float)
    if len(lags) < 2:
        raise InsufficientData("log-log fit needs at least two lags")
    if np.any(gamma_hat <= 0.0):
        raise InsufficientData("variogram values must be positive to fit")
    x = np.log(lags)
    y = np.log(gamma_hat)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean())) / sxx
    if len(lags) > 2:
        resid = y - y.mean() - slope * xc
        s2 = float(resid @ resid) / (len(lags) - 2)
        stderr = math.sqrt(max(s2, 0.0) / sxx)
    else:
        stderr = 0.0
    return slope, stderr


def _fit_window(lags):
    """Smallest decade [L, 10L] of the lag set holding >= 6 points."""
    lags = np.asarray(lags, dtype=float)
    for low in lags:
        inside = (lags >= low) & (lags <= 10.0 * low * (1.0 + 1e-12))
        if inside.sum() >= 6:
            return inside
    raise InsufficientData(
        "no decade of lags contains 6 points; got lags %s" % (lags,))


def variogram(paths, lag_set):
    """Mean squared increment over paths and time, with the small-lag
    log-log slope fitted over the smallest decade holding >= 6 lags."""
    grid, values = _as_matrix(paths)
    lags = np.asarray(lag_set, dtype=float)
    if np.any(np.diff(lags) <= 0.0):
        raise DomainError("lag_set must increase strictly")
    ks = _lag_steps(lags, grid.dt, grid.n)
    gamma_hat = _mean_sq_increments(values, ks)
    window = _fit_window(lags)
    slope, stderr = fit_loglog(lags[window], gamma_hat[window])
    return VariogramEstimate(lags, gamma_hat, slope, stderr)


def _tempering_rate(paths, lam):
    if lam is not None:
        return float(lam)
    proc = paths[0].process
    return None if proc is None else proc.tempering_rate()


def _check_regime(dt, lam):
    if lam is not None and dt * lam > LOCAL_REGIME_LIMIT:
        warnings.warn(
            "dt*lambda = %g exceeds %g; tempering contaminates the "
            "small-lag slope" % (dt * lam, LOCAL_REGIME_LIMIT),
            RegimeWarning)


def hurst_local(paths, lam=None):
    """Local Hurst exponent H_hat = slope/2 from the smallest lags.

    Scale-invariant: rescaling every path by a constant shifts the
    log-variogram vertically and leaves the slope unchanged.
    """
    grid = paths[0].grid
    _check_regime(grid.dt, _tempering_rate(paths, lam))
    lag_set = grid.dt * np.arange(1, N_LAGS + 1)
    est = variogram(paths, lag_set)
    return 0.5 * est.slope, 0.5 * est.slope_stderr


def hurst_local_windowed(paths, lam=None, window_points=None):
    """Sliding-window H_hat(t) for time-varying-index paths.

    Window width defaults to time 1/(4 lambda), capped at n/8 grid
    points: wide enough to tame variance, narrow enough that the index
    profile is nearly constant across it.  Returns (centers, h_hat,
    stderr) arrays over half-overlapping windows.
    """
    grid, values = _as_matrix(paths)
    rate = _tempering_rate(paths, lam)
    _check_regime(grid.dt, rate)
    if window_points is None:
        if rate is None:
            raise DomainError(
                "need lam (or paths with parameters) to size windows")
        window_points = int(round(1.0 / (4.0 * rate * grid.dt)))
    wpts = int(min(window_points, grid.n // 8))
    wpts = max(wpts, 2 * N_LAGS)
    if wpts > grid.n:
        raise InsufficientData("grid too short for one window")
    ks = np.arange(1, N_LAGS + 1)
    lags = grid.dt * ks
    centers, hs, ses = [], [], []
    for start in range(0, grid.n - wpts + 1, max(1, wpts // 2)):
        seg = values[:, start:start + wpts]
        gamma_hat = _mean_sq_increments(seg, ks)
        slope, stderr = fit_loglog(lags, gamma_hat)
        centers.append(grid.t0 + (start + 0.5 * wpts) * grid.dt)
        hs.append(0.5 * slope)
        ses.append(0.5 * stderr)
    return np.array(centers), np.array(hs), np.array(ses)


def fractal_dimension(paths, lam=None):
    """Graph dimension D_hat = 2 - H_hat (variation method)."""
    h, se = hurst_local(paths, lam=lam)
    return 2.0 - h, se


def lrd_plateau_empirical(paths, t, tau_grid, lam=None):
    """Empirical correlation corr(X(t), X(t+tau)) over the path
    ensemble for each tau in tau_grid.

    The grid must reach lambda*tau_max >= 20 so the long-lag regime is
    actually visible; shorter grids raise InsufficientData.
    """
    grid, values = _as_matrix(paths)
    taus = np.asarray(tau_grid, dtype=float)
    if len(taus) == 0:
        raise InsufficientData("tau_grid is empty")
    rate = _tempering_rate(paths, lam)
    if rate is not None and rate * taus.max() < 20.0:
        raise InsufficientData(
            "lambda*tau_max = %g < 20: grid too short to see the "
            "long-lag regime" % (rate * taus.max()))
    i_t = int(round((t - grid.t0) / grid.dt))
    if not (0 <= i_t < grid.n) or abs(grid.t0 + i_t * grid.dt - t) > 1e-9 * max(
            1.0, abs(t)):
        raise DomainError("t must lie on the path grid")
    steps = _lag_steps(taus, grid.dt, grid.n - i_t)
    x = values[:, i_t]
    xc = x - x.mean()
    sx = float(xc @ xc)
    out = np.empty(len(steps))
    for j, k in enumerate(steps):
        y = values[:, i_t + k]
        yc = y - y.mean()
        out[j] = float(xc @ yc) / math.sqrt(sx * float(yc @ yc))
    return out
