"""Estimator checks on synthetic ensembles with known answers: the
log-log fit is exact on pure powers, the variogram slope reads 2H, the
dimension identity D = 2 - H holds, and the regime / data-sufficiency
guards fire when they should.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import estimators as E
from tplab.errors import DomainError, InsufficientData, RegimeWarning
from tplab.kernels import FracOUParams, HurstProfile, TmbmParams
from tplab.sampler import (GaussianPath, ProcessDescriptor, TimeGrid,
                           sample_exact)


def _synthetic(values_fn, n_paths=120, t0=0.0, dt=0.5, n=20):
    """Deterministic ensemble: path i holds values_fn(i, times)."""
    grid = TimeGrid(t0, dt, n)
    times = grid.times()
    return [GaussianPath(grid, np.asarray(values_fn(i, times), dtype=float),
                         None, i, "synthetic") for i in range(n_paths)]


# --- log-log fit -------------------------------------------------------------

def test_fit_loglog_exact_on_pure_power():
    lags = np.array([0.1, 0.2, 0.4, 0.8, 1.0, 1.6])
    slope, stderr = E.fit_loglog(lags, 3.7 * lags ** 1.3)
    assert abs(slope - 1.3) <= 1e-12
    assert stderr <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(min_value=-2.5, max_value=2.5),
       st.floats(min_value=1e-3, max_value=1e3))
def test_fit_loglog_recovers_any_power(s, c):
    lags = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    slope, stderr = E.fit_loglog(lags, c * lags ** s)
    assert abs(slope - s) <= 1e-9 * max(1.0, abs(s))
    assert stderr <= 1e-9


def test_fit_loglog_two_points_has_zero_stderr():
    slope, stderr = E.fit_loglog([1.0, 2.0], [3.0, 6.0])
    assert abs(slope - 1.0) <= 1e-12
    assert stderr == 0.0


def test_fit_loglog_validation():
    with pytest.raises(InsufficientData):
        E.fit_loglog([1.0], [2.0])
    with pytest.raises(InsufficientData):
        E.fit_loglog([1.0, 2.0], [0.0, 1.0])


# --- variogram ---------------------------------------------------------------

def test_variogram_linear_paths_have_slope_two():
    # X_i(t) = a_i t gives gamma(k dt) = mean(a^2) (k dt)^2 exactly
    paths = _synthetic(lambda i, ts: (0.1 + 0.01 * i) * ts)
    est = E.variogram(paths, 0.5 * np.arange(1, 9))
    assert abs(est.slope - 2.0) <= 1e-10
    assert est.slope_stderr <= 1e-10
    ref = np.mean([(0.1 + 0.01 * i) ** 2 for i in range(120)])
    assert abs(est.gamma_hat[0] - ref * 0.25) <= 1e-12


def test_variogram_lag_validation():
    paths = _synthetic(lambda i, ts: (1.0 + i) * ts)
    with pytest.raises(InsufficientData):
        E.variogram(paths, [0.3, 0.6, 0.9, 1.2, 1.5, 1.8])
    with pytest.raises(InsufficientData):
        E.variogram(paths, [0.5, 1.0, 1.5, 2.0, 2.5, 50.0])
    with pytest.raises(DomainError):
        E.variogram(paths, [1.0, 0.5, 1.5, 2.0, 2.5, 3.0])


def test_variogram_needs_a_decade_of_lags():
    paths = _synthetic(lambda i, ts: (1.0 + i) * ts)
    with pytest.raises(InsufficientData):
        E.variogram(paths, [0.5, 1.0, 1.5, 2.0, 2.5])


def test_estimators_enforce_minimum_ensemble():
    paths = _synthetic(lambda i, ts: (1.0 + i) * ts, n_paths=99)
    with pytest.raises(InsufficientData):
        E.variogram(paths, 0.5 * np.arange(1, 9))


def test_paths_must_share_one_grid():
    a = _synthetic(lambda i, ts: ts, n_paths=60)
    b = _synthetic(lambda i, ts: ts, n_paths=60, dt=0.25)
    with pytest.raises(DomainError):
        E.variogram(a + b, 0.5 * np.arange(1, 9))


def test_variogram_estimate_container_validation():
    with pytest.raises(DomainError):
        E.VariogramEstimate(np.array([2.0, 1.0]), np.array([1.0, 1.0]),
                            1.0, 0.0)
    with pytest.raises(DomainError):
        E.VariogramEstimate(np.array([1.0, 2.0]), np.array([-1.0, 1.0]),
                            1.0, 0.0)
    with pytest.raises(DomainError):
        E.VariogramEstimate(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                            math.inf, 0.0)


# --- Hurst and dimension -----------------------------------------------------

def test_hurst_is_scale_invariant():
    base = _synthetic(lambda i, ts: (0.1 + 0.01 * i) * ts ** 0.7)
    scaled = [GaussianPath(p.grid, 7.3 * p.values, None, p.seed, p.method)
              for p in base]
    h0, s0 = E.hurst_local(base)
    h1, s1 = E.hurst_local(scaled)
    assert abs(h0 - h1) <= 1e-12
    assert abs(s0 - s1) <= 1e-12


def test_hurst_recovers_index_of_sampled_paths():
    p = FracOUParams(0.75, 0.1)
    paths = sample_exact(ProcessDescriptor("tfbm", p),
                         TimeGrid(0.0, 0.01, 64), 404, 150)
    h, se = E.hurst_local(paths)
    assert abs(h - 0.25) <= 0.1
    assert se > 0.0


def test_dimension_is_two_minus_hurst():
    paths = _synthetic(lambda i, ts: (0.1 + 0.01 * i) * ts ** 0.7)
    h, hse = E.hurst_local(paths)
    d, dse = E.fractal_dimension(paths)
    assert d == 2.0 - h
    assert dse == hse


def test_regime_warning_when_tempering_bleeds_in():
    paths = _synthetic(lambda i, ts: (0.1 + 0.01 * i) * ts)
    with pytest.warns(RegimeWarning):
        E.hurst_local(paths, lam=2.0)


def test_no_regime_warning_without_rate():
    paths = _synthetic(lambda i, ts: (0.1 + 0.01 * i) * ts)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RegimeWarning)
        h, _ = E.hurst_local(paths)
    assert abs(h - 1.0) <= 1e-10


# --- windowed Hurst ----------------------------------------------------------

def test_windowed_hurst_tracks_rising_profile():
    prof = HurstProfile.saturating_ramp(0.8, 0.45)
    tp = TmbmParams(prof, 0.5)
    paths = sample_exact(ProcessDescriptor("tmbm", tp),
                         TimeGrid(0.0, 0.01, 256), 77, 120)
    centers, hs, ses = E.hurst_local_windowed(paths)
    assert len(centers) >= 3
    assert np.all(np.diff(centers) > 0.0)
    # profile climbs by ~0.2 across the grid; the estimate must follow
    assert hs[-1] - hs[0] > 0.05
    assert np.all(ses >= 0.0)


def test_windowed_hurst_needs_window_inputs():
    paths = _synthetic(lambda i, ts: (1.0 + i) * ts)
    with pytest.raises(DomainError):
        E.hurst_local_windowed(paths)
    short = _synthetic(lambda i, ts: (1.0 + i) * ts, n=8)
    with pytest.raises(InsufficientData):
        E.hurst_local_windowed(short, window_points=4)


# --- plateau -----------------------------------------------------------------

def test_plateau_of_common_factor_ensemble_is_one():
    # X_i(t) = a_i for every t: perfectly correlated across any lag
    paths = _synthetic(lambda i, ts: (1.0 + i) * np.ones_like(ts),
                       dt=1.0, n=40)
    taus = np.array([21.0, 30.0, 39.0])
    got = E.lrd_plateau_empirical(paths, 0.0, taus, lam=1.0)
    assert np.allclose(got, 1.0, rtol=0.0, atol=1e-12)


def test_plateau_preconditions():
    paths = _synthetic(lambda i, ts: (1.0 + i) * np.ones_like(ts),
                       dt=1.0, n=40)
    with pytest.raises(InsufficientData):
        E.lrd_plateau_empirical(paths, 0.0, [5.0, 10.0], lam=1.0)
    with pytest.raises(InsufficientData):
        E.lrd_plateau_empirical(paths, 0.0, [], lam=1.0)
    with pytest.raises(DomainError):
        E.lrd_plateau_empirical(paths, 0.37, [21.0, 30.0], lam=1.0)
    with pytest.raises(InsufficientData):
        E.lrd_plateau_empirical(paths, 20.0, [21.0, 25.0], lam=1.0)
