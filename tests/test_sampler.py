"""Path synthesis: substream seeding, exact-sampler reproducibility
(including invariance to the worker count), zero-variance pinning, the
jitter ladder, and the circulant-embedding route with its clamp /
fallback behavior.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import kernels as K
from tplab import sampler, specfun
from tplab.errors import (DomainError, EmbeddingFailure, EmbeddingWarning,
                          NotPSD)
from tplab.kernels import (FracOUParams, HurstProfile, MixtureParams,
                           TmbmParams, TwoIndexParams)
from tplab.sampler import (GaussianPath, ProcessDescriptor, TimeGrid,
                           derive_substream_seed, sample_exact,
                           sample_spectral, sample_tfbm_spectral)


# --- substream seeding -------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=0, max_value=100_000))
def test_substream_seeds_never_collide_under_one_master(master, i, j):
    a = derive_substream_seed(master, i)
    b = derive_substream_seed(master, j)
    assert 0 <= a < 2 ** 64
    assert (a == b) == (i == j)


def test_substream_seed_is_pure():
    assert derive_substream_seed(42, 7) == derive_substream_seed(42, 7)


# --- exact sampling ----------------------------------------------------------

def test_exact_rerun_is_bit_identical():
    p = ProcessDescriptor("fou", FracOUParams(0.75, 1.0))
    grid = TimeGrid(0.0, 0.1, 16)
    a = sample_exact(p, grid, 123, 4)
    b = sample_exact(p, grid, 123, 4)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.values, pb.values)
    c = sample_exact(p, grid, 124, 4)
    assert not np.array_equal(a[0].values, c[0].values)


@pytest.mark.parametrize("t0", (0.0, 0.37))
def test_exact_path_depends_only_on_seed_and_index(t0):
    # a path's bytes must not depend on how many paths are drawn with it,
    # including across the edge of a block of stacked draws
    p = ProcessDescriptor("tfbm", FracOUParams(0.75, 0.05))
    grid = TimeGrid(t0, 0.01, 512)
    many = sample_exact(p, grid, 11, 500)
    assert (sample_exact(p, grid, 11, 1)[0].values.tobytes()
            == many[0].values.tobytes())
    assert (sample_exact(p, grid, 11, 70)[65].values.tobytes()
            == sample_exact(p, grid, 11, 130)[65].values.tobytes())
    for path in many:
        assert (path.values[0] == 0.0) == (t0 == 0.0)
        assert np.all(path.values[1:] != 0.0)


@pytest.mark.parametrize("family params".split(), (
    ("tfbm", FracOUParams(0.75, 0.05)),
    ("tmbm", TmbmParams(HurstProfile.saturating_ramp(0.8, 0.1), 1.0)),
))
def test_blocked_draws_match_one_product_per_path(family, params):
    # reference: factor @ z for each path alone; the blocked product sums
    # in another order, so allow n_live rounding errors of the largest
    # value
    p = ProcessDescriptor(family, params)
    grid = TimeGrid(0.0, 0.01, 128)
    gram = sampler.build_gram(p, grid)
    live = np.diag(gram) > 0.0
    factor, _ = sampler._cholesky_with_jitter(gram[np.ix_(live, live)])
    for path in sample_exact(p, grid, 5, 150):
        want = np.zeros(grid.n)
        want[live] = factor @ sampler._rng_for(path.seed).standard_normal(
            int(live.sum()))
        tol = live.sum() * np.finfo(float).eps * np.abs(want).max()
        assert np.all(np.abs(path.values - want) <= tol)
        assert path.values[0] == 0.0


def test_paths_carry_their_own_substream_seeds():
    p = ProcessDescriptor("fou", FracOUParams(0.75, 1.0))
    paths = sample_exact(p, TimeGrid(0.0, 0.1, 4), 7, 3)
    for i, path in enumerate(paths):
        assert path.seed == derive_substream_seed(7, i)
        assert path.method == "cholesky"
        assert path.rng_name == "philox4x64"


def test_pinned_origin_is_exactly_zero():
    p = ProcessDescriptor("tfbm", FracOUParams(0.75, 1.0))
    for path in sample_exact(p, TimeGrid(0.0, 0.5, 8), 11, 5):
        assert path.values[0] == 0.0
        assert np.all(path.values[1:] != 0.0)


@pytest.mark.parametrize("family", ("tfbm", "mixed", "tmbm"))
def test_exact_single_point_reduced_grid_is_origin(family):
    # every point is pinned, so there is nothing to factor
    desc = ProcessDescriptor(family, FAMILY_PARAMS[family])
    for path in sample_exact(desc, TimeGrid(0.0, 0.1, 1), 2, 3):
        assert np.array_equal(path.values, np.zeros(1))
        assert path.jitter == 0.0


def test_two_point_factor_matches_closed_form_cholesky():
    p = FracOUParams(0.75, 1.0)
    grid = TimeGrid(0.0, 0.4, 2)
    path = sample_exact(ProcessDescriptor("fou", p), grid, 7, 1)[0]
    var, cov = K.fou_var(p), K.fou_cov(p, 0.4)
    z = sampler._rng_for(path.seed).standard_normal(2)
    x0 = math.sqrt(var) * z[0]
    x1 = cov / math.sqrt(var) * z[0] + math.sqrt(var - cov * cov / var) * z[1]
    assert abs(path.values[0] - x0) <= 1e-13 * math.sqrt(var)
    assert abs(path.values[1] - x1) <= 1e-13 * math.sqrt(var)


def test_exact_diag_matches_kernel_variance_in_mc():
    p = ProcessDescriptor("fou", FracOUParams(1.25, 1.0))
    grid = TimeGrid(0.0, 0.3, 4)
    vals = np.stack([q.values for q in sample_exact(p, grid, 5, 600)])
    emp = (vals * vals).mean(axis=0)
    ref = K.fou_var(FracOUParams(1.25, 1.0))
    # var of the second-moment estimator is 2 ref^2 / N
    band = 5.0 * ref * math.sqrt(2.0 / 600.0)
    assert np.all(np.abs(emp - ref) <= band)


@pytest.mark.parametrize("family params".split(), (
    ("fou", FracOUParams(0.75, 1.0)),
    ("mixed", MixtureParams(((1.0, FracOUParams(0.7, 1.0)),
                             (0.5, FracOUParams(1.3, 0.5))))),
    ("tfbm2", TwoIndexParams(0.9, 0.8, 1.0)),
    ("tmbm", TmbmParams(HurstProfile.saturating_ramp(0.8, 0.1), 1.0)),
    ("tfgn", FracOUParams(1.7, 1.0)),
))
def test_every_family_samples(family, params):
    paths = sample_exact(ProcessDescriptor(family, params),
                         TimeGrid(0.0, 0.25, 6), 3, 2)
    assert len(paths) == 2
    assert np.all(np.isfinite(paths[0].values))


# --- structural Gram assembly ------------------------------------------------

MIX = MixtureParams(((1.0, FracOUParams(0.7, 1.0)),
                     (0.7, FracOUParams(1.3, 0.5))))


@pytest.mark.parametrize("n", (1, 2, 257))
@pytest.mark.parametrize("t0", (0.0, 0.37))
def test_structural_reduced_grams_match_kernel_grams(t0, n):
    grid = TimeGrid(t0, 0.05, n)
    p = FracOUParams(0.75, 0.5)
    for desc, ref in (
            (ProcessDescriptor("tfbm", p), K.tfbm_gram(p, grid.times())),
            (ProcessDescriptor("mixed", MIX),
             K.mixed_gram(MIX, grid.times()))):
        got = sampler.build_gram(desc, grid)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(got, got.T)


@pytest.mark.parametrize("t0 bessel_elements".split(),
                         ((0.0, 63), (0.5, 63 + 64)))
def test_structural_gram_evaluates_each_argument_once(monkeypatch, t0,
                                                      bessel_elements):
    sizes = []
    real = specfun.besselk_grid

    def counting(nu, x):
        sizes.append(np.size(x))
        return real(nu, x)

    monkeypatch.setattr(specfun, "besselk_grid", counting)
    # every nonzero lambda |tau| is beyond 2, where D takes Bessel K
    sampler.build_gram(ProcessDescriptor("tfbm", FracOUParams(0.75, 50.0)),
                       TimeGrid(t0, 0.05, 64))
    # lag 0 is the closed-form variance, not a Bessel value
    assert sum(sizes) == bessel_elements


@pytest.mark.parametrize("family params dt n".split(), (
    ("tfbm", FracOUParams(0.75, 0.05), 0.01, 512),
    ("tmbm", TmbmParams(HurstProfile.saturating_ramp(0.8, 0.1), 1.0),
     0.005, 256),
))
def test_reduced_gram_origin_row_and_column_are_exactly_zero(family, params,
                                                             dt, n):
    # the sizes the benchmark samples at; each sum in the assembly pairs
    # the same two operands at t = 0, so nothing is left to rounding luck
    gram = sampler.build_gram(ProcessDescriptor(family, params),
                              TimeGrid(0.0, dt, n))
    assert not gram[0].any() and not gram[:, 0].any()
    assert np.array_equal(gram, gram.T)


# one admissible parameter set per entry of the family table
FAMILY_PARAMS = {
    "fou": FracOUParams(0.75, 1.0),
    "tfbm": FracOUParams(1.25, 0.5),
    "mixed": MIX,
    "tfbm2": TwoIndexParams(0.9, 0.8, 1.0),
    "tmbm": TmbmParams(HurstProfile.saturating_ramp(0.8, 0.1), 1.0),
    "tfgn": FracOUParams(1.7, 1.0),
}


@pytest.mark.parametrize("family", tuple(sampler.FAMILIES))
def test_gram_agrees_with_the_family_covariance(family):
    fam, p = sampler.FAMILIES[family], FAMILY_PARAMS[family]
    grid = TimeGrid(0.0, 0.25, 6)
    t = grid.times()
    if fam.lag is not None:
        ref = fam.lag(p, np.abs(t[:, None] - t[None, :]).ravel())
        ref = ref.reshape(grid.n, grid.n)
    else:
        ref = np.array([[fam.cov(p, ti, tj) for tj in t] for ti in t])
    got = sampler.build_gram(ProcessDescriptor(family, p), grid)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _gram_with_whole_matrix_temporaries(process, grid):
    """build_gram as assembled before it held one n^2 array: an int64
    |i - j| matrix indexes the lag row, each reduced part is a whole
    matrix summed from 0, and tmbm takes all np.triu_indices at once."""
    fam, p = sampler.FAMILIES[process.family], process.params
    n, t = grid.n, grid.times()
    lags = grid.dt * np.arange(n)
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    if fam.lag is not None:
        return np.asarray(fam.lag(p, lags), dtype=float)[idx]
    if fam.parts is not None:
        total = 0
        for b, c in fam.parts(p):
            lag = K.fou.structure_alpha_grid(c.alpha, c.lam, lags)
            d_t = lag if grid.t0 == 0.0 else K.fou.structure_alpha_grid(
                c.alpha, c.lam, t)
            total = total + b * b * ((d_t[:, None] + d_t[None, :])
                                     - lag[idx])
        return total
    al = np.array([p.profile.alpha(x) for x in t])
    iu, ju = np.triu_indices(n)
    out = np.empty((n, n))
    for lo in range(0, len(iu), 8192):
        i, j = iu[lo:lo + 8192], ju[lo:lo + 8192]
        d_lag, d_i, d_j = K.fou.structure_alpha_grid(
            0.5 * (al[i] + al[j]), p.lam, np.stack((t[i] - t[j], t[i], t[j])))
        out[i, j] = out[j, i] = (d_i + d_j) - d_lag
    return out


@pytest.mark.parametrize("t0", (0.0, 0.5))
@pytest.mark.parametrize("family", tuple(sampler.FAMILIES))
def test_gram_is_bitwise_the_whole_matrix_assembly(family, t0):
    # 150 points span three row blocks and twelve tmbm pair blocks
    desc = ProcessDescriptor(family, FAMILY_PARAMS[family])
    grid = TimeGrid(t0, 0.02, 150)
    got = sampler.build_gram(desc, grid)
    assert got.flags.c_contiguous
    assert got.tobytes() == _gram_with_whole_matrix_temporaries(
        desc, grid).tobytes()


_PEAK_N = 1024


@pytest.mark.parametrize("family params t0 dt".split(), (
    ("fou", FracOUParams(0.75, 1.0), 0.0, 0.005),
    ("tfbm", FracOUParams(0.75, 0.05), 0.0, 0.005),
    ("tfbm", FracOUParams(0.75, 0.05), 0.5, 0.005),
    ("mixed", MIX, 0.0, 0.005),
    # lambda t <= 1: traced, D's Bessel route takes over 10 s here; the
    # next test bounds its pair blocks there
    ("tmbm", TmbmParams(HurstProfile.saturating_ramp(0.8, 0.1), 1.0), 0.0,
     0.001),
), ids=("fou", "tfbm", "tfbm-t0", "mixed", "tmbm"))
def test_exact_sampling_holds_about_one_gram(monkeypatch, family, params,
                                            t0, dt):
    # the Gram, its live part, its factor and the draws' operand share one
    # n^2 buffer; the rest is panels, row blocks and D's pair blocks.  One
    # traced run reads the peak as build_gram returns, then at the end
    peaks = {}
    real = sampler.build_gram

    def build_gram(process, grid):
        gram = real(process, grid)
        peaks["build_gram"] = tracemalloc.get_traced_memory()[1]
        return gram

    monkeypatch.setattr(sampler, "build_gram", build_gram)
    tracemalloc.start()
    try:
        sample_exact(ProcessDescriptor(family, params),
                     TimeGrid(t0, dt, _PEAK_N), 3, 4)
        peaks["sample_exact"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2
    for name, peak in peaks.items():
        assert peak <= 1.25 * 8 * _PEAK_N ** 2, (name, peak / 8 / _PEAK_N ** 2)


def test_a_tmbm_pair_block_works_in_a_fifth_of_the_gram():
    # one D call of tmbm_gram at n = _PEAK_N, every argument on D's Bessel
    # route (lambda |tau| > 2), the route with the most working memory
    k = K.tmbm._pair_block(_PEAK_N)
    t = np.linspace(2.5, 5.0, k)
    alpha, taus = np.linspace(0.8, 0.9, k), np.stack((t, 2.0 * t, 3.0 * t))
    tracemalloc.start()
    try:
        K.fou.structure_alpha_grid(alpha, 1.0, taus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * 8 * _PEAK_N ** 2


# --- jitter ladder -----------------------------------------------------------

def test_jitter_zero_for_well_conditioned_gram():
    p = ProcessDescriptor("fou", FracOUParams(0.75, 1.0))
    path = sample_exact(p, TimeGrid(0.0, 0.5, 8), 1, 1)[0]
    assert path.jitter == 0.0


def test_jitter_ladder_rescues_rank_deficient_matrix():
    gram = np.ones((3, 3))
    factor, jit = sampler._cholesky_with_jitter(gram.copy())
    assert jit > 0.0
    resid = np.abs(factor @ factor.T - gram).max()
    assert resid <= 1e-9


def test_jitter_ladder_restores_a_matrix_spanning_three_panels():
    # I + 1 1^T on the first two panels, all ones on the last two rows:
    # the two panels factor, the third's Schur complement is the singular
    # 2 x 2 block of 1/129, so the first rung restores the lower triangle
    # the two panels overwrote from the untouched upper one
    n = 2 * sampler._PANEL + 2
    gram = np.ones((n, n)) + np.diag(np.r_[np.ones(n - 2), 0.0, 0.0])
    work = gram.copy()
    factor, jit = sampler._cholesky_with_jitter(work)
    assert factor is work
    assert jit > 0.0
    assert np.array_equal(np.triu(factor, 1), np.zeros((n, n)))
    resid = np.abs(factor @ factor.T - (gram + jit * np.eye(n))).max()
    assert resid <= 8 * n * np.finfo(float).eps


def test_factor_bits_do_not_depend_on_the_upper_triangle():
    gram = sampler.build_gram(
        ProcessDescriptor("fou", FracOUParams(0.75, 1.0)),
        TimeGrid(0.0, 0.1, 150))
    junk = gram.copy()
    junk[np.triu_indices(150, 1)] = np.nan
    want, _ = sampler._cholesky_with_jitter(gram.copy())
    got, _ = sampler._cholesky_with_jitter(junk)
    assert got.tobytes() == want.tobytes()


def test_panel_factor_meets_the_componentwise_cholesky_bound():
    # |A - L L^T| <= gamma_(n+1) |L| |L|^T (Higham, Accuracy and Stability
    # of Numerical Algorithms, Thm 10.3) on the benchmark's tfbm grid,
    # eight panels of live points
    gram = sampler.build_gram(
        ProcessDescriptor("tfbm", FracOUParams(0.75, 0.05)),
        TimeGrid(0.0, 0.01, 513))[1:, 1:]
    factor, jit = sampler._cholesky_with_jitter(gram.copy())
    assert jit == 0.0
    n, u = len(gram), np.finfo(float).eps / 2
    bound = (n + 1) * u / (1 - (n + 1) * u) * (np.abs(factor)
                                                @ np.abs(factor).T)
    assert np.all(np.abs(factor @ factor.T - gram) <= bound)


def test_jitter_ladder_rejects_indefinite_matrix():
    with pytest.raises(NotPSD):
        sampler._cholesky_with_jitter(np.diag([2.0, -1.0]))
    with pytest.raises(NotPSD):
        sampler._cholesky_with_jitter(np.diag([0.0, 0.0]))


def test_jitter_ladder_failure_says_the_grid_is_numerically_singular():
    # two points whose covariance exceeds both variances by more than the
    # cap, so no jitter rung rescues them.  With D accurate, no tfbm grid
    # of an 840-grid scan (alpha 0.55-5.5, lambda 1e-4-100) fails the
    # ladder, nor do n = 4096 grids up to alpha = 5.5: a failure is the
    # grid's resolution, not the kernel, and the message says so
    gram = np.array([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]])
    with pytest.raises(NotPSD, match="numerically singular on this grid; "
                                     "use fewer points or a larger dt"):
        sampler._cholesky_with_jitter(gram)


def test_grid_once_past_the_jitter_cap_factors_at_its_exact_rung():
    # tfbm at alpha = 2.5, lambda = 1e-3 exited 3 while D subtracted
    # sigma^2 - C(tau) (relative error ~1e-4 at lambda dt = 1e-5); its Gram
    # computed in 50 digits and rounded once factors at the 1e-13 rung
    gram = sampler.build_gram(
        ProcessDescriptor("tfbm", FracOUParams(2.5, 1e-3)),
        TimeGrid(0.0, 0.01, 256))[1:, 1:]
    rung = 1e-13 * np.trace(gram) / 255 * (1.0 + 1e-12)
    _, jit = sampler._cholesky_with_jitter(gram)
    assert jit <= rung


# --- validation --------------------------------------------------------------

def test_exact_sampler_caps_grid_size():
    p = ProcessDescriptor("fou", FracOUParams(0.75, 1.0))
    with pytest.raises(DomainError):
        sample_exact(p, TimeGrid(0.0, 0.01, sampler.MAX_EXACT_N + 1), 1, 1)
    with pytest.raises(DomainError):
        sample_exact(p, TimeGrid(0.0, 0.1, 4), 1, 0)


def test_descriptor_validation():
    with pytest.raises(DomainError):
        ProcessDescriptor("brownian", FracOUParams(0.75, 1.0))
    with pytest.raises(DomainError):
        ProcessDescriptor("fou", TwoIndexParams(0.9, 0.8, 1.0))
    bare = ProcessDescriptor("fou", None)
    assert bare.tempering_rate() is None
    with pytest.raises(DomainError):
        sample_exact(bare, TimeGrid(0.0, 0.1, 4), 1, 1)


def test_descriptor_tempering_rate_of_mixture_is_largest():
    m = MixtureParams(((1.0, FracOUParams(0.7, 1.0)),
                       (0.5, FracOUParams(1.3, 0.25))))
    assert ProcessDescriptor("mixed", m).tempering_rate() == 1.0


def test_grid_validation_and_times():
    with pytest.raises(DomainError):
        TimeGrid(0.0, 0.0, 4)
    with pytest.raises(DomainError):
        TimeGrid(0.0, 0.1, 0)
    with pytest.raises(DomainError):
        TimeGrid(1e308, 1e308, 10)
    g = TimeGrid(1.0, 0.25, 3)
    assert np.array_equal(g.times(), np.array([1.0, 1.25, 1.5]))


# --- circulant-embedding route ----------------------------------------------

def test_spectral_rerun_is_bit_identical_and_pinned():
    p = FracOUParams(1.25, 0.5)
    grid = TimeGrid(0.0, 0.25, 64)
    a = sample_tfbm_spectral(p, grid, 31)
    b = sample_tfbm_spectral(p, grid, 31)
    assert np.array_equal(a.values, b.values)
    assert a.values[0] == 0.0
    assert a.method == "spectral_increments"
    assert a.seed == derive_substream_seed(31, 0)


def test_spectral_needs_origin_grid():
    with pytest.raises(DomainError):
        sample_tfbm_spectral(FracOUParams(0.75, 1.0),
                             TimeGrid(1.0, 0.1, 8), 1)


def test_spectral_variance_tracks_kernel_in_mc():
    p = FracOUParams(1.25, 0.5)
    grid = TimeGrid(0.0, 0.25, 33)
    vals = np.stack([
        sample_tfbm_spectral(p, grid, derive_substream_seed(8, i)).values
        for i in range(256)])
    emp = float((vals[:, -1] ** 2).mean())
    ref = K.tfbm_var(p, grid.dt * 32)
    assert abs(emp - ref) <= 5.0 * ref * math.sqrt(2.0 / 256.0)


def test_embedding_clamps_borderline_negative_eigenvalue():
    # min circulant eigenvalue is -1e-9 against a top of about 2: inside
    # the clamp window, so the draw proceeds with a warning
    r = np.array([1.0, 0.5 + 2.5e-10, 0.0])
    with pytest.warns(EmbeddingWarning):
        eig = sampler._embedding_eigenvalues(r)
    assert eig.min() == 0.0


def test_embedding_rejects_material_negative_eigenvalue():
    with pytest.raises(EmbeddingFailure):
        sampler._embedding_eigenvalues(np.array([1.0, 0.9, 0.0]))


def test_spectral_falls_back_to_exact_on_embedding_failure(monkeypatch):
    def boom(r):
        raise EmbeddingFailure("synthetic")

    monkeypatch.setattr(sampler, "_embedding_eigenvalues", boom)
    p = FracOUParams(1.25, 0.5)
    with pytest.warns(EmbeddingWarning, match="falling back"):
        path = sample_tfbm_spectral(p, TimeGrid(0.0, 0.25, 16), 5)
    assert path.method == "cholesky"
    assert path.values[0] == 0.0


@pytest.mark.parametrize("n", (1, 2, 64))
def test_spectral_batch_equals_per_path_calls(n):
    p = FracOUParams(1.25, 0.5)
    grid = TimeGrid(0.0, 0.25, n)
    batch = sample_spectral(ProcessDescriptor("tfbm", p), grid, 17, 5)
    assert len(batch) == 5
    for i, path in enumerate(batch):
        one = sample_tfbm_spectral(p, grid, derive_substream_seed(17, i))
        assert path.seed == one.seed
        assert path.method == one.method == "spectral_increments"
        assert path.values.tobytes() == one.values.tobytes()


def test_spectral_batch_fallback_builds_one_gram(monkeypatch):
    def boom(r):
        raise EmbeddingFailure("synthetic")

    grams = []
    real = sampler.build_gram

    def counting(process, grid):
        grams.append(grid)
        return real(process, grid)

    monkeypatch.setattr(sampler, "_embedding_eigenvalues", boom)
    monkeypatch.setattr(sampler, "build_gram", counting)
    p = FracOUParams(1.25, 0.5)
    grid = TimeGrid(0.0, 0.25, 16)
    with pytest.warns(EmbeddingWarning, match="falling back") as caught:
        batch = sample_spectral(ProcessDescriptor("tfbm", p), grid, 5, 4)
    assert len(grams) == 1
    assert len(caught) == 1
    with pytest.warns(EmbeddingWarning):
        singles = [sample_tfbm_spectral(p, grid, derive_substream_seed(5, i))
                   for i in range(4)]
    for path, one in zip(batch, singles):
        assert path.method == "cholesky"
        assert path.seed == one.seed
        assert np.array_equal(path.values, one.values)


def test_spectral_batch_fallback_across_block_columns(monkeypatch):
    # at the benchmark's size, batch paths 63 and 65 sit in columns 63
    # and 1 of their blocks, each single call's path in column 0
    def boom(r):
        raise EmbeddingFailure("synthetic")

    monkeypatch.setattr(sampler, "_embedding_eigenvalues", boom)
    p = FracOUParams(0.75, 0.05)
    grid = TimeGrid(0.0, 0.01, 512)
    with pytest.warns(EmbeddingWarning):
        batch = sample_spectral(ProcessDescriptor("tfbm", p), grid, 11, 70)
        for i in (63, 65):
            one = sample_tfbm_spectral(p, grid, derive_substream_seed(11, i))
            assert batch[i].values.tobytes() == one.values.tobytes()


def test_spectral_single_point_grid_is_origin():
    path = sample_tfbm_spectral(FracOUParams(0.75, 1.0),
                                TimeGrid(0.0, 0.1, 1), 2)
    assert np.array_equal(path.values, np.zeros(1))


def test_spectral_two_point_grid_matches_manual_draw():
    p = FracOUParams(0.75, 1.0)
    path = sample_tfbm_spectral(p, TimeGrid(0.0, 0.3, 2), 9)
    z = sampler._rng_for(path.seed).standard_normal(1)
    ref = math.sqrt(K.tfbm_var(p, 0.3)) * z[0]
    assert abs(path.values[1] - ref) <= 1e-13 * abs(ref)


# --- reduced families read from the table ------------------------------------

@pytest.mark.parametrize("family", ("tfbm", "mixed"))
def test_a_table_entry_is_all_a_reduced_family_needs(monkeypatch, family):
    # a copy of the entry under a new name samples, by both routes, the
    # bytes the original does, with no edit anywhere but the table
    monkeypatch.setitem(sampler.FAMILIES, "copy",
                        dataclasses.replace(sampler.FAMILIES[family]))
    p = FAMILY_PARAMS[family]
    orig, copy = ProcessDescriptor(family, p), ProcessDescriptor("copy", p)
    grid = TimeGrid(0.0, 0.25, 17)
    assert np.array_equal(sampler.build_gram(copy, grid),
                          sampler.build_gram(orig, grid))
    assert copy.tempering_rate() == orig.tempering_rate()
    for sample in sampler.METHODS.values():
        for a, b in zip(sample(copy, grid, 4, 3), sample(orig, grid, 4, 3)):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.process is copy


def test_mixed_spectral_embeds_the_gram_increment_covariance(monkeypatch):
    embedded = []
    real = sampler._embedding_eigenvalues

    def recording(r):
        embedded.append(r)
        return real(r)

    monkeypatch.setattr(sampler, "_embedding_eigenvalues", recording)
    desc = ProcessDescriptor("mixed", MIX)
    grid = TimeGrid(0.0, 0.05, 65)
    paths = sample_spectral(desc, grid, 3, 2)
    (r,) = embedded
    inc = np.diff(np.diff(sampler.build_gram(desc, grid), axis=0), axis=1)
    lag = np.abs(np.arange(grid.n - 1)[:, None] - np.arange(grid.n - 1))
    assert np.abs(r[lag] - inc).max() <= 1e-12 * np.abs(inc).max()
    for path in paths:
        assert path.method == "spectral_increments"
        assert path.values[0] == 0.0
