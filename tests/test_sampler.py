"""Path synthesis: substream seeding, exact-sampler reproducibility
(including invariance to the worker count), zero-variance pinning, the
jitter ladder, and the circulant-embedding route with its clamp /
fallback behavior.
"""

import math

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
                           sample_tfbm_spectral, sample_tfbm_spectral_batch)


# --- substream seeding -------------------------------------------------------

@settings(max_examples=200, deadline=None)
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


def test_exact_results_do_not_depend_on_worker_count(monkeypatch):
    p = ProcessDescriptor("tfbm", FracOUParams(1.25, 0.5))
    grid = TimeGrid(0.0, 0.2, 12)
    monkeypatch.setenv("TPLAB_THREADS", "1")
    serial = sample_exact(p, grid, 99, 6)
    monkeypatch.setenv("TPLAB_THREADS", "5")
    threaded = sample_exact(p, grid, 99, 6)
    for pa, pb in zip(serial, threaded):
        assert np.array_equal(pa.values, pb.values)


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
    sampler.build_gram(ProcessDescriptor("tfbm", FracOUParams(0.75, 0.5)),
                       TimeGrid(t0, 0.05, 64))
    # lag 0 is the closed-form variance, not a Bessel value
    assert sum(sizes) == bessel_elements


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


# --- jitter ladder -----------------------------------------------------------

def test_jitter_zero_for_well_conditioned_gram():
    p = ProcessDescriptor("fou", FracOUParams(0.75, 1.0))
    path = sample_exact(p, TimeGrid(0.0, 0.5, 8), 1, 1)[0]
    assert path.jitter == 0.0


def test_jitter_ladder_rescues_rank_deficient_matrix():
    gram = np.ones((3, 3))
    factor, jit = sampler._cholesky_with_jitter(gram)
    assert jit > 0.0
    resid = np.abs(factor @ factor.T - gram).max()
    assert resid <= 1e-9


def test_jitter_ladder_rejects_indefinite_matrix():
    with pytest.raises(NotPSD):
        sampler._cholesky_with_jitter(np.diag([2.0, -1.0]))
    with pytest.raises(NotPSD):
        sampler._cholesky_with_jitter(np.diag([0.0, 0.0]))


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
    batch = sample_tfbm_spectral_batch(p, grid, 17, 5)
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
        batch = sample_tfbm_spectral_batch(p, grid, 5, 4)
    assert len(grams) == 1
    assert len(caught) == 1
    with pytest.warns(EmbeddingWarning):
        singles = [sample_tfbm_spectral(p, grid, derive_substream_seed(5, i))
                   for i in range(4)]
    for path, one in zip(batch, singles):
        assert path.method == "cholesky"
        assert path.seed == one.seed
        assert np.array_equal(path.values, one.values)


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
