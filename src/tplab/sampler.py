"""Exact and spectral Gaussian path synthesis with reproducible
substream seeding.

Exact sampling assembles the dense Gram from kernel values at the grid
lags and times where the family allows, Cholesky-factorizes it (with an
adaptive jitter ladder for matrices at the edge of numerical rank), and
multiplies standard-normal draws.  Stationary-increment paths can
instead be synthesized by circulant embedding of the increment
covariance, computed once per batch, and cumulative summation.

Every path is driven by its own counter-based RNG stream keyed by a
substream seed derived from (master seed, path index), so each path is
a pure function of (seed, index), whatever the number of paths drawn.
Exact draws are stacked into fixed-width blocks with one BLAS product
per block; TPLAB_THREADS is not read, and the last bits of a path may
differ between BLAS thread counts.

FAMILIES is the one table of process families, read by the Gram
assembly and the CLI: a family is added there and nowhere else.
"""

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EmbeddingFailure, EmbeddingWarning, NotPSD
from .kernels import fou, mixed, tfbm, tfgn, tmbm, twoindex
from .kernels.params import (FracOUParams, MixtureParams, TmbmParams,
                             TwoIndexParams)

RNG_NAME = "philox4x64"
MAX_EXACT_N = 4096

# paths per factor @ Z product; the last block is zero-padded to full
# width, so a path's column position and the GEMM shape depend only on
# its index and its bits do not depend on the batch size
_BLOCK = 64

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    dt: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "n", int(self.n))
        for name in ("t0", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError("%s must be finite, got %g"
                                  % (name, getattr(self, name)))
        if not self.dt > 0.0:
            raise DomainError("dt must be positive, got %g" % self.dt)
        if self.n < 1:
            raise DomainError("n must be at least 1, got %d" % self.n)
        if not math.isfinite(self.t0 + self.n * self.dt):
            raise DomainError("grid extent overflows floating range")

    def times(self):
        return self.t0 + self.dt * np.arange(self.n)


@dataclass(frozen=True)
class ProcessDescriptor:
    """Family tag plus its parameter object; params may be None for
    paths deserialized from files (family tag only)."""

    family: str
    params: object = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(
                "unknown family %r; expected one of %s"
                % (self.family, ", ".join(FAMILIES)))
        if self.params is not None:
            want = FAMILIES[self.family].params
            if not isinstance(self.params, want):
                raise DomainError(
                    "family %r needs %s parameters"
                    % (self.family, want.__name__))

    def tempering_rate(self):
        """Largest tempering rate present, or None if parameters are
        not attached; used by estimator regime checks."""
        p = self.params
        if p is None:
            return None
        if isinstance(p, MixtureParams):
            return max(c.lam for _, c in p.components)
        return p.lam


@dataclass(frozen=True)
class GaussianPath:
    grid: TimeGrid
    values: np.ndarray = field(repr=False)
    process: Optional[ProcessDescriptor]
    seed: int
    method: str
    jitter: float = 0.0
    rng_name: str = RNG_NAME


def derive_substream_seed(master, path_index):
    """Injective 64-bit substream key for (master, path_index).

    The affine pre-mix master + (i+1)*odd is injective in i modulo
    2^64 and the avalanche finalizer is a bijection, so distinct path
    indices under one master never collide.
    """
    z = (int(master) + (int(path_index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _rng_for(seed):
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


# --- Gram assembly ------------------------------------------------------


def _stationary_gram(cov_of_lag, grid):
    """Toeplitz Gram from a vectorized lag-covariance function."""
    lags = grid.dt * np.arange(grid.n)
    row = np.asarray(cov_of_lag(lags), dtype=float)
    idx = np.abs(np.arange(grid.n)[:, None] - np.arange(grid.n)[None, :])
    return row[idx]


def _reduced_gram(p: FracOUParams, grid):
    """tfbm Gram C_fou(t_i - t_j) - C_fou(t_i) - C_fou(t_j) + sigma^2
    from the kernel at the n grid lags and the n grid times (row 0 of the
    lag Gram when t0 = 0); bitwise symmetric.  sigma^2 is the lag Gram's
    own C_fou(0), so at t0 = 0 both sums in row and column 0 hold the
    same two operands and cancel exactly."""
    fou.require_reduced_lags(p.lam, grid.dt * (grid.n > 1), grid.times())
    lag = _stationary_gram(lambda lg: fou.fou_cov_values(p, lg), grid)
    c_t = lag[0] if grid.t0 == 0.0 else fou.fou_cov_values(p, grid.times())
    return (lag + lag[0, 0]) - (c_t[:, None] + c_t[None, :])


def _mixed_gram(m: MixtureParams, grid):
    return sum(b * b * _reduced_gram(c, grid) for b, c in m.components)


def _twoindex_lag(q: TwoIndexParams, lags, tol=None):
    return np.array([twoindex.twoindex_cov(q, lg, tol).value for lg in lags])


@dataclass(frozen=True)
class Family:
    """Parameter type, the config keys its constructor takes in order,
    and the covariance: lag(p, lags, tol=None) at each lag for a
    stationary family (tol bounds the absolute error where quadrature
    computes it; closed forms ignore it), else the Gram gram(p, grid)
    and the two-time cov(p, t, s)."""

    params: type
    needs: tuple
    lag: Optional[Callable] = None
    gram: Optional[Callable] = None
    cov: Optional[Callable] = None


FAMILIES = {
    "fou": Family(FracOUParams, ("alpha", "lam"),
                  lag=lambda p, lags, tol=None: fou.fou_cov_values(p, lags)),
    "tfbm": Family(FracOUParams, ("alpha", "lam"), gram=_reduced_gram,
                   cov=tfbm.tfbm_cov),
    "mixed": Family(MixtureParams, ("components",), gram=_mixed_gram,
                    cov=mixed.mixed_cov),
    "tfbm2": Family(TwoIndexParams, ("alpha", "beta", "lam"),
                    lag=_twoindex_lag),
    "tmbm": Family(TmbmParams, ("profile", "lam"),
                   gram=lambda p, grid: tmbm.tmbm_gram(p.profile, p.lam,
                                                       grid.times()),
                   cov=lambda p, t, s: tmbm.tmbm_cov(p.profile, p.lam, t, s)),
    "tfgn": Family(FracOUParams, ("alpha", "lam"),
                   lag=lambda p, lags, tol=None: tfgn.tfgn_cov_values(
                       p.alpha, p.lam, lags)),
}


def build_gram(process: ProcessDescriptor, grid: TimeGrid):
    """Dense covariance matrix of the family on the grid."""
    if process.params is None:
        raise DomainError("sampling needs parameter values, not just a "
                          "family tag")
    fam, p = FAMILIES[process.family], process.params
    if fam.lag is None:
        return fam.gram(p, grid)
    return _stationary_gram(lambda lags: fam.lag(p, lags), grid)


def _cholesky_with_jitter(gram):
    """Lower factor plus the diagonal jitter that made it succeed.

    Ladder: 1e-14 * mean diagonal, stepping by 10 up to the cap
    1e-10 * trace/n.  Exceeding the cap means the kernel produced a
    genuinely indefinite matrix, which is a bug, not a user error.
    """
    n = gram.shape[0]
    mean_diag = float(np.trace(gram)) / n
    if mean_diag <= 0.0:
        raise NotPSD("Gram trace is not positive")
    try:
        return np.linalg.cholesky(gram), 0.0
    except np.linalg.LinAlgError:
        pass
    jit = 1e-14 * mean_diag
    cap = 1e-10 * mean_diag
    while jit <= cap * (1.0 + 1e-12):
        try:
            factor = np.linalg.cholesky(gram + jit * np.eye(n))
            return factor, jit
        except np.linalg.LinAlgError:
            jit *= 10.0
    raise NotPSD(
        "Cholesky failed with jitter up to %g (cap 1e-10*trace/n); the "
        "kernel Gram matrix is not positive semidefinite" % cap)


def sample_exact(process: ProcessDescriptor, grid: TimeGrid, seed,
                 n_paths):
    """Exact Gaussian paths through dense Cholesky factorization.

    Grid points with zero kernel variance (the pinned origin of the
    reduced families) are excluded from the factorization and set to
    exactly 0 in every path.
    """
    if n_paths < 1:
        raise DomainError("n_paths must be at least 1")
    return _cholesky_paths(process, grid, [
        derive_substream_seed(seed, i) for i in range(int(n_paths))])


def _cholesky_paths(process, grid, subs):
    """Paths from one Gram and factor; path k draws from stream subs[k].

    The draws go in fixed-width blocks of _BLOCK columns, one column per
    path, and each block is one factor @ Z product.  Path k is a pure
    function of (subs[k], k), whatever len(subs) is.  Its last bits may
    differ between BLAS thread counts, as any BLAS product's may.
    """
    if grid.n > MAX_EXACT_N:
        raise DomainError(
            "exact sampling is capped at n = %d points, got %d"
            % (MAX_EXACT_N, grid.n))
    gram = build_gram(process, grid)
    live = np.diag(gram) > 0.0
    factor, jit = _cholesky_with_jitter(gram[np.ix_(live, live)])
    del gram  # the draws need only the factor; frees n^2 floats for them
    n_live = int(live.sum())
    values = np.zeros((len(subs), grid.n))
    z = np.zeros((_BLOCK, n_live))
    for start in range(0, len(subs), _BLOCK):
        block = subs[start:start + _BLOCK]
        for j, sub in enumerate(block):
            z[j] = _rng_for(sub).standard_normal(n_live)
        z[len(block):] = 0.0
        values[start:start + len(block), live] = (factor @ z.T).T[:len(block)]
    return [GaussianPath(grid, row, process, sub, "cholesky", jitter=jit)
            for row, sub in zip(values, subs)]


# --- circulant-embedding route for stationary increments ----------------


def _embedding_eigenvalues(r):
    """Eigenvalues of the even-extension circulant of lag covariances
    r_0..r_(m-1); clamps small negatives, fails on material ones."""
    m = len(r)
    circ = np.concatenate([r, r[m - 2:0:-1]])
    eig = np.fft.fft(circ).real
    top = float(eig.max())
    if eig.min() < -1e-8 * top:
        raise EmbeddingFailure(
            "embedding eigenvalues reach %g (most negative) against "
            "maximum %g" % (float(eig.min()), top))
    if eig.min() < 0.0:
        warnings.warn(
            "clamped %d slightly negative embedding eigenvalues"
            % int((eig < 0.0).sum()), EmbeddingWarning)
        eig = np.maximum(eig, 0.0)
    return eig


def _circulant_normal(eig, rng):
    """One draw of the first half of a stationary circulant sequence."""
    big = len(eig)
    z = rng.standard_normal(big)
    half = big // 2
    spec = np.zeros(big, dtype=complex)
    spec[0] = math.sqrt(eig[0]) * z[0]
    spec[half] = math.sqrt(eig[half]) * z[1]
    ks = np.arange(1, half)
    re = z[2::2][:half - 1]
    im = z[3::2][:half - 1]
    spec[ks] = np.sqrt(0.5 * eig[ks]) * (re + 1j * im)
    spec[big - ks] = np.conj(spec[ks])
    return np.fft.fft(spec).real / math.sqrt(big)


def sample_tfbm_spectral(p: FracOUParams, grid: TimeGrid, seed):
    """One spectral path, drawn from derive_substream_seed(seed, 0)."""
    return _spectral_paths(p, grid, [seed])[0]


def sample_tfbm_spectral_batch(p: FracOUParams, grid: TimeGrid, seed,
                               n_paths):
    """n_paths spectral paths; path i equals
    sample_tfbm_spectral(p, grid, derive_substream_seed(seed, i)), on the
    exact fallback only where the BLAS gives a block product's columns
    (i % 64 here, 0 there) the same bits in every position."""
    if n_paths < 1:
        raise DomainError("n_paths must be at least 1")
    return _spectral_paths(p, grid, [
        derive_substream_seed(seed, i) for i in range(int(n_paths))])


def _spectral_paths(p, grid, seeds):
    """Reduced-process paths via one circulant embedding of the
    stationary increment covariance, then cumulative summation from the
    pinned origin; path k draws from derive_substream_seed(seeds[k], 0).
    Falls back (with one warning) to exact sampling if the embedding is
    not nonnegative definite."""
    if grid.t0 != 0.0:
        raise DomainError("spectral synthesis needs a grid starting at "
                          "t0 = 0, got %g" % grid.t0)
    process = ProcessDescriptor("tfbm", p)
    subs = [derive_substream_seed(seed, 0) for seed in seeds]
    m = grid.n - 1
    fou.require_reduced_lags(p.lam, grid.dt * (m > 0))
    c = fou.fou_cov_values(p, grid.dt * np.arange(m + 1))
    j = np.arange(m)
    r = 2.0 * c[j] - c[j + 1] - c[np.abs(j - 1)]
    eig = None
    if m >= 2:  # one increment or none needs no circulant
        try:
            eig = _embedding_eigenvalues(r)
        except EmbeddingFailure as exc:
            warnings.warn(
                "circulant embedding failed (%s); falling back to exact "
                "sampling" % exc, EmbeddingWarning)
            return _cholesky_paths(process, grid, subs)
    paths = []
    for sub in subs:
        rng = _rng_for(sub)
        inc = (np.sqrt(r) * rng.standard_normal(m) if eig is None
               else _circulant_normal(eig, rng)[:m])
        paths.append(GaussianPath(
            grid, np.concatenate([[0.0], np.cumsum(inc)]), process, sub,
            "spectral_increments"))
    return paths
