"""Exact and spectral Gaussian path synthesis with reproducible
substream seeding.

Exact sampling assembles the dense Gram from kernel values at the grid
lags and times where the family allows, Cholesky-factorizes it (with an
adaptive jitter ladder for matrices at the edge of numerical rank), and
multiplies standard-normal draws.  A reduced family's paths can
instead be synthesized by circulant embedding of the increment
covariance, computed once per batch, and cumulative summation.

Every path is driven by its own counter-based RNG stream keyed by a
substream seed derived from (master seed, path index), so each path is
a pure function of (seed, index), whatever the number of paths drawn.
The exact route holds one n^2 buffer: the Gram is assembled in it, its
live part factored in place in fixed panels, and the draws are stacked
into fixed-width blocks with one BLAS product per block.  Exact paths
are byte-identical for any BLAS thread count (OPENBLAS_NUM_THREADS).

FAMILIES is the one table of process families, read by the Gram
assembly, both samplers and the CLI: a family is added there and
nowhere else.  METHODS names the samplers.
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
        parts = FAMILIES[self.family].parts
        if parts is not None:
            return max(c.lam for _, c in parts(p))
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


def _toeplitz(row):
    """Read-only n x n view T[i, j] = row[|i - j|] of a lag row, strided
    over one 2n - 1 array: no n^2 index or copy."""
    n = len(row)
    ext = np.concatenate([row[:0:-1], row])
    return np.lib.stride_tricks.sliding_window_view(ext, n)[::-1]


# Gram rows per block where a mixture adds its later parts
_ROWS = 64


def _reduced_gram(parts, grid):
    """sum over parts of b^2 ((D(t_i) + D(t_j)) - D(t_i - t_j)), from the
    structure function at the n grid lags and the n grid times (the lag
    row itself when t0 = 0); bitwise symmetric.  The first part fills the
    one n^2 array in place, and each later part is added to it in blocks
    of _ROWS rows.  At t0 = 0, D(0) = 0 makes row and column 0 hold
    D(t_j) - D(t_j), exactly 0."""
    terms = []
    for b, p in parts:
        lag = fou.structure_alpha_grid(p.alpha, p.lam,
                                       grid.dt * np.arange(grid.n))
        d_t = lag if grid.t0 == 0.0 else fou.structure_alpha_grid(
            p.alpha, p.lam, grid.times())
        terms.append((b * b, d_t, _toeplitz(lag)))
    (w, d_t, lag), rest = terms[0], terms[1:]
    out = np.add.outer(d_t, d_t)
    out -= lag
    out *= w
    for r in range(0, grid.n, _ROWS):
        rows = slice(r, r + _ROWS)
        for w, d_t, lag in rest:
            term = np.add.outer(d_t[rows], d_t)
            term -= lag[rows]
            term *= w
            out[rows] += term
    return out


@dataclass(frozen=True)
class Family:
    """Parameter type, the config keys its constructor takes in order,
    and the covariance: lag(p, lags) at each lag for a stationary
    family, else the two-time cov(p, t, s) and either the Gram
    gram(p, grid) or, for a reduced family, the independent reduced fOU
    processes it sums, as parts(p) = ((weight, FracOUParams), ...)."""

    params: type
    needs: tuple
    lag: Optional[Callable] = None
    gram: Optional[Callable] = None
    cov: Optional[Callable] = None
    parts: Optional[Callable] = None


FAMILIES = {
    "fou": Family(FracOUParams, ("alpha", "lam"),
                  lag=lambda p, lags: fou.fou_cov(p, lags)),
    "tfbm": Family(FracOUParams, ("alpha", "lam"), cov=tfbm.tfbm_cov,
                   parts=lambda p: ((1.0, p),)),
    "mixed": Family(MixtureParams, ("components",), cov=mixed.mixed_cov,
                    parts=lambda m: m.components),
    "tfbm2": Family(TwoIndexParams, ("alpha", "beta", "lam"),
                    lag=lambda p, lags: twoindex.twoindex_cov(
                        p, np.asarray(lags, dtype=float)).value),
    "tmbm": Family(TmbmParams, ("profile", "lam"),
                   gram=lambda p, grid: tmbm.tmbm_gram(p.profile, p.lam,
                                                       grid.times()),
                   cov=lambda p, t, s: tmbm.tmbm_cov(p.profile, p.lam, t, s)),
    "tfgn": Family(FracOUParams, ("alpha", "lam"),
                   lag=lambda p, lags: tfgn.tfgn_cov_values(
                       p.alpha, p.lam, lags)),
}


def _params(process):
    if process.params is None:
        raise DomainError("sampling needs parameter values, not just a "
                          "family tag")
    return process.params


def build_gram(process: ProcessDescriptor, grid: TimeGrid):
    """Dense covariance matrix of the family on the grid."""
    fam, p = FAMILIES[process.family], _params(process)
    if fam.parts is not None:
        return _reduced_gram(fam.parts(p), grid)
    if fam.lag is None:
        return fam.gram(p, grid)
    lags = grid.dt * np.arange(grid.n)
    return _toeplitz(np.asarray(fam.lag(p, lags), dtype=float)).copy()


# columns per panel of the in-place Cholesky factorization
_PANEL = 64
_LOWER = np.tri(_PANEL, dtype=bool)


def _panels(n):
    """(j0, j1, lower-triangle mask of the diagonal block) per panel."""
    for j0 in range(0, n, _PANEL):
        j1 = min(j0 + _PANEL, n)
        yield j0, j1, _LOWER[:j1 - j0, :j1 - j0]


def _factor_in_place(a):
    """Lower Cholesky factor of a into a's lower triangle, diagonal
    included, in fixed panels of _PANEL columns; reads only that lower
    triangle, so the strict upper triangle keeps what it held.  Raises
    LinAlgError where a panel's diagonal block is not positive definite.

    Panel [j0, j1) takes one GEMM update by the factor's columns left of
    it, np.linalg.cholesky on its diagonal block, and a solve for the
    rows below (the left-looking form of LAPACK's blocked potrf).  Each
    call's shape is set by n alone, so the factor's bits do not depend on
    the BLAS thread count; np.linalg.cholesky on the whole matrix gave
    other bits at one and two OpenBLAS threads from n = 128 up."""
    n = a.shape[0]
    for j0, j1, lower in _panels(n):
        b = j1 - j0
        if j0:
            col = a[j0:, :j0] @ a[j0:j1, :j0].T
            np.subtract(a[j0:, j0:j1], col, out=col)
        else:
            col = a[:, :j1]
        l11 = np.linalg.cholesky(col[:b])
        if j1 < n:
            a[j1:, j0:j1] = np.linalg.solve(l11, col[b:].T).T
        np.copyto(a[j0:j1, j0:j1], l11, where=lower)


def _cholesky_with_jitter(gram):
    """Lower factor plus the diagonal jitter that made it succeed; the
    factor is gram itself, overwritten in place (so pass a copy to keep
    the matrix).

    Ladder: 1e-14 * mean diagonal, stepping by 10 up to the cap
    1e-10 * trace/n.  Between rungs the strict upper triangle, which the
    factorization leaves untouched, restores the lower one.  The
    kernels' entries are accurate to a few ulps, so a Gram that fails at
    the cap is numerically singular on its grid: its points are too close
    for float64 to tell the process apart at them.
    """
    n = gram.shape[0]
    if n == 0:  # every grid point is pinned: nothing to factor
        return gram, 0.0
    diag = np.diagonal(gram).copy()
    mean_diag = float(np.trace(gram)) / n
    if mean_diag <= 0.0:
        raise NotPSD("Gram trace is not positive")
    jit = 0.0
    cap = 1e-10 * mean_diag
    while True:
        try:
            _factor_in_place(gram)
            break
        except np.linalg.LinAlgError:
            jit = 1e-14 * mean_diag if jit == 0.0 else jit * 10.0
        if jit > cap * (1.0 + 1e-12):
            raise NotPSD(
                "Cholesky failed with jitter up to %g (cap 1e-10*trace/n): "
                "the Gram matrix is numerically singular on this grid; use "
                "fewer points or a larger dt" % cap)
        for j0, j1, lower in _panels(n):
            gram[j1:, j0:j1] = gram[j0:j1, j1:].T
            np.copyto(gram[j0:j1, j0:j1], gram[j0:j1, j0:j1].T, where=lower)
        np.fill_diagonal(gram, diag + jit)
    for j0, j1, lower in _panels(n):
        gram[j0:j1, j1:] = 0.0
        np.copyto(gram[j0:j1, j0:j1], 0.0, where=~lower)
    return gram, jit


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


def _live_front(gram, live):
    """The Gram's rows and columns at the indices live, moved to the front
    of gram's own buffer as one contiguous m x m square (gram is
    overwritten).  Each block of _ROWS rows is read whole before it is
    written, and square row k ends at (k + 1) m <= (k + 1) n <= n
    live[k + 1], where the next Gram row still to be read starts."""
    n, m = len(gram), len(live)
    if m == n:
        return gram
    flat = gram.reshape(-1)
    for k in range(0, m, _ROWS):
        rows = gram[np.ix_(live[k:k + _ROWS], live)]
        flat[k * m:k * m + rows.size] = rows.reshape(-1)
    return flat[:m * m].reshape(m, m)


def _cholesky_paths(process, grid, subs):
    """Paths from one Gram and factor; path k draws from stream subs[k].

    The Gram, its live part, its factor and the draws' left operand are
    one n^2 buffer.  The draws go in fixed-width blocks of _BLOCK
    columns, one column per path, and each block is one factor @ Z
    product.  Path k is a pure function of (subs[k], k), whatever
    len(subs) is, and its bytes do not depend on the BLAS thread count.
    """
    if grid.n > MAX_EXACT_N:
        raise DomainError(
            "exact sampling is capped at n = %d points, got %d"
            % (MAX_EXACT_N, grid.n))
    gram = build_gram(process, grid)
    if not np.isfinite(np.diagonal(gram)).all():
        raise DomainError("the grid's variance overflows double precision")
    live = np.flatnonzero(np.diagonal(gram) > 0.0)
    factor, jit = _cholesky_with_jitter(_live_front(gram, live))
    n_live = len(live)
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


def sample_spectral(process: ProcessDescriptor, grid: TimeGrid, seed,
                    n_paths):
    """n_paths reduced-family paths; for tfbm path i equals
    sample_tfbm_spectral(p, grid, derive_substream_seed(seed, i)), on the
    exact fallback only where the BLAS gives a block product's columns
    (i % 64 here, 0 there) the same bits in every position."""
    if n_paths < 1:
        raise DomainError("n_paths must be at least 1")
    return _spectral_paths(process, grid, [
        derive_substream_seed(seed, i) for i in range(int(n_paths))])


def sample_tfbm_spectral(p: FracOUParams, grid: TimeGrid, seed):
    """One tfbm spectral path, drawn from derive_substream_seed(seed, 0)."""
    return _spectral_paths(ProcessDescriptor("tfbm", p), grid, [seed])[0]


def _spectral_paths(process, grid, seeds):
    """Reduced-family paths via one circulant embedding of the
    increment covariance, summed over the family's fOU parts, then
    cumulative summation from the pinned origin; path k draws from
    derive_substream_seed(seeds[k], 0).  Falls back (with one warning) to
    exact sampling if the embedding is not nonnegative definite."""
    parts = FAMILIES[process.family].parts
    if parts is None:
        raise DomainError("spectral synthesis is defined for the reduced "
                          "families only (%s)" % ", ".join(
                              n for n, f in FAMILIES.items() if f.parts))
    if grid.t0 != 0.0:
        raise DomainError("spectral synthesis needs a grid starting at "
                          "t0 = 0, got %g" % grid.t0)
    subs = [derive_substream_seed(seed, 0) for seed in seeds]
    m = grid.n - 1
    r = sum(b * b * tfbm.tfbm_increment_cov(c, grid.dt,
                                            grid.dt * np.arange(m))
            for b, c in parts(_params(process)))
    if not np.isfinite(r).all():
        raise DomainError("the grid's increments overflow double precision")
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


# method name -> sampler(process, grid, seed, n_paths)
METHODS = {"exact": sample_exact, "spectral": sample_spectral}
