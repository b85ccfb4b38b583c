"""Validation suites cross-checking every closed form against an
independent route.

Each suite emits a fixed-order list of check records; a record compares
one scalar against its independently computed target:

    passed  <=>  |actual - expected| <= tolerance   (tolerance absolute)

Routes used as the second opinion, named in each record's provenance:

  * "frozen high-precision constant": values computed offline with a
    multi-hundred-digit evaluator and pinned here as literals;
  * "closed-form vs quadrature oracle": kernel evaluated both from its
    Bessel/Gamma closed form and by integrating its spectral density,
    with the cosine transform rotated onto the branch cut of S(k) so
    that it becomes a positive Laplace-type integral, smooth at its
    endpoint after v = u^4, and summed by a fixed exp-sinh rule (no
    cancellation, no extended precision, no Bessel function; see
    _fou_cov_by_quadrature);
  * "analytic identity": relations (scaling, duplication, reductions)
    that hold exactly in real arithmetic;
  * "dual special-function route": the same kernel through two distinct
    special-function representations;
  * "series vs quadrature": asymptotic series against direct numerics (the
    two-index tail series is Watson's lemma on twoindex_cov's integral);
  * "Monte Carlo with analytic SE": seed-pinned ensembles scored in
    standard-error units.

The Monte Carlo suite is deterministic for a given master seed: every
path is a pure function of (seed, path index), drawn from its own
counter-based substream, and aggregation is order-fixed.  Its report
is byte-identical for any BLAS thread count.
"""

import json
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import sampler, specfun
from .errors import AccuracyError, DivergenceWarning, DomainError
from . import kernels as K
from .kernels.params import (
    FracOUParams,
    HurstProfile,
    MixtureParams,
    TmbmParams,
    TwoIndexParams,
)

DEFAULT_SEED = 20260815

@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    expected: float
    actual: float
    tolerance: float
    passed: bool
    provenance: str

    def as_dict(self):
        return dict(vars(self))


@dataclass(frozen=True)
class ValidationReport:
    suite: str
    config: dict
    checks: tuple
    passed: bool
    wall_clock_seconds: float

    def as_dict(self):
        """dataclasses.asdict(self) without its deep copy, which took
        nearly half of to_json's time; config's values are plain."""
        return {"suite": self.suite, "config": dict(self.config),
                "checks": tuple(c.as_dict() for c in self.checks),
                "passed": self.passed,
                "wall_clock_seconds": self.wall_clock_seconds}

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def canonical_payload(self):
        """Serialization with timing stripped, for determinism diffs."""
        d = self.as_dict()
        del d["wall_clock_seconds"]
        return json.dumps(d, indent=2) + "\n"


def _check(cid, expected, actual, tol, provenance):
    expected = float(expected)
    actual = float(actual)
    return CheckRecord(cid, expected, actual, float(tol),
                       bool(abs(actual - expected) <= tol), provenance)


# --- specfun: frozen constants ------------------------------------------

_FROZEN = "frozen high-precision constant"
_IDENT = "analytic identity"
_ORACLE = "closed-form vs quadrature oracle"
_DUAL = "dual special-function route"
_SERIES = "series vs quadrature"
_MC = "Monte Carlo with analytic SE"
_LIMIT = "asymptotic limit check"

# (nu, x, K_nu(x)) pinned offline at 30 significant digits
_BESSELK_PINNED = (
    (0.25, 2.0, 0.11537827684085676),
    (0.3, 0.05, 3.8119663367691108),
    (1.0, 0.05, 19.909674325882507),
    (2.0, 0.04, 1249.5008170881809),
    (5.0, 700.0, 4.7538533896032257e-306),
)


def suite_specfun(seed, n_paths):
    del seed, n_paths
    checks = []
    for nu, x, ref in _BESSELK_PINNED:
        r = specfun.bessel_k(nu, x)
        checks.append(_check(
            "specfun/besselk/nu=%g/x=%g" % (nu, x), ref, r.value,
            1e-10 * abs(ref), _FROZEN))
    # half-integer closed form K_{1/2}(x) = sqrt(pi/(2x)) e^(-x)
    r = specfun.bessel_k(0.5, 1.0)
    checks.append(_check(
        "specfun/besselk-half/x=1", math.sqrt(0.5 * math.pi) * math.exp(-1.0),
        r.value, 1e-12, _IDENT))
    for a, b, z, ref in ((1.0, 1.0, 1.0, 0.59634736232319407),
                         (0.75, 1.5, 0.8, 1.0369138327425765)):
        r = specfun.kummer_u(a, b, z)
        checks.append(_check(
            "specfun/kummer/a=%g/b=%g/z=%g" % (a, b, z), ref, r.value,
            1e-10 * abs(ref), _FROZEN))
    for kp, mu, z, ref in ((0.0, 0.25, 4.0, 0.13019044392260142),
                           (0.1, 0.3, 1.0, 0.58064121869760711)):
        r = specfun.whittaker_w(kp, mu, z)
        checks.append(_check(
            "specfun/whittaker/kappa=%g/mu=%g/z=%g" % (kp, mu, z), ref,
            r.value, 1e-10 * abs(ref), _FROZEN))
    # Gamma recurrence and the reflection value Gamma(1/2)
    g = specfun.gamma_fn(3.7)
    checks.append(_check(
        "specfun/gamma-recurrence/x=3.7", 3.7 * g,
        specfun.gamma_fn(4.7), 1e-12 * abs(3.7 * g), _IDENT))
    checks.append(_check(
        "specfun/gamma-half", math.sqrt(math.pi), specfun.gamma_fn(0.5),
        1e-13, _IDENT))
    return checks


# --- oracle: kernel closed forms vs spectral quadrature ------------------

_ORACLE_ALPHAS = (0.6, 0.75, 1.0, 1.25, 1.4)
_ORACLE_LAMS = (0.25, 1.0, 4.0)
_ORACLE_TAUS = (0.01, 0.1, 1.0, 5.0, 10.0)
# QUADPACK's qk15 rounding floor, eps times 50 sum |terms|
_ORACLE_FLOOR = 50.0 * np.finfo(float).eps


def _fou_cov_by_quadrature(ps, taus, tols):
    """C(tau) from the spectral density S(k) = (k^2 + lam^2)^(-alpha)/2pi
    on the branch cut, independently of the Bessel closed form.

    Rotating C(tau) = 2 int_0^inf S(k) cos(k tau) dk onto k = iu,
    u > lam, and integrating by parts once (so that alpha >= 1 needs no
    finite part) gives, for 0 < alpha < 2 and tau > 0,

        C(tau) = 1/2 sinc(1 - alpha) int_lam^inf e^(-u tau)
                 (tau/u + 1/u^2) (u^2 - lam^2)^(1 - alpha) du,

    sinc(x) = sin(pi x)/(pi x); at alpha = 1 this is e^(-lam tau)/(2 lam)
    exactly.  With u = lam + v/tau, x = lam tau and then v = u^4
    (a new u), w = x + u^4,

        C(tau) = 1/2 sinc(1 - alpha) e^(-x) tau^(2 alpha - 1)
                 int_0^inf 4 u^(7 - 4 alpha) e^(-u^4) (x + w)^(1 - alpha)
                 (1/w + 1/w^2) du,

    a positive integrand, smooth on the half-line: nothing cancels, so
    float64 meets tol with no extended precision.  It is summed by a
    fixed exp-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974): u =
    exp(pi/2 sinh s) on the 617 nodes of step h = 1/80 from s = -4.5 to
    3.2, where the terms decay double-exponentially at both ends.  The
    estimate is |T_h - T_2h|, T_2h on the even-indexed nodes, raised to
    the rounding floor 50 eps sum |terms|, plus both end terms for the
    truncated tails; past the cell's tol it is an AccuracyError.  The
    route shares nothing with specfun.bessel_k, which sums Temme's series
    and recurs upward in the order (x <= 2) or sums a trapezoid rule of
    its own on a cosh integral (x > 2): here no series or recurrence is
    summed, the integrand is algebraic times e^(-u^4), and the lattice
    and its sums are this function's own, not specfun.row_sums.
    suite_specfun's 30-digit K pins use no quadrature.  One cell per
    (p, tau, tol) of the lists ps, taus and tols, each summed alone.
    Returns a list with a QuadResult for C at each cell, its node count
    as the subdivisions.
    """
    h = 0.0125
    s = -4.5 + h * np.arange(617)
    u = np.exp(0.5 * math.pi * np.sinh(s))
    v = u ** 4
    # h du/ds times the integrand's factor 4 e^(-u^4), alike in every cell
    weights = 2.0 * math.pi * h * np.cosh(s) * u * np.exp(-v)
    out = []
    for p, tau, tol in zip(ps, taus, tols):
        a, x = 1.0 - p.alpha, p.lam * tau
        sinc = 1.0 if a == 0.0 else math.sin(math.pi * a) / (math.pi * a)
        pref = 0.5 * sinc * math.exp(-x) * tau ** (2.0 * p.alpha - 1.0)
        w = x + v
        terms = (weights * u ** (3.0 + 4.0 * a) * (x + w) ** a
                 * (1.0 / w + 1.0 / (w * w)))
        t_h = terms.sum()
        err = (max(abs(t_h - 2.0 * terms[::2].sum()),
                   _ORACLE_FLOOR * np.abs(terms).sum())
               + abs(terms[0]) + abs(terms[-1]))
        value, err = float(pref * t_h), float(pref * err)
        if not err <= tol:
            raise AccuracyError(
                "the branch-cut oracle's estimate %g exceeds tol=%g at "
                "alpha=%g, lambda=%g, tau=%g" % (err, tol, p.alpha, p.lam,
                                                 tau))
        out.append(specfun.QuadResult(value, err, terms.size))
    return out


def suite_oracle(seed, n_paths):
    del seed, n_paths
    ps, taus = zip(*((FracOUParams(alpha, lam), tau)
                     for alpha in _ORACLE_ALPHAS for lam in _ORACLE_LAMS
                     for tau in _ORACLE_TAUS))
    closed = K.fou.cov_alpha_grid([p.alpha for p in ps],
                                  [p.lam for p in ps], taus).tolist()
    quadrature = _fou_cov_by_quadrature(
        ps, taus, [max(1e-300, 1e-8 * abs(cf)) for cf in closed])
    checks = [_check("oracle/fou/alpha=%g/lam=%g/tau=%g"
                     % (p.alpha, p.lam, tau), cf, qv.value, 1e-6 * abs(cf),
                     _ORACLE)
              for p, tau, cf, qv in zip(ps, taus, closed, quadrature)]
    # spot values pinned offline, guarding the oracle itself
    p = FracOUParams(1.25, 0.5)
    checks.append(_check(
        "oracle/fou-pinned/alpha=1.25/lam=0.5/tau=1.7",
        0.61113070686686051, K.fou_cov(p, 1.7),
        1e-10 * 0.61113070686686051, _FROZEN))
    checks.append(_check(
        "oracle/fou-var-pinned/alpha=0.75/lam=1",
        0.83462684167407319, K.fou_var(FracOUParams(0.75, 1.0)),
        1e-10 * 0.83462684167407319, _FROZEN))
    checks.append(_check(
        "oracle/twoindex-var-pinned/alpha=0.9/beta=0.8/lam=1",
        0.87556708932579985, K.twoindex_var(TwoIndexParams(0.9, 0.8, 1.0)),
        1e-10 * 0.87556708932579985, _FROZEN))
    return checks


# --- identities ----------------------------------------------------------

_CT_PARAM_SETS = ((0.75, 0.5), (1.25, 1.0), (0.6, 2.0), (1.4, 0.25))


def _ct_routes(ts, ss):
    """(tfbm_cov, tfbm_cov_from_ct) on the grid at each of
    _CT_PARAM_SETS, bitwise what those functions give, with one kernel
    batch per route for all the sets: D elementwise in alpha and lambda
    at t, s and t - s, and K_H at the nonzero lags.  The c_t route's
    powers keep each set's scalar exponent, whose last bits an array
    exponent can change."""
    ps = [FracOUParams(alpha, lam) for alpha, lam in _CT_PARAM_SETS]
    lags = np.stack((ts, ss, ts - ss)).reshape(3, -1)
    alphas, lams = (np.repeat(v, lags.size) for v in zip(*_CT_PARAM_SETS))
    d = K.fou.structure_alpha_grid(
        alphas, lams, np.tile(lags.ravel(), len(ps))).reshape(len(ps), 3, -1)
    live = lags != 0.0
    u = np.abs(lags[live])
    bes = specfun.besselk_grid(
        np.repeat([p.hurst for p in ps], u.size),
        np.concatenate([p.lam * u for p in ps])).reshape(len(ps), -1)
    routes = []
    for p, (d_t, d_s, d_lag), b in zip(ps, d, bes):
        c = np.zeros(lags.shape)  # c_u |u|^(2H), 0 at u = 0
        c[live] = K.tfbm.ct_from_besselk(p, u, b) * u ** (2.0 * p.hurst)
        routes.append((((d_t + d_s) - d_lag).reshape(ts.shape),
                       (0.5 * (c[0] + c[1] - c[2])).reshape(ts.shape)))
    return routes


def suite_identities(seed, n_paths):
    del seed, n_paths
    checks = []
    ts, ss = np.meshgrid(np.linspace(0.15, 4.2, 10),
                         np.linspace(0.2, 3.8, 10), indexing="ij")
    for (alpha, lam), (direct, from_ct) in zip(_CT_PARAM_SETS,
                                               _ct_routes(ts, ss)):
        checks.append(_check(
            "identities/ct-decomposition/alpha=%g/lam=%g" % (alpha, lam),
            0.0, np.max(np.abs(direct - from_ct)), 1e-10, _IDENT))
    for alpha in (0.6, 0.8, 1.0, 1.2, 1.4):
        v1 = K.fou_var(FracOUParams(alpha, 1.3))
        v2 = K.twoindex_var(TwoIndexParams(alpha, 1.0, 1.3))
        checks.append(_check(
            "identities/beta1-variance/alpha=%g" % alpha,
            v1, v2, 1e-12 * abs(v1), _IDENT))
    xs = (0.5, 1.0, 2.0, 10.0)
    k_half, k_32 = specfun.besselk_grid([[0.5], [1.5]], xs)
    for x, kh, k3 in zip(xs, k_half, k_32):
        half = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
        checks.append(_check(
            "identities/besselk-half-order/x=%g" % x, half, kh,
            1e-12 * abs(half), _IDENT))
        ref32 = half * (1.0 + 1.0 / x)
        checks.append(_check(
            "identities/besselk-three-halves/x=%g" % x, ref32, k3,
            1e-12 * abs(ref32), _IDENT))
    # Legendre duplication collapses the variance to a single Gamma ratio:
    # sigma^2 = Gamma(alpha - 1/2) / (2 sqrt(pi) Gamma(alpha) lam^(2a-1))
    for alpha in (0.8, 1.1, 1.4):
        lam = 0.7
        dup = (math.gamma(alpha - 0.5)
               / (2.0 * math.sqrt(math.pi) * math.gamma(alpha)
                  * lam ** (2.0 * alpha - 1.0)))
        checks.append(_check(
            "identities/variance-duplication/alpha=%g" % alpha, dup,
            K.fou_var(FracOUParams(alpha, lam)), 1e-12 * abs(dup), _IDENT))
    return checks


# --- scaling -------------------------------------------------------------

def suite_scaling(seed, n_paths):
    del seed, n_paths
    lam, tau, t, s = 1.0, 0.8, 2.1, 0.9
    cells = [(r, alpha) for r in (0.5, 2.0, 7.0) for alpha in (0.6, 1.25)]
    # both sides of each cell, the left at (alpha, lam) with its lags
    # scaled by r and the right at (alpha, r lam): every C in one call and
    # every D, at t, s and t - s, in another
    alphas, lams, rs = (np.array(v) for v in zip(*(
        (alpha, lam_, r_) for r, alpha in cells
        for lam_, r_ in ((lam, r), (r * lam, 1.0)))))
    cov = K.fou.cov_alpha_grid(alphas, lams, rs * tau).tolist()
    d_t, d_s, d_lag = K.fou.structure_alpha_grid(
        np.tile(alphas, 3), np.tile(lams, 3),
        np.concatenate((rs * t, rs * s, rs * t - rs * s))).reshape(3, -1)
    tfbm = ((d_t + d_s) - d_lag).tolist()
    checks = []
    for (r, alpha), c_l, c_r, b_l, b_r in zip(
            cells, cov[::2], cov[1::2], tfbm[::2], tfbm[1::2]):
        scale = r ** (2.0 * alpha - 1.0)
        for kind, lhs, rhs in (("fou", c_l, c_r), ("tfbm", b_l, b_r)):
            checks.append(_check(
                "scaling/%s/r=%g/alpha=%g" % (kind, r, alpha), lhs,
                scale * rhs, 1e-12 * abs(lhs), _IDENT))
    return checks


# --- asymptotics ---------------------------------------------------------

def suite_asymptotics(seed, n_paths):
    del seed, n_paths
    checks = []
    lamtaus = (10.0, 20.0, 40.0)
    for alpha, beta in ((0.9, 0.6), (1.5, 0.7)):
        q = TwoIndexParams(alpha, beta, 1.0)
        taus = np.divide(lamtaus, q.lam)
        # each lag's value is what it gets alone
        directs = K.twoindex_cov(q, taus).value.tolist()
        for lamtau, tau, direct in zip(lamtaus, taus.tolist(), directs):
            # the series is cut at its smallest term, before term 12, by design
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DivergenceWarning)
                series = K.twoindex_cov_tail_series(q, tau, 12)
            checks.append(_check(
                "asymptotics/tail-series/alpha=%g/beta=%g/lamtau=%g"
                % (alpha, beta, lamtau), 1.0, series / direct, 0.05,
                _SERIES))
        c, expo = K.twoindex_smalltime_incvar(q)
        t = 1e-3 / q.lam
        ratio = K.twoindex_increment_var(q, t) / (c * t ** expo)
        checks.append(_check(
            "asymptotics/smalltime/alpha=%g/beta=%g" % (alpha, beta),
            1.0, ratio, 0.02, _SERIES))
    # reduced covariance reattaches to the stationary one at large t, s:
    # cov(t, s) -> C(t - s) + sigma^2
    p = FracOUParams(0.75, 0.5)
    sig2 = K.fou_var(p)
    drift = K.tfbm_cov(p, 400.0, 402.0) - K.fou_cov(p, 2.0) - sig2
    checks.append(_check(
        "asymptotics/stationary-offset", 0.0, drift / sig2, 1e-12, _LIMIT))
    checks.append(_check(
        "asymptotics/plateau-limit", 0.5, K.tfbm_lrd_plateau(p, 400.0),
        1e-12, _LIMIT))
    # short-lag limit of the local coefficient, rate O((lam t)^(2-2H))
    p2 = FracOUParams(1.25, 1.0)
    hh = p2.hurst
    lim = math.gamma(1.0 - 2.0 * hh) * math.cos(hh * math.pi) / (hh * math.pi)
    ct = K.tfbm_ct_coefficient(p2, 1e-6)
    checks.append(_check(
        "asymptotics/ct-small-lag-limit/alpha=1.25", lim, ct,
        5e-3 * abs(lim), _LIMIT))
    # variance pinch sigma^2 <= var(t) <= 2 sigma^2 once lam t is large
    lamts = (20.0, 40.0, 100.0)
    for lamt, v in zip(lamts, K.tfbm_var(p, np.divide(lamts, p.lam))):
        checks.append(_check(
            "asymptotics/variance-pinch/lamt=%g" % lamt, 2.0 * sig2, v,
            1e-6 * sig2 if lamt >= 40.0 else 2e-4 * sig2, _LIMIT))
    return checks


# --- tmbm-equivalence ----------------------------------------------------

def suite_tmbm(seed, n_paths):
    del seed, n_paths
    checks = []
    ts, ss = np.meshgrid(np.linspace(0.2, 3.2, 6),
                         np.linspace(0.2, 3.2, 6) + 0.11, indexing="ij")
    lam = 1.0
    profiles = (("constant", HurstProfile.constant(0.85)),
                ("ramp", HurstProfile.saturating_ramp(0.8, 0.1)))
    kummer = {}
    for name, prof in profiles:
        a = kummer[name] = K.tmbm_mou_cov(prof, lam, ts, ss, route="kummer")
        b = K.tmbm_mou_cov(prof, lam, ts, ss, route="whittaker")
        checks.append(_check(
            "tmbm-equivalence/routes/%s" % name, 0.0,
            float(np.max(np.abs(a - b) / np.abs(a))), 1e-8, _DUAL))
    b = K.fou_cov(FracOUParams(0.85, lam), ts - ss)
    checks.append(_check(
        "tmbm-equivalence/constant-profile-reduction", 0.0,
        float(np.max(np.abs(kummer["constant"] - b) / np.abs(b))), 1e-8,
        _DUAL))
    return checks


# --- mc: seed-pinned ensembles -------------------------------------------

_MC_N = 256
_MC_DIAGS = (0, 1, 2, 5, 10, 20)
_MC_STRIDE = 8


def _family_seed(master, k):
    # family substreams sit far above any per-path index
    return sampler.derive_substream_seed(master, 10_000 + k)


def _emp_second_moment(values):
    # mean-zero processes: score E[X_i X_j] directly so the Isserlis SE
    # sqrt((C_ii C_jj + C_ij^2)/N) is exact rather than approximate
    n = values.shape[0]
    return values.T @ values / n


def _scored_pairs(n):
    """(i, j, k): every _MC_STRIDE-th entry (i, j) of each diagonal j - i
    = _MC_DIAGS[k] of an n x n matrix, from i = 0, diagonal by diagonal."""
    d = np.array(_MC_DIAGS)
    k, c = np.nonzero(_MC_STRIDE * np.arange(n) + d[:, None] < n)
    return _MC_STRIDE * c, _MC_STRIDE * c + d[k], k


def _max_cov_z(emp, gram, n_paths):
    i, j, _ = _scored_pairs(gram.shape[0])
    var = np.diagonal(gram)
    # a pinned (zero-variance) point is deterministic: its row carries no
    # sampling error, only cancellation residue
    live = (var[i] != 0.0) & (var[j] != 0.0)
    i, j = i[live], j[live]
    se = np.sqrt((var[i] * var[j] + gram[i, j] ** 2) / n_paths)
    return np.max(np.abs(emp[i, j] - gram[i, j]) / se, initial=0.0)


def _max_mean_z(values, gram):
    var = np.diagonal(gram)
    live = var != 0.0
    z = np.abs(values.mean(axis=0)[live]) / np.sqrt(var[live] / len(values))
    return np.max(z, initial=0.0)


def _stack(paths):
    return np.stack([p.values for p in paths])


def suite_mc(seed, n_paths):
    checks = []
    ramp = HurstProfile.saturating_ramp(0.8, 0.1)
    tfbm = sampler.ProcessDescriptor("tfbm", FracOUParams(1.25, 0.5))
    families = (
        sampler.ProcessDescriptor("fou", FracOUParams(0.75, 1.0)),
        tfbm,
        sampler.ProcessDescriptor("mixed", MixtureParams((
            (1.0, FracOUParams(0.7, 1.0)), (0.7, FracOUParams(1.3, 0.5))))),
        sampler.ProcessDescriptor("tmbm", TmbmParams(ramp, 1.0)),
    )
    grid = sampler.TimeGrid(0.0, 0.05, _MC_N)
    for k, desc in enumerate(families):
        name = desc.family
        paths = sampler.sample_exact(desc, grid, _family_seed(seed, k),
                                     n_paths)
        vals = _stack(paths)
        gram = sampler.build_gram(desc, grid)
        emp = _emp_second_moment(vals)
        checks.append(_check(
            "mc/%s/covariance-max-z" % name, 0.0,
            _max_cov_z(emp, gram, n_paths), 4.0, _MC))
        checks.append(_check(
            "mc/%s/mean-max-z" % name, 0.0, _max_mean_z(vals, gram), 4.0,
            _MC))
        if desc is tfbm:
            tfbm_vals = vals
    # increment law of the reduced process is stationary: empirical
    # increment second moments must be Toeplitz within MC error
    p = tfbm.params
    inc = np.diff(tfbm_vals, axis=1)
    emp_inc = _emp_second_moment(inc)
    refs = K.tfbm_increment_cov(p, grid.dt, grid.dt * np.array(_MC_DIAGS))
    var0 = refs[_MC_DIAGS.index(0)]
    i, j, k = _scored_pairs(emp_inc.shape[0])
    se = np.sqrt((var0 ** 2 + refs[k] ** 2) / n_paths)
    checks.append(_check(
        "mc/tfbm/increment-toeplitz-max-z", 0.0,
        np.max(np.abs(emp_inc[i, j] - refs[k]) / se), 4.0, _MC))
    # the circulant-embedding route must agree with the closed form
    spec_seed = _family_seed(seed, 17)
    spv = _stack(sampler.sample_spectral(tfbm, grid, spec_seed, n_paths))
    times = grid.times()
    ratio_dev = 0.0
    for i in (_MC_N // 4, _MC_N // 2, _MC_N - 1):
        ev = float((spv[:, i] ** 2).mean())
        ratio_dev = max(ratio_dev,
                        abs(ev / K.tfbm_var(p, times[i]) - 1.0))
    checks.append(_check(
        "mc/tfbm/spectral-variance-ratio-dev", 0.0, ratio_dev, 0.1, _MC))
    return checks


_SUITE_FNS = {
    "specfun": suite_specfun,
    "oracle": suite_oracle,
    "identities": suite_identities,
    "scaling": suite_scaling,
    "asymptotics": suite_asymptotics,
    "tmbm-equivalence": suite_tmbm,
    "mc": suite_mc,
}

SUITES = tuple(_SUITE_FNS)


def run_suite(suite, seed=DEFAULT_SEED, n_paths=2000, config_echo=None):
    """Run one named suite (or "all") and assemble its report."""
    if suite == "all":
        names = SUITES
    elif suite in _SUITE_FNS:
        names = (suite,)
    else:
        raise DomainError("unknown suite %r; expected one of %s or 'all'"
                          % (suite, ", ".join(SUITES)))
    t0 = time.perf_counter()
    checks = []
    for nm in names:
        checks.extend(_SUITE_FNS[nm](seed, n_paths))
    wall = time.perf_counter() - t0
    if config_echo is None:
        config_echo = {"suite": suite, "seed": seed, "n_paths": n_paths}
    return ValidationReport(
        suite=suite,
        config=config_echo,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        wall_clock_seconds=round(wall, 3),
    )
