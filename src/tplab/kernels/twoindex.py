"""Two-index family: Riesz-type spectral kernels with separate
smoothness (alpha) and spatial (beta) indices.

The stationary Y-form spectral density is

    S(k) = (1/2 pi) (|k|^(2 beta) + lambda^(2 beta))^(-alpha)

whose covariance has no closed form for beta < 1; twoindex_cov takes it
as a Laplace integral on the imaginary axis.  The beta = 1 slice
collapses to the single-index family exactly.
"""

import math
import warnings

import numpy as np

from .. import specfun
from ..errors import DivergenceWarning, DomainError
from . import fou
from .params import FracOUParams, TwoIndexParams

# A trapezoid rule (Takahasi and Mori, Publ. RIMS 9, 1974; Trefethen and
# Weideman, SIAM Review 56, 2014) in s = asinh(u/w) + (W/_CAP) asinh(u/W),
# u = log x: a step in u of _STEP w at x = 1, _STEP _CAP out to |u| = W,
# past e^(-cx)'s fall, geometric beyond.  The path dips _DIP w below x = 1,
# where h's base vanishes as b -> 1, in a Gaussian of width w <= _WIDTH,
# wide enough that h ~ (1 - x^2)^(-a) stays small on it up to a ~ 20.  Its
# nodes left of x = 1 see e^(-cx) up to e^(2cw) times e^(-c), the size of
# C as b -> 1, so w also stays below max(_GROW, a/2) / 2^octave, through
# octave _LAST.
_STEP = 0.07
_CAP = 2.0
_WIDTH = 1.3
_DIP = 0.7
_GROW = 1.0
_LAST = 10
# an estimate above _TOL_C of |C| or _TOL_D of D raises AccuracyError
# (specfun.check_estimate)
_TOL_C = 1e-7
_TOL_D = 1e-10
_TINY = np.finfo(float).tiny


def _less_linear(v):
    """1 - e^(-v), less v where |v| < 1/2, there as -v^2 sum_j (-v)^j /
    (j+2)!; the caller takes v off the rest through its f x weights."""
    out, small = -np.expm1(-v), np.abs(v) < 0.5
    w, acc = -v[small], 0.0
    for j in range(17, -1, -1):
        acc = acc * w + 1.0 / math.factorial(j + 2)
    out[small] = -w * w * acc
    return out


# g(v) of each kind
_G = (lambda v: np.exp(-v), lambda v: -np.expm1(-v), _less_linear)


def _rule(q: TwoIndexParams, octave, kind):
    """Nodes x_k from an even k, weights f = h(x_k) x'(s_k) _STEP and f
    x_k, the size of the exponents each term goes through, and the tail
    bound in c, for c = lambda tau in [2^(octave-1), 2^octave) and g(cx)
    = e^(-cx), 1 - e^(-cx) or 1 - e^(-cx) - cx (kind 0, 1, 2).  Before
    x_0, |Im h| <= 2a |sin(pi b)| x^(2b), |g| <= (cx)^kind / kind!; past
    X, e^(-cx) <= e^-800, |Im h| <= 2 x^(-2ab), |g| <= 1 + cx, and D's
    nodes run on until that is e^-40 of D."""
    a, b = q.alpha, q.beta
    ab = a * b
    w = _WIDTH if kind else min(
        _WIDTH, max(_GROW, 0.5 * a) * 0.5 ** min(octave, _LAST))
    ln_c = octave * math.log(2.0)
    wide = abs(ln_c) + 7.0
    edge = math.log(4.0 * (a + 1.0)) / (2.0 * b)   # where the bounds hold
    u_lo = min(0.0, -ln_c) - max(38.0 / (2.0 * b + 1.0), edge)
    u_hi = math.log(1600.0) - ln_c
    if kind:
        u_hi = max(u_hi, edge) + 40.0 / (2.0 * ab - kind)

    def s_of(u):
        return np.arcsinh(u / w) + wide / _CAP * np.arcsinh(u / wide)

    def slope(u):
        return 1.0 / (1.0 / np.hypot(u, w)
                      + 1.0 / (_CAP * np.hypot(1.0, u / wide)))

    k = np.arange(2 * math.floor(0.5 * s_of(u_lo) / _STEP),
                  math.ceil(s_of(u_hi) / _STEP) + 1)
    # Newton from 0: s(u) is odd, increasing, concave for u > 0
    u = np.zeros(k.size)
    for _ in range(100):
        step = (k * _STEP - s_of(u)) * slope(u)
        u = u + step
        if not (np.abs(step) > 1e-15 * (1.0 + np.abs(u))).any():
            break
    bump = _DIP * w * np.exp(-0.5 * (u / w) ** 2)
    z = u - 1j * bump
    # e^(i pi b) from the exact 1 - b: Im stays accurate as b -> 1, +0 at 1
    d = math.pi * (1.0 - b)
    rot = complex(-math.cos(d), math.sin(d))
    # h x and, for kind 2 (ab > 1), h x^2; past x = 1 as x^(1-2ab) and
    # x^(2-2ab) times (x^(-2b) + e^(i pi b))^(-a): no overflow
    hx, hxx = np.zeros((2, z.size), complex)
    near, far = z[u <= 0.0], z[u > 0.0]
    hx[u <= 0.0] = (1.0 + np.exp(2.0 * b * near) * rot) ** -a * np.exp(near)
    base = (np.exp(-2.0 * b * far) + rot) ** -a
    hx[u > 0.0] = np.exp((1.0 - 2.0 * ab) * far) * base
    if kind == 2:
        hxx[u <= 0.0] = hx[u <= 0.0] * np.exp(near)
        hxx[u > 0.0] = np.exp((2.0 - 2.0 * ab) * far) * base
    x0 = math.exp(u_lo)
    left = (2.0 * a * abs(math.sin(d)) * x0 ** (2.0 * b + 1.0)
            / (2.0 * b + 1.0) / math.factorial(kind))

    def tails(c):
        return left * (c * x0) ** kind + sum(
            2.0 * c ** m * math.exp((1.0 + m - 2.0 * ab) * u_hi)
            / (2.0 * ab - 1.0 - m) for m in range(kind))

    dx = slope(u) * (1.0 + 1j * bump * u / (w * w)) * _STEP
    # 1 - e^(-cx) = 1 past cx = 800: cap x there so cx cannot overflow
    # (complex minimum compares real parts first)
    cap = math.log(2.0e3) - ln_c if kind else math.inf
    # h's x^(1-2ab) carries eps (1-2ab) u, x = e^u eps u, relative to
    # e^(-cx) eps (1 + u) cx, and to 1 - e^(-cx) that times the ratio
    spread = (abs(1.0 - 2.0 * ab) * np.abs(u), 1.0 + np.abs(u))
    return np.exp(np.minimum(z, cap)), hx * dx, hxx * dx, spread, tails


def _trapezoid(q: TwoIndexParams, c, structure):
    """-(lambda^(1-2ab)/pi) Im int_0^inf h(x) g(cx) dx, g(v) = e^(-v) or,
    for D, 1 - e^(-v), less v where ab > 1 (D has no linear term) and
    the terms' linear parts would cancel to lose 4 bits: values,
    estimates and node counts at each lag c, each lag a row of its
    octave's rule summed along it, so its result depends on c alone."""
    octave = np.frexp(c)[1]
    ab = q.alpha * q.beta
    value, err, nodes = np.empty((3, c.size))
    for key in sorted(set(octave.tolist())):
        kind = structure and 1 + (
            ab > 1.0 and (2.0 * ab - 2.0) * -key * math.log(2.0) > 3.0)
        at = np.flatnonzero(octave == key)
        x, f, fx, spread, tails = _rule(q, key, kind)
        rows = max(1, 2 ** 15 // x.size)
        for i in (at[lo:lo + rows] for lo in range(0, at.size, rows)):
            v = c[i, None] * x
            terms = f * _G[kind](v)
            if kind == 2:
                # v f from c f x, which stays finite where x is capped
                terms -= np.where(np.abs(v) < 0.5, 0.0, c[i, None] * fx)
            r = np.abs(v) + _TINY
            if kind:
                r = r * np.exp(-r) / -np.expm1(-r)
            value[i], err[i] = specfun.row_sums(
                terms.imag, spread[0] + spread[1] * r)
            err[i] += tails(c[i])
        nodes[at] = x.size
    scale = q.lam ** (1.0 - 2.0 * ab) / math.pi
    return -scale * value, scale * err, nodes


def twoindex_spectral(q: TwoIndexParams, k, variant="Y"):
    """Spectral density; variant Y is the stationary form, variant X the
    nonstationary-construction form with its cos(alpha pi/2) cross term.
    """
    k = np.abs(np.asarray(k, dtype=float))
    lb = q.lam ** (2.0 * q.beta)
    if variant == "Y":
        base = k ** (2.0 * q.beta) + lb
    elif variant == "X":
        base = (k ** (2.0 * q.beta)
                + 2.0 * q.lam ** q.beta * k ** q.beta
                * math.cos(0.5 * q.alpha * math.pi) + lb)
    else:
        raise DomainError("variant must be 'X' or 'Y', got %r" % (variant,))
    out = base ** -q.alpha / (2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def twoindex_var(q: TwoIndexParams):
    """Gamma(1/(2 beta)) Gamma(alpha - 1/(2 beta)) / (2 pi beta
    Gamma(alpha)) * lambda^(1 - 2 alpha beta).

    alpha - 1/(2 beta) is formed exactly, as the ratio of integers
    (2 a_n b_n - a_d b_d) / (2 a_d b_n) with alpha = a_n/a_d and beta =
    b_n/b_d, and rounded once by int division: near alpha beta = 1/2,
    rounding 1/(2 beta) first would be magnified by 1/(2 alpha beta - 1)
    at Gamma's pole.  A variance past double precision is a DomainError."""
    inv2b = 0.5 / q.beta
    an, ad = q.alpha.as_integer_ratio()
    bn, bd = q.beta.as_integer_ratio()
    try:
        var = (math.gamma(inv2b) * math.gamma((2 * an * bn - ad * bd)
                                              / (2 * ad * bn))
               / (2.0 * math.pi * q.beta * math.gamma(q.alpha))
               * q.lam ** (1.0 - 2.0 * q.alpha * q.beta))
        if math.isfinite(var):
            return var
    except OverflowError:
        pass
    raise DomainError("the variance overflows double precision at alpha=%g, "
                      "beta=%g, lambda=%g" % (q.alpha, q.beta, q.lam))


def _lags(fn, q: TwoIndexParams, tau):
    """The shape of tau, tau as a 1d array and c = lambda |tau|; a lag
    that is not finite, or 0 < c < 1e-300, is a DomainError."""
    shape, (tau,) = specfun.flat_args(tau)
    specfun.require(fn, "tau", tau)
    c = q.lam * np.abs(tau)
    specfun.require(fn, "lambda*|tau|", c, (c == 0.0) | (c >= 1e-300),
                    " of 0 or >= 1e-300")
    return shape, tau, c


def twoindex_cov(q: TwoIndexParams, tau):
    """Covariance (1/pi) int_0^inf (k^(2b) + lambda^(2b))^(-a) cos(k tau)
    dk, a Laplace integral on k = i lambda x; with c = lambda tau

        C(tau) = -(lambda^(1 - 2ab) / pi) Im int_0^inf h(x) e^(-cx) dx,
        h(x) = (1 + x^(2b) e^(i pi b))^(-a).

    A lag is a weighted sum of e^(-c x_k) over fixed nodes below the axis
    at x = 1, the fOU branch point at b = 1 (see _rule).  The estimate is
    |T_h - T_2h|, plus the terms' rounding (specfun.row_sums), plus tail
    bounds, which past _TOL_C of |C| is an AccuracyError.  tau = 0
    gives the variance; 0 < lambda |tau| < 1e-300 is a DomainError.
    An array tau gives arrays of its shape, each lag's value, estimate
    and node count (subdivisions) what it gets alone.
    """
    shape, tau, c = _lags("twoindex_cov", q, tau)
    var = twoindex_var(q)
    out = np.array([[var], [abs(var) * 1e-15], [0.0]]).repeat(c.size, 1)
    out[:, c > 0.0] = _trapezoid(q, c[c > 0.0], False)
    value, err, nodes = out[0], out[1], out[2].astype(int)
    specfun.check_estimate("twoindex_cov", value, err, _TOL_C, tau=tau)
    if not shape:
        return specfun.QuadResult(value.item(0), err.item(0), nodes.item(0))
    return specfun.QuadResult(*(v.reshape(shape) for v in (value, err, nodes)))


def twoindex_cov_tail_series(q: TwoIndexParams, tau, n_terms):
    """Large-lag expansion of the covariance, polynomial in 1/tau:

    sum_{j>=1} (-1)^(j+1) lambda^(-2 beta (alpha+j)) Gamma(alpha+j)
    Gamma(1+2 beta j) sin(beta j pi) / (pi Gamma(alpha) j!)
    tau^(-(2 beta j + 1))

    This is Watson's lemma on twoindex_cov's rotated integral, with
    sin(beta j pi) = Im e^(i pi beta j).

    The series is asymptotic, not convergent: summation stops at the
    smallest term (with a DivergenceWarning) if the terms stop
    decreasing before n_terms.  Terms with beta*j integer vanish
    through the sine and are skipped in the size comparison.
    """
    if not 0.0 < q.beta < 1.0:
        raise DomainError("tail series needs 0 < beta < 1 strictly")
    tau = abs(float(tau))
    if q.lam * tau < 5.0:
        raise DomainError(
            "tail series needs lambda*tau >= 5, got %g" % (q.lam * tau))
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    log_lam, log_tau = math.log(q.lam), math.log(tau)
    lg_alpha = math.lgamma(q.alpha)
    total = 0.0
    last_size = math.inf
    for j in range(1, int(n_terms) + 1):
        s = math.sin(q.beta * j * math.pi)
        if s == 0.0:
            continue
        log_mag = (-2.0 * q.beta * (q.alpha + j) * log_lam
                   + math.lgamma(q.alpha + j) + math.lgamma(1.0 + 2.0 * q.beta * j)
                   + math.log(abs(s)) - math.log(math.pi) - lg_alpha
                   - math.lgamma(j + 1.0) - (2.0 * q.beta * j + 1.0) * log_tau)
        mag = math.exp(log_mag)
        if mag >= last_size:
            warnings.warn(
                "tail series terms stopped decreasing at j=%d; "
                "truncated at the smallest term" % j, DivergenceWarning)
            break
        sign = 1.0 if (j % 2 == 1) == (s > 0.0) else -1.0
        total += sign * mag
        last_size = mag
    return total


def twoindex_smalltime_incvar(q: TwoIndexParams):
    """Small-time law of the increment variance: var(Y(t+dt) - Y(t)) ~
    leading_coeff * |dt|^exponent with exponent = 2 alpha beta - 1 and

        leading_coeff = (4/pi) int_0^inf k^(-2 alpha beta) sin^2(k/2) dk
                      = -1 / (Gamma(2 alpha beta) cos(alpha beta pi))

    At large k the density is the fou density of index alpha*beta, so
    the coefficient is -2 times fou_local_expansion's power coefficient
    there (the increment variance is 2 (C(0) - C(dt))).  It depends only
    on the product alpha*beta and carries no lambda: tempering is
    invisible at vanishing scales.  At alpha*beta = 1 it is 1, the
    Brownian law.
    """
    q.require_asymptotic_range()
    ab = q.alpha * q.beta
    _, coeff = fou.fou_local_expansion(FracOUParams(ab, q.lam))
    return -2.0 * coeff, 2.0 * ab - 1.0


def twoindex_increment_var(q: TwoIndexParams, t):
    """Increment variance 2 D(t), D(t) = C(0) - C(t) with nothing
    subtracted: twoindex_cov's nodes with -expm1(-cx) for e^(-cx).  t
    takes twoindex_cov's lags, arrays elementwise; an estimate past
    _TOL_D of D is an AccuracyError."""
    shape, t, c = _lags("twoindex_increment_var", q, t)
    d, err = np.zeros((2, c.size))
    d[c > 0.0], err[c > 0.0], _ = _trapezoid(q, c[c > 0.0], True)
    specfun.check_estimate("twoindex_increment_var", d, err, _TOL_D, t=t)
    return specfun.shaped(shape, 2.0 * d)
