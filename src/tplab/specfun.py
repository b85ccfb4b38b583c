"""Real-argument special functions: Gamma, modified Bessel K of real
order, Kummer U, Whittaker W.

Everything a tempered-kernel evaluation needs, on an explicitly declared
parameter box, with per-call error estimates: rounding charged on the
summed term magnitudes plus the last term for the remainder, or the
step-halving difference, rounding and tails of a trapezoid sum (Bessel
K, Kummer U).  No complex arguments, no arbitrary precision.

Algorithms
    bessel_k     For x <= 2, Temme's method (J. Comput. Phys. 19,
                 1975) for nu = n + mu, n = round(|nu|), |mu| <= 1/2:
                 K_mu and K_(mu+1) from his series, whose Gamma_1 and
                 Gamma_2 are polynomials in mu (the 1/Gamma(1+mu)
                 series, A&S 6.1.34), then the forward recurrence
                 K_(mu+k+1) = K_(mu+k-1) + 2 (mu+k)/x K_(mu+k), stable
                 for K; each element stops on its own terms.  For x > 2,
                 K_nu itself from a trapezoid sum of fixed length on
                 e^x K_nu(x) = int_0^inf exp(-2x sinh^2(t/2)) cosh(nu t)
                 dt (DLMF 10.32.9), cut near where the integrand falls
                 to e^-40.  Integer and half-integer orders need no special
                 case, and each value depends on (nu, x) alone.
    besselk_deficit  Gamma(nu)/2 - (x/2)^nu K_nu(x) at 0 < x <= 2 with
                 nothing subtracted: Temme's series with the K_(mu+1)
                 sum started at its k = 1 term, then the order
                 recurrence G_(nu+1) = nu G_nu - (x/2)^2 F_(nu-1).
    rgamma       1/Gamma(z), z >= 1/2, in numpy alone: Temme's Gamma_1
                 and Gamma_2 give 1/Gamma(1+mu), the recurrence the rest.
    kummer_u     U(a,b,z) = (1/Gamma(a)) int_0^inf e^(-zt) t^(a-1)
                 (1+t)^(b-a-1) dt, one trapezoid row per element on
                 Ooura and Mori's map t = T e^(s - e^-s), T = min(1, 1/z).
    whittaker_w  W_{kappa,mu}(z) = e^(-z/2) z^(1/2+mu)
                 U(1/2+mu-kappa, 1+2mu, z), switching to the -mu form
                 (W is even in mu) when the U argument 1/2+mu-kappa is
                 not positive.

All functions are pure and reentrant.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, PoleError

BESSEL_NU_MAX = 5.0
BESSEL_X_MIN = 1e-15
BESSEL_X_MAX = 700.0

# abs_error_estimate must stay below TOL_BOX * max(1, |value|)
TOL_BOX = 1e-10


@dataclass(frozen=True)
class SpecFunResult:
    value: float
    abs_error_estimate: float


def gamma_fn(x):
    """Gamma(x) for real x, poles at 0, -1, -2, ... raise PoleError."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError("gamma pole at x=%g" % x)
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError("gamma(%g) overflows double precision" % x)


# --- modified Bessel K --------------------------------------------------

# Taylor coefficients of 1/Gamma(1+mu) about mu = 0 (A&S 6.1.34 shifted by
# one order, 1/Gamma(1+z) = sum_j c_(j+1) z^j), pinned offline at 30
# digits with mpmath; the first omitted term is below 1e-20 for |mu| <= 1/2
_RGAMMA1P = (
    1.0, 5.77215664901532860606512090082e-1,
    -6.55878071520253881077019515145e-1, -4.20026350340952355290039348754e-2,
    1.66538611382291489501700795102e-1, -4.21977345555443367482083012892e-2,
    -9.62197152787697356211492167235e-3, 7.21894324666309954239501034045e-3,
    -1.16516759185906511211397108402e-3, -2.15241674114950972815729963054e-4,
    1.28050282388116186153198626328e-4, -2.0134854780788238655689391421e-5,
    -1.25049348214267065734535947383e-6, 1.13302723198169588237412962033e-6,
    -2.05633841697760710345015413002e-7, 6.11609510448141581786249868286e-9,
    5.00200764446922293005566504806e-9, -1.18127457048702014458812656544e-9,
    1.04342671169110051049154033231e-10, 7.78226343990507125404993731136e-12,
    -3.69680561864220570818781587809e-12, 5.10037028745447597901548132286e-13,
)

_EPS = 2.0 ** -52
# a term below this fraction of its running sum ends a series
_STOP = 2.0 ** -53
# rounding charged per unit of summed term magnitude: several ulps of
# setup and recurrence error ride on each term
_ROUND = 16.0 * _EPS
_MAX_STEPS = 200
_BLOCK = 8192
# x > 2: _NODES trapezoid intervals on [0, t_max], cut at g(t_max) = _CUT;
# against 40-digit mpmath on x in (2, 700], nu in [0, 5], K is within
# 7e-16, T_2h within 1e-15 and the tail below 1e-18 of K
_NODES = 40
_CUT = 40.0
# multiples of h in the order summed, even then odd; 2^14 nodes a block
_ORDER = np.r_[2:_NODES + 1:2, 1:_NODES:2] * 1.0
_TRAP_BLOCK = 2 ** 14 // _NODES
# a batch this small runs element by element on Python floats: a numpy
# step costs 25-30 us at any size, one element's whole run 0.03-0.1 ms
_FLOAT_BATCH = 32


def _iterate(step, done, state, slots):
    """Apply state = step(i, *state) for i = 1, 2, ... to each element
    until done(i, *state) holds for it (or i reaches _MAX_STEPS), and
    return the final state entries listed in slots.

    state is a tuple of floats, or of 1d arrays and scalars that
    broadcast to one length.  An element stops updating as soon as it
    is done, so its result depends on its own inputs only, never on the
    rest of the batch.  A state of floats is iterated on Python floats:
    the same step and the same IEEE arithmetic, without numpy's per-call
    overhead; _batched takes this route for each element of a batch of
    at most _FLOAT_BATCH.
    """
    if isinstance(state[0], float):
        state = tuple(float(v) for v in state)
        i = 0
        while i < _MAX_STEPS and not done(i, *state):
            i += 1
            state = step(i, *state)
        return tuple(state[k] for k in slots)
    state = list(np.broadcast_arrays(*state))
    out = tuple(np.array(state[k]) for k in slots)
    live = np.arange(out[0].size)
    i = 0
    while True:
        fin = done(i, *state) | (i >= _MAX_STEPS)
        if fin.any():
            gone, keep = np.flatnonzero(fin), np.flatnonzero(~fin)
            if i:                       # out already holds step 0
                for o, k in zip(out, slots):
                    o[live.take(gone)] = state[k].take(gone)
            live = live.take(keep)
            for k, v in enumerate(state):   # one spare array at a time
                state[k] = v.take(keep)
        if live.size == 0:
            return out
        i += 1
        state = list(step(i, *state))


def _temme_gammas(mu):
    """Temme's Gamma_1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu) and
    Gamma_2 = (1/Gamma(1-mu) + 1/Gamma(1+mu)) / 2 for |mu| <= 1/2: the
    odd part of the 1/Gamma(1+mu) series over -mu, and its even part, so
    nothing cancels as mu -> 0."""
    m2 = mu * mu
    g1 = g2 = 0.0
    for k in range(len(_RGAMMA1P) - 2, -1, -2):
        g2 = g2 * m2 + _RGAMMA1P[k]
        g1 = g1 * m2 - _RGAMMA1P[k + 1]
    return g1, g2


def rgamma(z):
    """1/Gamma(z) elementwise over an array z >= 1/2, with numpy alone:
    1/Gamma(1+mu) = Gamma_2 - mu Gamma_1 at mu = z - 1 - m, |mu| <= 1/2,
    m = round(z - 1), then m steps of 1/Gamma(w + 1) = 1/(w Gamma(w))."""
    z = np.asarray(z, dtype=float)
    m = np.round(z - 1.0)
    mu = z - 1.0 - m
    g1, g2 = _temme_gammas(mu)
    out = g2 - mu * g1
    for j in range(1, int(m.max(initial=0.0)) + 1):
        out = np.where(m >= j, out / (mu + j), out)
    return out


def _series_step(i, mu, dd, f, p, q, c, s0, s1, a0, a1, t0, t1):
    # t0, t1 carry the magnitudes of the last terms
    f = (i * f + p + q) / (i * i - mu * mu)
    c = c * dd / i
    p = p / (i - mu)
    q = q / (i + mu)
    u0 = c * f
    u1 = c * (p - i * f)
    t0, t1 = abs(u0), abs(u1)
    return mu, dd, f, p, q, c, s0 + u0, s1 + u1, a0 + t0, a1 + t1, t0, t1


def _series_done(i, mu, dd, f, p, q, c, s0, s1, a0, a1, t0, t1):
    return (t0 <= _STOP * abs(s0)) & (t1 <= _STOP * abs(s1))


def _series_start(mu, x):
    """The k = 0 state of Temme's series, and e = mu ln(2/x)."""
    half = 0.5 * x
    d = -np.log(half)
    e = mu * d
    g1, g2 = _temme_gammas(mu)
    # pi mu / sin(pi mu) and sinh(e) / e, each 1 at 0
    pm = np.pi * mu + 1e-20 * (mu == 0.0)
    se = e + 1e-20 * (e == 0.0)
    fact = pm / np.sin(pm)
    lead = fact * g1 * np.cosh(e)
    tail = fact * g2 * (np.sinh(se) / se) * d
    ee = np.exp(e)
    p = 0.5 * ee / (g2 - mu * g1)        # (x/2)^-mu Gamma(1+mu) / 2
    q = 0.5 / (ee * (g2 + mu * g1))      # (x/2)^mu Gamma(1-mu) / 2
    f = lead + tail
    return (mu, half * half, f, p, q, 1.0, f, p, abs(lead) + abs(tail), p,
            np.inf, np.inf), e


def _temme_series(mu, x):
    """K_mu(x) and K_(mu+1)(x) for |mu| <= 1/2 and 0 < x <= 2 by Temme's
    series K_mu = sum_k (x^2/4)^k / k! f_k (J. Comput. Phys. 19, 1975),
    with their absolute error estimates.

    The terms alternate in sign near x = 2, where their magnitudes sum
    to about e^(2x) |K|; the estimate charges rounding on that sum, plus
    the last term for the remainder (the term ratio is below 1/2 by
    then).
    """
    start, e = _series_start(mu, x)
    s0, s1, a0, a1, t0, t1 = _iterate(_series_step, _series_done, start,
                                      range(6, 12))
    # the exponentials of e inherit its rounding, amplified by |e|
    rnd = _ROUND + 2.0 * _EPS * abs(e)
    scale = 2.0 / x
    return s0, scale * s1, rnd * a0 + t0, scale * (rnd * a1 + t1)


def _deficit_step(i, n, mu, y, g, f_lo, f_hi):
    # G_(nu+1) = nu G_nu - y F_(nu-1), F_(nu+1) = y F_(nu-1) + nu F_nu,
    # nu = i + mu: from (G, F) at orders i + mu and i - 1 + mu, i + mu
    nu = i + mu
    return n, mu, y, nu * g - y * f_lo, f_hi, y * f_lo + nu * f_hi


def _deficit_done(i, n, mu, y, g, f_lo, f_hi):
    return n <= i + 1


def _deficit_block(nu, x):
    """(besselk_deficit,) for nu and x both floats or both 1d arrays."""
    n = float(round(nu)) if isinstance(x, float) else np.round(nu)
    mu = nu - n
    start, e = _series_start(mu, x)
    # the K_(mu+1) sum and its magnitude start at their k = 1 terms
    start = start[:7] + (0.0, start[8], 0.0) + start[10:]
    s0, s1 = _iterate(_series_step, _series_done, start, (6, 7))
    h = np.exp(-e)                        # (x/2)^mu
    return _iterate(_deficit_step, _deficit_done, (
        n, mu, 0.25 * x * x, -h * s1, h * s0, h * (start[3] + s1)), (3,))


def besselk_deficit(nu, x):
    """G_nu(x) = Gamma(nu)/2 - (x/2)^nu K_nu(x) over 1d arrays with
    round(nu) >= 1 and 0 < x <= 2, formed with nothing subtracted.

    With n = round(nu) and mu = nu - n, Temme's series (J. Comput. Phys.
    19, 1975) gives F_mu = (x/2)^mu K_mu = (x/2)^mu sum_k c_k f_k and
    F_(1+mu) = (x/2)^mu sum_k c_k (p_k - k f_k), whose k = 0 term is
    Gamma(1+mu)/2; its sum started at k = 1 is -G_(1+mu).  n - 1 steps
    of G_(nu+1) = nu G_nu - y F_(nu-1), y = (x/2)^2, carry it up.  The
    recurrence amplifies rounding by about ln(2/x) near mu = 0 and by
    about (2/x)^(-2 mu) for mu < 0.  Batches run as in besselk_grid, so
    each value depends on its own (nu, x) alone.
    """
    return _batched(_deficit_block, np.asarray(nu, dtype=float),
                    np.asarray(x, dtype=float), 1)[0]


def _recur_step(i, n, mu, x, lo, hi, elo, ehi):
    # K_(mu+i+1) = K_(mu+i-1) + 2 (mu+i)/x K_(mu+i): all terms positive
    g = 2.0 * (mu + i) / x
    new = lo + g * hi
    return n, mu, x, hi, new, ehi, elo + g * ehi + 4.0 * _EPS * new


def _recur_done(i, n, mu, x, lo, hi, elo, ehi):
    return n <= i


def check_estimate(fn, err, bound, **args):
    """AccuracyError at the first element whose estimate err is not within
    bound, a NaN estimate included; args name its arguments, 1d each."""
    bad = ~(err <= bound)
    if bad.any():
        i = bad.argmax()
        raise AccuracyError("%s(%s) error estimate %g above contract %g" % (
            fn, ", ".join("%s=%g" % (k, np.ravel(v)[i])
                          for k, v in args.items()), err[i], bound[i]))


def _besselk_block(nu, x):
    """K_nu(x) and its absolute error estimate for nu >= 0 and 0 < x <= 2,
    both floats or both 1d arrays.

    With n = round(nu) and mu = nu - n, |mu| <= 1/2: K_mu and K_(mu+1)
    by Temme's series, then n - 1 steps of the forward recurrence, which
    is stable for K.
    """
    n = float(round(nu)) if isinstance(x, float) else np.round(nu)
    pair = _temme_series(nu - n, x)
    return _iterate(_recur_step, _recur_done, (n, nu - n, x, *pair), (3, 5))


def _trapezoid_block(nu, x):
    """K_nu(x) and its absolute error estimate for nu >= 0 and x > 2 over
    1d arrays: the trapezoid rule T_h on e^x K_nu(x) = int_0^inf
    exp(-2x sinh^2(t/2)) cosh(nu t) dt (DLMF 10.32.9; sinh^2(t/2) does
    not cancel at small t as cosh t - 1 does), geometrically convergent
    for an even analytic integrand (Trefethen and Weideman, SIAM Review
    56, 2014).  The integrand is at most e^(-g), g(t) = 2x sinh^2(t/2) -
    nu t, convex; three steps of t = acosh(1 + (_CUT + nu t)/x) from 0
    rise to g(t_max) ~ _CUT, where g' >= sqrt(2 x _CUT) - nu > 0, so the
    integral and h times the nodes past t_max are below e^(-g(t_max)) /
    g'(t_max).  The estimate adds that tail, |T_h - T_2h| (T_2h is every
    other node) and _ROUND of the positive sum.  Each element's nodes
    are one row, summed along it, so its value depends on its own
    (nu, x) alone.
    """
    t_max = 0.0
    for _ in range(3):
        t_max = np.arccosh(1.0 + (_CUT + nu * t_max) / x)
    h = t_max / _NODES
    t = h[:, None] * _ORDER
    s = np.sinh(0.5 * t)
    f = np.exp((-2.0 * x)[:, None] * (s * s)) * np.cosh(nu[:, None] * t)
    even = f[:, :_NODES // 2].sum(axis=1)
    odd = f[:, _NODES // 2:].sum(axis=1)
    total = 0.5 + even + odd              # the node at t = 0 is 1, halved
    s = np.sinh(0.5 * t_max)
    tail = (np.exp(nu * t_max - 2.0 * x * (s * s))
            / (x * np.sinh(t_max) - nu))
    scale = np.exp(-x)
    err = h * (np.abs(odd - even - 0.5) + _ROUND * total) + tail
    return scale * (h * total), scale * err


def _batched(block, nu, x, rows):
    """The rows results of block(nu, x) over matching 1d arrays.

    A batch of at most _FLOAT_BATCH elements runs element by element on
    Python floats, transcendentals through the same numpy functions, so
    each matches its value in any batch.  Larger inputs go in blocks of
    _BLOCK elements, which bounds the working set; an element's value
    does not depend on its block.
    """
    out = np.empty((rows, x.size))
    if x.size <= _FLOAT_BATCH:
        for k, (a, b) in enumerate(zip(nu.tolist(), x.tolist())):
            out[:, k] = block(a, b)
        return out
    for lo in range(0, x.size, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        out[:, blk] = block(nu[blk], x[blk])
    return out


def _besselk_array(nu, x):
    """K_nu(x) and its absolute error estimate over 1d arrays in one
    pass, Temme's method at x <= 2 (_batched) and the trapezoid rule above
    (_TRAP_BLOCK elements at a time), checked against the box and the
    box-wide accuracy contract."""
    nu, x = (np.asarray(v, dtype=float).ravel() for v in (nu, x))
    order = np.abs(nu)
    if (x <= 0.0).any():
        raise DomainError("bessel_k requires x > 0")
    # false for a NaN, so no NaN value or estimate escapes
    if not ((order <= BESSEL_NU_MAX) & (x >= BESSEL_X_MIN)
            & (x <= BESSEL_X_MAX)).all():
        raise DomainError(
            "bessel_k supported box is |nu| <= %g, %g <= x <= %g"
            % (BESSEL_NU_MAX, BESSEL_X_MIN, BESSEL_X_MAX))
    out = np.empty((2, x.size))
    series = x <= 2.0
    out[:, series] = _batched(_besselk_block, order[series], x[series], 2)
    above = np.flatnonzero(~series)
    for k in range(0, above.size, _TRAP_BLOCK):
        at = above[k:k + _TRAP_BLOCK]
        out[:, at] = _trapezoid_block(order[at], x[at])
    check_estimate("bessel_k", out[1], TOL_BOX * np.maximum(
        1.0, np.abs(out[0])), nu=nu, x=x)
    return out


def besselk_grid(nu, x):
    """Vectorized K_nu(x) for kernel Gram assembly; values only.

    nu and x broadcast to a common shape.  Raises AccuracyError if any
    element misses the box-wide accuracy contract.  Each element's value
    depends on its own (nu, x) only: it is bitwise the same in any
    batch, in any order, and from bessel_k.
    """
    nu_b, x_b = np.broadcast_arrays(nu, x)
    return _besselk_array(nu_b, x_b)[0].reshape(nu_b.shape)


def bessel_k(nu, x):
    """Modified Bessel function of the second kind, real order.

    Supported box: |nu| <= 5, 1e-15 <= x <= 700.  Even in nu, so only
    |nu| is used.  Returns SpecFunResult.
    """
    value, err = _besselk_array([nu], [x])
    return SpecFunResult(float(value[0]), float(err[0]))


# --- Kummer U and Whittaker W -------------------------------------------


def flat_args(*args):
    """The shape the arguments broadcast to, and each of them broadcast
    to it as a 1-d float64 array."""
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
    return args[0].shape, [v.ravel() for v in args]


def shaped(shape, values):
    """values, a 1-d array, as a float for shape () or in that shape."""
    return float(values[0]) if not shape else values.reshape(shape)


def each(fn, *args):
    """fn over the elements of 1-d arrays in the scalar arithmetic of
    math, whose last bits numpy's vector exp and power do not share."""
    return np.array([fn(*v) for v in zip(*(x.tolist() for x in args))])


def row_sums(terms, spread):
    """Trapezoid sums T_h along the rows of terms, whose first column is
    an even node, and the estimates |T_h - T_2h| (T_2h is twice the even
    columns) plus the rounding of each term, _ROUND and eps times spread
    (the exponents it was computed through) of its magnitude; the caller
    adds its tails.  Each row is summed alone, so its results depend on
    it only.
    """
    even, odd = terms[:, ::2].sum(axis=1), terms[:, 1::2].sum(axis=1)
    rounding = (_ROUND + _EPS * spread) * np.abs(terms)
    return even + odd, np.abs(odd - even) + rounding.sum(axis=1)


def require(fn, name, x, ok=True, need=""):
    """DomainError, naming the argument, at the first element of the
    array x that is not finite or where ok is False."""
    bad = ~(np.isfinite(x) & ok)
    if bad.any():
        raise DomainError("%s requires finite %s%s, got %s=%g"
                          % (fn, name, need, name, x[bad][0]))


# Kummer U's step in s on t = T e^(s - e^-s) halves until a step in log t
# at the peak of the integrand f, or at t = 1, is _KU_RES over the root of
# the curvature of log f there.  Against 30-digit mpmath over a in [0.005,
# 100], b in [-50, 30], z in [1e-300, 1e8], U is within 2e-14; no row
# there is longer than 113,072 nodes, a bit under half of _KU_ROW_MAX.
_KU_STEP = 0.1
_KU_RES = 0.27
_KU_ROW_MAX = 2 ** 18


def kummer_u(a, b, z):
    """Confluent hypergeometric U(a, b, z) for a > 0, z > 0, real b.

    (1/Gamma(a)) int_0^inf e^(-zt) t^(a-1) (1+t)^(b-a-1) dt is one
    trapezoid row per element in s on t = T e^(s - e^-s), T = min(1,
    1/z): Ooura and Mori's map, double exponential as t -> 0 and log t
    linear in s past T, so the cut at t ~ 1/z and the t^(b-1) plateau
    before it are resolved at any z.  A row ends where zt = 800 + 8
    max(b - 1, 0) and starts where the left tail is e^-50 of z^-a or 1;
    lengths are padded to multiples of 16.  An element whose row would
    pass _KU_ROW_MAX nodes (a |b| or a/z far outside the box above)
    raises AccuracyError before any row is built, Gamma(a) past float64
    DomainError.  Each value and estimate depend on the element's own
    (a, b, z).  Arrays broadcast.
    """
    shape, (a, b, z) = flat_args(a, b, z)
    require("kummer_u", "a", a, a > 0.0, " > 0")
    require("kummer_u", "b", b)
    require("kummer_u", "z", z, z > 0.0, " > 0")
    log_t = -np.maximum(0.0, np.log(z))
    # the peak t0 of t^a (1+t)^(b-a-1) e^(-zt), z t0^2 - p t0 - a = 0, and
    # the curvature of log f in log t near it, at most z t0 + |b-a-1|/4;
    # d log t / ds = 1 + e^-s = 1 + s - (log t - log T) >= 1.6 from t = T
    p = b - 1.0 - z
    r = np.sqrt(p * p + 4.0 * z * a)
    t0 = np.where(p > 0.0, (p + r) / (2.0 * z),
                  2.0 * a / (r - np.minimum(p, 0.0)))
    slope = np.maximum(1.6, 1.0 - np.log(t0) + log_t)
    h = _KU_STEP * 0.5 ** np.maximum(0.0, np.ceil(np.log2(
        _KU_STEP * slope * np.sqrt(z * t0 + 0.25 * np.abs(b - a - 1.0))
        / _KU_RES)))
    need = (50.0 - a * log_t
            + np.maximum(0.0, b - a - 1.0) * math.log(2.0)) / a
    k_hi = np.ceil((np.log(800.0 + 8.0 * np.maximum(0.0, b - 1.0))
                    - np.log(z) - log_t) / h)
    n = 16.0 * np.ceil((k_hi + 1.0 + np.ceil(
        np.log(np.maximum(need, 1.0)) / h)) / 16.0)
    if not (n <= _KU_ROW_MAX).all():
        i = (~(n <= _KU_ROW_MAX)).argmax()
        raise AccuracyError(
            "kummer_u(%g, %g, %g) needs %g nodes, above the %d of a row"
            % (a[i], b[i], z[i], n[i], _KU_ROW_MAX))
    n = n.astype(int)
    k_hi += k_hi % 2.0 == 0.0        # the first node, k_hi - n + 1, even
    pref = 1.0 / each(gamma_fn, a)
    value, err = np.empty((2, a.size))
    for length in sorted(set(n.tolist())):
        at = np.flatnonzero(n == length)
        rows = max(1, _TRAP_BLOCK * _NODES // length)
        for i in (at[lo:lo + rows] for lo in range(0, at.size, rows)):
            ai, bi, zi, hi = (v[i, None] for v in (a, b, z, h))
            s = (k_hi[i, None] - length + 1.0 + np.arange(length)) * hi
            e = np.exp(-s)
            u = log_t[i, None] + s - e
            t = np.exp(u)
            au, lp, zt = ai * u, (bi - ai - 1.0) * np.log1p(t), zi * t
            f = np.exp(au + lp - zt) * (1.0 + e) * hi
            # the rounding of each term, and the left tail, at most t^a
            # max(1, 2^(b-a-1)) / a
            value[i], err[i] = row_sums(f, np.abs(au) + np.abs(lp) + zt)
            err[i] += (np.exp(au + np.maximum(0.0, bi - ai - 1.0)
                              * math.log(2.0)) / ai)[:, 0]
    value, err = pref * value, pref * err
    check_estimate("kummer_u", err, TOL_BOX * np.maximum(1.0, np.abs(value)),
                   a=a, b=b, z=z)
    return SpecFunResult(shaped(shape, value), shaped(shape, err))


def whittaker_w(kappa, mu, z):
    """Whittaker W_{kappa,mu}(z) for z > 0.

    Uses W = e^(-z/2) z^(1/2+mu) U(1/2+mu-kappa, 1+2mu, z) with the given
    mu when 1/2+mu-kappa > 0, falling back to the -mu form (W is even in
    mu) otherwise.  The two sign choices are genuinely different
    integrals, which is what makes the mu <-> -mu agreement a real
    consistency check rather than a tautology.  kappa, mu and z
    broadcast as in kummer_u.
    """
    shape, (kappa, mu, z) = flat_args(kappa, mu, z)
    require("whittaker_w", "kappa", kappa)
    require("whittaker_w", "mu", mu)
    require("whittaker_w", "z", z, z > 0.0, " > 0")
    m = np.where(0.5 + mu - kappa > 0.0, mu, -mu)
    a = 0.5 + m - kappa
    if not (a > 0.0).all():
        i = (a > 0.0).argmin()
        raise DomainError(
            "whittaker_w(%g, %g, %g): both U forms have nonpositive first "
            "argument" % (kappa[i], mu[i], z[i]))
    u = kummer_u(a, 1.0 + 2.0 * m, z)
    pref = each(lambda x, y: math.exp(-0.5 * x) * x ** (0.5 + y), z, m)
    value = pref * u.value
    err = pref * u.abs_error_estimate + np.abs(value) * 5e-16
    return SpecFunResult(shaped(shape, value), shaped(shape, err))
