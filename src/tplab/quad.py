"""Adaptive quadrature and half-line cosine transforms.

Two public entry points:

    integrate_adaptive(f, a, b, tol, points, rel)
        globally adaptive quadrature with a 15/7-point Gauss-Legendre
        rule pair (not nested: the two rules share only the node 0) over
        the panels between a, points and b; b may be math.inf (geometric
        panel extension, empirical tail extrapolation).  Every error
        indicator carries QUADPACK's rounding floor, so no result claims
        more than float64 certifies.

    fourier_cos_halfline(g, tau, tol, decay_p)
        I(tau) = int_0^inf g(k) cos(k tau) dk for a nonnegative amplitude
        g decaying like k^(-decay_p), decay_p > 1.  The half-line is cut at
        the zeros of cos(k tau); the alternating sequence of partial sums
        is accelerated with a repeated-averaging (Euler transform) table.

Tempered amplitudes make I(tau) exponentially small in tau while the
individual lobe integrals stay polynomially large, so for large tau the
lobe sum cancels; a tolerance below its rounding floor raises
NonConvergence with the partial.  No kernel calls it: the kernels use
closed forms or rotate such transforms onto the imaginary axis, where
they are Laplace integrals, and the lobe sum is the independent
reference that tests hold them against.

Both routines are pure, reentrant and float64 throughout.
"""

import math
import sys
from dataclasses import dataclass
from heapq import heappush, heappop

import numpy as np

from .errors import DomainError, NonConvergence, SlowDecay

SUBDIVISION_CAP = 10_000

# QUADPACK's rounding floor for a rule pair (Piessens et al., QUADPACK,
# Springer 1983, routine qk15): a panel's error indicator is never taken
# below ROUNDING_FLOOR * h * sum |w_i f(x_i)|, the rounding a float64 sum
# of that magnitude can carry.
ROUNDING_FLOOR = 50.0 * sys.float_info.epsilon

# Open (interior-node) rule pair: a 15-point Gauss-Legendre value estimate
# with the 7-point rule for the error.  leggauss nodes/weights are machine
# precision; open rules never sample the endpoints, which keeps integrable
# endpoint singularities out of harm's way.
_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
_X7.flags.writeable = False
_X15.flags.writeable = False


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    subdivisions: int


def _rule_pair(f, a, b):
    """15-point value, error indicator and floor flag on [a, b].

    The indicator is |15pt - 7pt|, raised to the panel's rounding floor
    ROUNDING_FLOOR * h * sum |w_i f(x_i)|; the flag says it sits there,
    where bisecting the panel cannot lower it.
    """
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    terms = [w * f(c + h * x) for x, w in zip(_X15, _W15)]
    i15 = h * math.fsum(terms)
    i7 = h * math.fsum(w * f(c + h * x) for x, w in zip(_X7, _W7))
    floor = ROUNDING_FLOOR * abs(h) * sum(map(abs, terms))
    diff = abs(i15 - i7)
    return i15, max(diff, floor), diff <= floor


def _adaptive_finite(f, points, tol, cap, rel=0.0):
    """Globally adaptive bisection over the panels between points under
    one error budget max(tol, rel * |value|).  Panels whose indicator
    sits at its rounding floor are settled and never bisected.  Returns
    (value, err, n_intervals); raises NonConvergence past cap, or as soon
    as the settled panels alone exceed the budget and the open ones add
    no more than that again.
    """
    # max-heap of the open panels on the error indicator; the counter
    # breaks ties deterministically
    heap, done = [], []
    floor_err = total_err = total = 0.0
    for tick, (lo, hi) in enumerate(zip(points[:-1], points[1:])):
        v, e, s = _rule_pair(f, lo, hi)
        total += v
        total_err += e
        if s:
            done.append(v)
            floor_err += e
        else:
            heappush(heap, (-e, tick, lo, hi, v, e))
    tick = nseg = len(points) - 1
    a, b = points[0], points[-1]

    def failure(reason):
        return NonConvergence(reason, partial=QuadResult(
            math.fsum(done + [seg[4] for seg in heap]), total_err, nseg))

    budget = max(tol, rel * abs(total))
    while total_err > budget:
        if not heap or (floor_err > budget and total_err <= 2.0 * floor_err):
            # bisection can only shrink the open panels' share, which is
            # already within the float64 floor that the budget lies below
            raise failure("tol=%g is below float64 resolution on [%g, %g]:"
                          " rounding floor %g" % (budget, a, b, floor_err))
        if nseg >= cap:
            raise failure("subdivision cap %d hit on [%g, %g]" % (cap, a, b))
        neg_e, _, lo, hi, v, e = heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # worst interval already at floating resolution: subdividing
            # further cannot reduce the estimate
            heappush(heap, (neg_e, tick, lo, hi, v, e))
            raise failure("interval at floating resolution with err=%g > "
                          "tol=%g" % (total_err, budget))
        v1, e1, s1 = _rule_pair(f, lo, mid)
        v2, e2, s2 = _rule_pair(f, mid, hi)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        for vi, ei, si, lo_i, hi_i in ((v1, e1, s1, lo, mid),
                                       (v2, e2, s2, mid, hi)):
            if si:
                done.append(vi)
                floor_err += ei
            else:
                heappush(heap, (-ei, tick, lo_i, hi_i, vi, ei))
            tick += 1
        nseg += 1
        budget = max(tol, rel * abs(total))
    return math.fsum(done + [seg[4] for seg in heap]), total_err, nseg


def _adaptive_to_inf(f, a, tol, cap):
    """[a, inf) by doubling panels with geometric tail extrapolation.

    Stops when the extrapolated remainder (ratio of the last two panel
    integrals, assumed to keep contracting) drops below tol/2.  A panel
    that cannot meet its share of tol contributes its partial and the
    extension goes on, so the NonConvergence finally raised carries a
    partial over the whole half-line.
    """
    k0 = max(1.0, abs(a) + 1.0)
    vals = []
    errs = []
    nseg = 0
    failure = None  # message of the first panel that missed its tol

    def panel(lo, hi, panel_tol):
        nonlocal nseg, failure
        try:
            v, e, n = _adaptive_finite(f, (lo, hi), panel_tol, cap - nseg)
        except NonConvergence as exc:
            failure = failure or str(exc)
            v, e, n = (exc.partial.value, exc.partial.abs_error_estimate,
                       exc.partial.subdivisions)
        vals.append(v)
        errs.append(e)
        nseg += n
        return v

    def finish(remainder):
        partial = QuadResult(math.fsum(vals), math.fsum(errs) + remainder,
                             nseg)
        if failure is not None:
            raise NonConvergence(failure, partial=partial)
        return partial.value, partial.abs_error_estimate, nseg

    panel(a, k0, 0.25 * tol)
    lo, hi = k0, 2.0 * k0
    prev = None
    for j in range(200):
        v = panel(lo, hi, 0.25 * tol / ((j + 2) * (j + 2)))
        if prev is not None and abs(prev) > 0.0:
            r = abs(v) / abs(prev)
            if r < 0.95:
                remainder = abs(v) * r / (1.0 - r)
                if remainder < 0.5 * tol:
                    return finish(remainder)
        if abs(v) == 0.0:
            return finish(0.0)
        prev = v
        lo, hi = hi, 2.0 * hi
    failure = failure or ("tail of [%g, inf) did not contract below "
                          "tol=%g" % (a, tol))
    return finish(abs(v))


def integrate_adaptive(f, a, b, tol=1e-10, points=(), rel=0.0):
    """Integrate f over [a, b], b possibly math.inf.

    f must be finite on the open interval; integrable endpoint
    singularities are tolerated because the rules are open, but the
    caller is responsible for substituting away anything stronger.

    On a finite interval the panels between a, points and b share one
    budget max(tol, rel * |value|).  For b = inf the tail is extrapolated
    from two doubling panels, which assumes it keeps one sign.

    abs_error_estimate is never below the rounding floor of the panels,
    ROUNDING_FLOOR * int |f| in effect.  Raises NonConvergence, with a
    .partial over the whole of [a, b], when the subdivision cap is hit
    or when the budget lies below that floor (float64 cannot certify
    it).  The second case gives up as soon as the panels at their floor
    alone exceed the budget and the others add at most as much again,
    far short of the cap.
    """
    if not (tol > 0.0 or rel > 0.0):
        raise DomainError("tol must be positive")
    if math.isinf(a):
        raise DomainError("lower limit must be finite")
    if b == a:
        return QuadResult(0.0, 0.0, 0)
    if math.isinf(b):
        if points or rel:
            raise DomainError("points and rel need a finite upper limit")
        v, e, n = _adaptive_to_inf(f, a, tol, SUBDIVISION_CAP)
    else:
        v, e, n = _adaptive_finite(f, (a, *points, b), tol,
                                   SUBDIVISION_CAP, rel)
    return QuadResult(v, e, n)


# --- oscillatory half-line transform -----------------------------------


def _euler_diagonal(partials):
    """Repeated-averaging limit of a sequence of partial sums.

    Returns (limit, delta) where delta is the change introduced by the
    final averaging pass; for an alternating tail the diagonal converges
    geometrically and delta tracks the true error well.
    """
    row = list(partials)
    last = row[-1]
    delta = math.inf
    while len(row) > 1:
        row = [0.5 * (row[i] + row[i + 1]) for i in range(len(row) - 1)]
        delta = abs(row[-1] - last)
        last = row[-1]
    return last, delta


def _cos_lobes_float(g, tau, tol, decay_p, max_lobes):
    """Between-zeros lobe integrals of g(k)cos(k tau) from k=0.

    Returns (value, err, nseg, floor, converged): floor is the rounding
    floor ROUNDING_FLOOR * sum |lobe| of the lobe sum (g >= 0, so a
    lobe's magnitude is its integral of |g cos|); the caller uses it to
    judge cancellation.
    """
    h = lambda k: g(k) * math.cos(k * tau)
    edges_gap = math.pi / tau
    lo = 0.0
    hi = 0.5 * math.pi / tau
    partials = []
    errs = []
    nseg = 0
    running = 0.0
    amp = 0.0
    floor = 0.0
    for m in range(max_lobes):
        # floor the per-lobe tolerance at the rounding floor of the
        # largest lobe so far: the lobe sum cannot be certified below it
        # anyway.  A lobe that stops at its own floor still yields a
        # usable partial and the caller's cancellation logic takes over
        lobe_tol = max(tol / (8.0 * (m + 2.0) ** 1.2), ROUNDING_FLOOR * amp)
        try:
            v, e, n = _adaptive_finite(h, (lo, hi), lobe_tol, 512)
        except NonConvergence as exc:
            if exc.partial is None:
                raise
            v = exc.partial.value
            e = exc.partial.abs_error_estimate
            n = exc.partial.subdivisions
        nseg += n
        errs.append(e)
        running += v
        partials.append(running)
        amp = max(amp, abs(v))
        floor += ROUNDING_FLOOR * abs(v)
        if m >= 8:
            value, delta = _euler_diagonal(partials)
            tail_c = abs(g(hi)) * hi ** decay_p
            tail_bound = tail_c * hi ** (1.0 - decay_p) / (decay_p - 1.0)
            est = delta + math.fsum(errs)
            if est < 0.5 * tol or (tail_bound < 0.5 * tol and delta < tol):
                return value, est, nseg, floor, True
            # cancellation floor of float64: no point piling on lobes
            if floor > 0.5 * tol and m >= 16:
                return value, est, nseg, floor, False
        lo, hi = hi, hi + edges_gap
    value, delta = _euler_diagonal(partials)
    return value, delta + math.fsum(errs), nseg, floor, False


def fourier_cos_halfline(g, tau, tol=1e-10, decay_p=2.0):
    """int_0^inf g(k) cos(k tau) dk.

    g must be a nonnegative amplitude decaying at least like k^(-decay_p)
    with decay_p > 1 (needed both for the tau=0 reduction and for the
    analytic tail bound).  Even in tau: |tau| is used.  Float64 only.

    Raises SlowDecay when the tail bound cannot meet tol, and
    NonConvergence when tol lies below the rounding floor of the
    cancelling lobe sum; both carry the partial result.
    """
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if not decay_p > 1.0:
        raise DomainError("decay_p must exceed 1 for an integrable tail")
    tau = abs(tau)
    if tau == 0.0:
        return integrate_adaptive(g, 0.0, math.inf, tol)

    value, est, nseg, floor, ok = _cos_lobes_float(
        g, tau, tol, decay_p, max_lobes=160)
    # the lobe sum's rounding floor alone keeps est >= floor, so float64
    # can certify tol only while floor stays below tol/2
    partial = QuadResult(value, est, nseg)
    if floor > 0.5 * tol:
        raise NonConvergence("lobe sum's rounding floor %g exceeds tol=%g"
                             % (floor, tol), partial=partial)
    if not ok:
        raise SlowDecay("tail bound still above tol=%g after 160 lobes"
                        % tol, partial=partial)
    return partial
