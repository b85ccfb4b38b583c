"""Adaptive quadrature and half-line cosine transforms.

Public entry points:

    integrate_adaptive(f, a, b, tol)
        globally adaptive quadrature with a 15/7-point Gauss-Legendre
        rule pair (not nested: the two rules share only the node 0) over
        [a, b]; b may be math.inf (geometric panel extension, empirical
        tail extrapolation).  Every error indicator carries QUADPACK's
        rounding floor, so no result claims more than float64 certifies.

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
reference that tests hold them against.  The kernels sum those Laplace
integrals by fixed trapezoid rules, and the validation oracle sums its
own, so no module of the library calls this one: tests hold the
kernels against it as a second opinion.

Integrands take a 1-d float64 array of nodes and return their values
there as an array of the same shape; each bisection evaluates both
halves of a panel in one call.

All routines are pure, reentrant and float64 throughout.
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
_NODES = np.concatenate((_X15, _X7))
_NODES.flags.writeable = False


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    subdivisions: int


def _rule_pairs(f, lo, hi):
    """Lists of the 15-point value, error indicator and floor flag on
    each panel [lo[i], hi[i]], with one call of f on all their nodes.

    The indicator is |15pt - 7pt|, raised to the panel's rounding floor
    ROUNDING_FLOOR * h * sum |w_i f(x_i)|; the flag says it sits there,
    where bisecting the panel cannot lower it.  Each sum is a numpy
    reduction along the panel's own contiguous row of terms, whose order
    is fixed by the row length, so a panel's bits do not depend on the
    other panels.  In any order, 15 terms sum to within 14 u sum |w_i
    f(x_i)| (u = eps/2), and the product by h adds u more: 15 % of the
    floor, so the indicator still never claims what float64 cannot give.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    h = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
    fx = f(nodes.ravel()).reshape(nodes.shape)
    terms15 = _W15 * fx[:, :15]
    i15 = h * terms15.sum(axis=1)
    i7 = h * (_W7 * fx[:, 15:]).sum(axis=1)
    floor = ROUNDING_FLOOR * np.abs(h) * np.abs(terms15).sum(axis=1)
    diff = np.abs(i15 - i7)
    return [v.tolist() for v in (i15, np.maximum(diff, floor), diff <= floor)]


def _bisect(f, a, b, tol, cap):
    """The integral of f over [a, b] by globally adaptive bisection
    under the error budget tol: each step evaluates both halves of the
    panel with the largest indicator in one call of f.  Panels whose
    indicator sits at its rounding floor are settled and never bisected.
    Raises NonConvergence past cap, or as soon as the settled panels
    alone exceed tol and the open ones add no more than that again.
    """
    # max-heap of the open panels on the error indicator; the counter
    # breaks ties deterministically
    (total,), (total_err,), (settled,) = _rule_pairs(f, [a], [b])
    done, heap, floor_err = [], [], 0.0
    if settled:
        done, floor_err = [total], total_err
    else:
        heap = [(-total_err, 0, a, b, total, total_err)]
    tick = nseg = 1

    def failure(reason):
        return NonConvergence(reason, partial=QuadResult(
            math.fsum(done + [seg[4] for seg in heap]), total_err, nseg))

    while total_err > tol:
        if not heap or (floor_err > tol and total_err <= 2.0 * floor_err):
            # bisection can only shrink the open panels' share, which is
            # already within the float64 floor that tol lies below
            raise failure("tol=%g is below float64 resolution on [%g, %g]:"
                          " rounding floor %g" % (tol, a, b, floor_err))
        if nseg >= cap:
            raise failure("subdivision cap %d hit on [%g, %g]" % (cap, a, b))
        neg_e, _, lo, hi, v, e = heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # worst interval already at floating resolution: subdividing
            # further cannot reduce the estimate
            heappush(heap, (neg_e, tick, lo, hi, v, e))
            raise failure("interval at floating resolution with err=%g > "
                          "tol=%g" % (total_err, tol))
        (v1, v2), (e1, e2), (s1, s2) = _rule_pairs(f, [lo, mid], [mid, hi])
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
    return QuadResult(math.fsum(done + [seg[4] for seg in heap]), total_err,
                      nseg)


def _to_inf(f, a, tol, cap):
    """The integral of f over [a, inf) by doubling panels, each bisected
    by _bisect, with geometric tail extrapolation.

    Stops when the extrapolated remainder (ratio of the last two panel
    integrals, assumed to keep contracting) drops below tol/2.  A panel
    that cannot meet its share of tol contributes its partial and the
    extension goes on, so the NonConvergence finally raised carries a
    partial over the whole half-line.
    """
    k0 = max(1.0, abs(a) + 1.0)
    parts = []
    failure = None  # message of the first panel that missed its tol

    def panel(lo, hi, panel_tol):
        nonlocal failure
        try:
            r = _bisect(f, lo, hi, panel_tol,
                        cap - sum(p.subdivisions for p in parts))
        except NonConvergence as exc:
            failure = failure or str(exc)
            r = exc.partial
        parts.append(r)
        return r.value

    def finish(remainder):
        partial = QuadResult(
            math.fsum(p.value for p in parts),
            math.fsum(p.abs_error_estimate for p in parts) + remainder,
            sum(p.subdivisions for p in parts))
        if failure is not None:
            raise NonConvergence(failure, partial=partial)
        return partial

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


def integrate_adaptive(f, a, b, tol=1e-10):
    """Integrate f over [a, b], a finite and a <= b <= math.inf.

    f maps a 1-d float64 array of nodes to its values there, as an array
    of the same shape.  It must be finite on the open interval;
    integrable endpoint singularities are tolerated because the rules
    are open, but the caller is responsible for substituting away
    anything stronger.  Limits outside that contract, NaN included, and
    a tol that is not positive raise DomainError before f is called.

    For b = inf the tail is extrapolated from two doubling panels, which
    assumes it keeps one sign.

    abs_error_estimate is never below the rounding floor of the panels,
    ROUNDING_FLOOR * int |f| in effect.  Raises NonConvergence, with a
    .partial over the whole of [a, b], when the subdivision cap is hit
    or when tol lies below that floor (float64 cannot certify it).  The
    second case gives up as soon as the panels at their floor alone
    exceed tol and the others add at most as much again, far short of
    the cap.
    """
    a, b, tol = float(a), float(b), float(tol)
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if not math.isfinite(a):
        raise DomainError("lower limit must be finite, got %g" % a)
    if not a <= b:
        raise DomainError("limits must satisfy a <= b, got a=%g, b=%g"
                          % (a, b))
    if b == a:
        return QuadResult(0.0, 0.0, 0)
    if math.isinf(b):
        return _to_inf(f, a, tol, SUBDIVISION_CAP)
    return _bisect(f, a, b, tol, SUBDIVISION_CAP)


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
    edges_gap = math.pi / tau
    lo, hi = 0.0, 0.5 * math.pi / tau
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
            r = _bisect(lambda x: g(x) * np.cos(x * tau), lo, hi, lobe_tol,
                        512)
        except NonConvergence as exc:
            r = exc.partial
        v, e, n = r.value, r.abs_error_estimate, r.subdivisions
        nseg += n
        errs.append(e)
        running += v
        partials.append(running)
        amp = max(amp, abs(v))
        floor += ROUNDING_FLOOR * abs(v)
        if m >= 8:
            value, delta = _euler_diagonal(partials)
            tail_c = abs(g(np.array([hi]))[0]) * hi ** decay_p
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
    analytic tail bound); like integrate_adaptive's integrands it maps a
    1-d float64 array of nodes to its values there.  Even in tau: |tau|
    is used.  Float64 only.

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
