import math
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.fixture
def child_env():
    """The environment for tplab in a child interpreter: this tree's src
    first on PYTHONPATH, which pytest's pythonpath setting does not pass
    on to subprocesses."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))


@pytest.fixture
def structure_mp():
    """sum_i w_i D(tau_i), D = sigma^2 - C(tau) of the fou kernel, in
    mpmath with 50 significant digits of each D: the working precision
    adds the digits that sigma^2 - C cancels, about -2 min(nu, 1)
    log10(lambda |tau|).  Returned as a float."""
    mpmath = pytest.importorskip("mpmath")

    def structure(alpha, lam, taus, weights=(1,)):
        taus = [taus] if isinstance(taus, (int, float)) else list(taus)
        x = min((abs(lam * t) for t in taus if t), default=1.0)
        cancel = max(0.0, -2.0 * min(alpha - 0.5, 1.0) * math.log10(x))
        with mpmath.workdps(60 + int(cancel)):
            a, lm = mpmath.mpf(alpha), mpmath.mpf(lam)
            nu = a - mpmath.mpf(0.5)
            sig2 = mpmath.gamma(2 * nu) / (mpmath.gamma(a) ** 2
                                           * (2 * lm) ** (2 * nu))
            total = mpmath.mpf(0)
            for w, t in zip(weights, taus):
                tt = abs(mpmath.mpf(t))
                if tt:
                    c = ((tt / (2 * lm)) ** nu * mpmath.besselk(nu, lm * tt)
                         / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(a)))
                    total += w * (sig2 - c)
            return float(total)

    return structure
