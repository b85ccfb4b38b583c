"""Report-format contract for the validation suites: record key order,
absolute-tolerance semantics, JSON round trip, and the canonical payload
used for cross-run comparison; plus the accuracy, error estimate and
float64-only evaluation of the oracle suite's branch-cut route.
"""

import json
import math
import warnings

import mpmath
import numpy as np
import pytest

from tplab import quad, specfun, validate
from tplab import kernels as K
from tplab.errors import DivergenceWarning, DomainError
from tplab.kernels import FracOUParams


def test_check_record_dict_keys_in_order():
    rec = validate.CheckRecord("x", 1.0, 1.0, 0.0, True, "analytic identity")
    assert list(rec.as_dict()) == [
        "check_id", "expected", "actual", "tolerance", "passed",
        "provenance"]


def test_specfun_suite_passes_and_serializes():
    rep = validate.run_suite("specfun")
    assert rep.suite == "specfun"
    assert rep.passed
    assert len(rep.checks) >= 10
    doc = json.loads(rep.to_json())
    assert list(doc) == ["suite", "config", "checks", "passed",
                         "wall_clock_seconds"]
    assert doc["passed"] is True
    assert doc["config"]["suite"] == "specfun"
    assert all(c["check_id"] for c in doc["checks"])


@pytest.mark.parametrize("suite", ("identities", "scaling"))
def test_fast_suites_pass_with_absolute_tolerance_semantics(suite):
    rep = validate.run_suite(suite)
    assert rep.passed
    for c in rep.checks:
        assert c.passed == (abs(c.actual - c.expected) <= c.tolerance)
        assert c.tolerance >= 0.0


@pytest.mark.filterwarnings("ignore::tplab.errors.DivergenceWarning")
def test_asymptotics_suite_makes_no_lobe_sum(monkeypatch):
    # the small-time coefficient is a closed form, not a cosine transform
    def fourier_cos_halfline(*args, **kwargs):
        raise AssertionError("fourier_cos_halfline called")

    monkeypatch.setattr(quad, "fourier_cos_halfline", fourier_cos_halfline)
    assert validate.run_suite("asymptotics").passed


def test_asymptotics_suite_emits_no_divergence_warning():
    # the tail series is cut at its smallest term on purpose there
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert validate.run_suite("asymptotics").passed
    assert not [w for w in caught if w.category is DivergenceWarning]


def test_unknown_suite_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown suite 'bogus'"):
        validate.run_suite("bogus")


def test_canonical_payload_ignores_wall_clock():
    a = validate.run_suite("identities")
    b = validate.run_suite("identities")
    assert a.canonical_payload() == b.canonical_payload()
    assert "wall_clock_seconds" not in json.dumps(a.canonical_payload())


def test_config_echo_is_embedded_verbatim():
    echo = {"suite": "scaling", "who": "tester"}
    rep = validate.run_suite("scaling", config_echo=echo)
    assert rep.config == echo


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        validate.run_suite("everything")


# --- the oracle's branch-cut route ------------------------------------------

_ORACLE_CELLS = [(alpha, lam, tau) for alpha in validate._ORACLE_ALPHAS
                 for lam in validate._ORACLE_LAMS
                 for tau in validate._ORACLE_TAUS]


def test_branch_cut_route_matches_the_cosine_transform():
    # where the float64 lobe sum converges on its own (lam tau <= 1), the
    # direct cosine transform of 2 S(k) is a second opinion on the route
    for alpha, lam, tau in _ORACLE_CELLS:
        if lam * tau > 1.0:
            continue
        tol = 1e-11 * K.fou_cov(FracOUParams(alpha, lam), tau)
        branch, = validate._fou_cov_by_quadrature(
            [FracOUParams(alpha, lam)], [tau], [tol])
        lobes = quad.fourier_cos_halfline(
            lambda k: (k * k + lam * lam) ** -alpha / math.pi, tau, tol=tol,
            decay_p=2.0 * alpha)
        assert abs(branch.value - lobes.value) <= 1e-9 * abs(lobes.value)


@pytest.mark.parametrize("lam", validate._ORACLE_LAMS)
@pytest.mark.parametrize("tau", validate._ORACLE_TAUS)
def test_branch_cut_route_is_the_ou_kernel_at_alpha_one(lam, tau):
    ou = math.exp(-lam * tau) / (2.0 * lam)
    r, = validate._fou_cov_by_quadrature([FracOUParams(1.0, lam)], [tau],
                                         [1e-12 * ou])
    assert abs(r.value - ou) <= 1e-12 * ou


def test_branch_cut_error_estimate_covers_the_true_error():
    for alpha, lam, tau in _ORACLE_CELLS:
        p = FracOUParams(alpha, lam)
        cf = K.fou_cov(p, tau)
        r, = validate._fou_cov_by_quadrature([p], [tau], [1e-8 * cf])
        assert r.abs_error_estimate >= abs(r.value - cf)


def test_oracle_suite_never_needs_mpmath(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.quad called")

    monkeypatch.setattr(mpmath, "quad", refuse)
    checks = validate.suite_oracle(validate.DEFAULT_SEED, 0)
    assert len(checks) == 78
    assert all(c.passed for c in checks)


def test_oracle_suite_evaluates_its_closed_forms_in_one_bessel_batch(
        monkeypatch):
    # the 75 cells in one call, and the pinned spot value in a second
    sizes = []
    real = specfun.besselk_grid

    def counting(nu, x):
        sizes.append(np.size(x))
        return real(nu, x)

    monkeypatch.setattr(specfun, "besselk_grid", counting)
    checks = validate.suite_oracle(validate.DEFAULT_SEED, 0)
    assert len(sizes) <= 2 and sizes[0] == 75
    cells = [c for c in checks if c.check_id.startswith("oracle/fou/")]
    for c in cells[::7]:
        alpha, lam, tau = (float(v.split("=")[1])
                           for v in c.check_id.split("/")[2:])
        assert c.expected == K.fou_cov(FracOUParams(alpha, lam), tau)


# subdivisions of each oracle cell at the suite's tolerance, in the
# suite's order (alpha, then lam, then tau); evaluating a batch of panels
# in one integrand call must not move them
_ORACLE_SUBDIVISIONS = (
    # alpha = 0.6: lam = 0.25, 1, 4 by rows, tau across
    26, 23, 21, 19, 19,
    24, 22, 20, 19, 19,
    23, 20, 19, 19, 19,
    # alpha = 0.75
    29, 26, 23, 21, 21,
    27, 24, 22, 21, 21,
    25, 22, 21, 21, 21,
    # alpha = 1
    14, 11, 8, 6, 6,
    12, 9, 6, 6, 6,
    11, 8, 6, 6, 6,
    # alpha = 1.25
    43, 40, 38, 36, 36,
    41, 38, 36, 35, 35,
    39, 37, 35, 35, 35,
    # alpha = 1.4
    52, 50, 46, 46, 45,
    51, 48, 46, 45, 45,
    49, 47, 45, 45, 45,
)


def test_oracle_subdivisions_are_pinned():
    got = []
    for alpha, lam, tau in _ORACLE_CELLS:
        p = FracOUParams(alpha, lam)
        tol = max(1e-300, 1e-8 * abs(K.fou_cov(p, tau)))
        r, = validate._fou_cov_by_quadrature([p], [tau], [tol])
        got.append(r.subdivisions)
    assert tuple(got) == _ORACLE_SUBDIVISIONS
