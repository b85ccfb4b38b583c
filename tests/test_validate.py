"""Report-format contract for the validation suites: record key order,
absolute-tolerance semantics, JSON round trip, and the canonical payload
used for cross-run comparison; plus the accuracy, error estimate and
float64-only evaluation of the oracle suite's branch-cut route.
"""

import dataclasses
import json
import math
import warnings

import mpmath
import numpy as np
import pytest

from tplab import quad, sampler, specfun, validate
from tplab import kernels as K
from tplab.errors import AccuracyError, DivergenceWarning, DomainError
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


def _id_values(check_id):
    return [float(v.split("=")[1]) for v in check_id.split("/")[2:]]


def test_scaling_batch_is_bitwise_the_scalar_kernel_calls():
    checks = validate.suite_scaling(validate.DEFAULT_SEED, 0)
    assert len(checks) == 12
    lam, tau, t, s = 1.0, 0.8, 2.1, 0.9
    for c in checks:
        r, alpha = _id_values(c.check_id)
        p, p_r = FracOUParams(alpha, lam), FracOUParams(alpha, r * lam)
        if c.check_id.startswith("scaling/fou/"):
            lhs, rhs = K.fou_cov(p, r * tau), K.fou_cov(p_r, tau)
        else:
            lhs, rhs = K.tfbm_cov(p, r * t, r * s), K.tfbm_cov(p_r, t, s)
        assert c.expected == lhs
        assert c.actual == r ** (2.0 * alpha - 1.0) * rhs


def test_variance_pinch_batch_is_bitwise_the_scalar_calls():
    p = FracOUParams(0.75, 0.5)
    pinch = [c for c in validate.suite_asymptotics(validate.DEFAULT_SEED, 0)
             if c.check_id.startswith("asymptotics/variance-pinch/")]
    assert len(pinch) == 3
    for c in pinch:
        lamt, = _id_values(c.check_id)
        assert c.actual == K.tfbm_var(p, lamt / p.lam)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_identities_batch_is_bitwise_the_per_set_calls():
    ts, ss = np.meshgrid(np.linspace(0.15, 4.2, 10),
                         np.linspace(0.2, 3.8, 10), indexing="ij")
    routes = validate._ct_routes(ts, ss)
    assert len(routes) == len(validate._CT_PARAM_SETS)
    for (alpha, lam), (direct, from_ct) in zip(validate._CT_PARAM_SETS,
                                               routes):
        p = FracOUParams(alpha, lam)
        assert _same_bits(direct, K.tfbm_cov(p, ts, ss))
        assert _same_bits(from_ct, K.tfbm_cov_from_ct(p, ts, ss))


def test_identities_half_order_checks_are_bitwise_bessel_k():
    checks = [c for c in validate.suite_identities(validate.DEFAULT_SEED, 0)
              if "/besselk-" in c.check_id]
    assert len(checks) == 8
    for c in checks:
        x, = _id_values(c.check_id)
        nu = 0.5 if "/besselk-half-order/" in c.check_id else 1.5
        assert _same_bits(c.actual, specfun.bessel_k(nu, x).value)


def test_tail_series_checks_are_bitwise_the_scalar_twoindex_calls():
    checks = [c for c in validate.suite_asymptotics(validate.DEFAULT_SEED, 0)
              if c.check_id.startswith("asymptotics/tail-series/")]
    assert len(checks) == 6
    for c in checks:
        alpha, beta, lamtau = _id_values(c.check_id)
        q = K.TwoIndexParams(alpha, beta, 1.0)
        tau = lamtau / q.lam
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DivergenceWarning)
            series = K.twoindex_cov_tail_series(q, tau, 12)
        assert _same_bits(c.actual, series / K.twoindex_cov(q, tau).value)


_KERNEL_SUITES = ("specfun", "oracle", "identities", "scaling", "asymptotics",
                  "tmbm-equivalence")


@pytest.mark.parametrize("suite", _KERNEL_SUITES)
def test_to_json_is_the_asdict_serialization(suite):
    rep = validate.run_suite(suite, seed=11, config_echo={
        "suite": suite, "seed": 11, "out": "reports", "figure1": False})
    assert rep.to_json() == json.dumps(dataclasses.asdict(rep),
                                       indent=2) + "\n"


def test_to_json_of_a_failed_check_is_the_asdict_serialization():
    bad = validate.CheckRecord("synthetic", 1.0, 2.0, 0.5, False,
                               "analytic identity")
    rep = validate.ValidationReport("scaling", {}, (bad,), False, 0.25)
    assert rep.to_json() == json.dumps(dataclasses.asdict(rep),
                                       indent=2) + "\n"
    assert json.loads(rep.to_json())["checks"][0]["passed"] is False


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


def test_all_runs_every_suite_in_order(monkeypatch):
    # each suite stubbed by one passing check naming it and its inputs
    for name in validate.SUITES:
        monkeypatch.setitem(
            validate._SUITE_FNS, name, lambda seed, n, nm=name: [
                validate.CheckRecord(nm, 0.0, 0.0, 1.0, True,
                                     "%d/%d" % (seed, n))])
    rep = validate.run_suite("all", seed=3, n_paths=7)
    assert rep.suite == "all" and rep.passed
    assert [c.check_id for c in rep.checks] == list(validate.SUITES)
    assert {c.provenance for c in rep.checks} == {"3/7"}


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
        assert abs(r.value - cf) <= 1e-9 * cf


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
        alpha, lam, tau = _id_values(c.check_id)
        assert c.expected == K.fou_cov(FracOUParams(alpha, lam), tau)


def _oracle_tol(p, tau):
    return max(1e-300, 1e-8 * abs(K.fou_cov(p, tau)))


def _oracle_cells():
    ps, taus = zip(*((FracOUParams(alpha, lam), tau)
                     for alpha, lam, tau in _ORACLE_CELLS))
    return ps, taus, [_oracle_tol(p, tau) for p, tau in zip(ps, taus)]


def test_oracle_subdivisions_are_pinned():
    # the fixed rule's node count, reported as each cell's subdivisions:
    # exp(pi/2 sinh s) on s = -4.5 + j/80, j = 0..616
    for p, tau, tol in zip(*_oracle_cells()):
        r, = validate._fou_cov_by_quadrature([p], [tau], [tol])
        assert r.subdivisions == 617


def test_oracle_batch_is_its_cells_alone():
    ps, taus, tols = _oracle_cells()
    singles = [validate._fou_cov_by_quadrature([p], [tau], [tol])[0]
               for p, tau, tol in zip(ps, taus, tols)]
    assert validate._fou_cov_by_quadrature(ps, taus, tols) == singles


def test_oracle_refuses_a_tolerance_below_its_estimate():
    # each estimate sits within the suite's 1e-8 |C|; asked for less than
    # it, the cell is refused
    ps, taus, tols = _oracle_cells()
    for p, tau, tol, r in zip(ps, taus, tols,
                              validate._fou_cov_by_quadrature(ps, taus, tols)):
        assert r.abs_error_estimate <= tol
        with pytest.raises(AccuracyError, match="alpha=%g, lambda=%g, tau=%g"
                           % (p.alpha, p.lam, tau)):
            validate._fou_cov_by_quadrature([p], [tau],
                                            [0.5 * r.abs_error_estimate])


def test_oracle_shares_no_special_function_or_sum_with_the_kernels(
        monkeypatch):
    # the second opinion calls no Bessel function and sums its own rule,
    # so a defect in specfun's shared summation cannot hide on both sides
    def refuse(*args, **kwargs):
        raise AssertionError("specfun called")

    ps, taus, tols = _oracle_cells()
    for name in ("besselk_grid", "bessel_k", "row_sums"):
        monkeypatch.setattr(specfun, name, refuse)
    assert len(validate._fou_cov_by_quadrature(ps, taus, tols)) == 75


# --- mc: the array reductions against the per-entry loops they replaced ----

def _loop_cov_z(emp, gram, n_paths):
    worst = 0.0
    for d in validate._MC_DIAGS:
        for i in range(0, gram.shape[0] - d, validate._MC_STRIDE):
            j = i + d
            if gram[i, i] == 0.0 or gram[j, j] == 0.0:
                continue
            se = math.sqrt((gram[i, i] * gram[j, j] + gram[i, j] ** 2)
                           / n_paths)
            worst = max(worst, abs(emp[i, j] - gram[i, j]) / se)
    return worst


def _loop_mean_z(values, gram):
    mu = values.mean(axis=0)
    worst = 0.0
    for i in range(gram.shape[0]):
        if gram[i, i] != 0.0:
            worst = max(worst, abs(mu[i]) / math.sqrt(gram[i, i]
                                                      / values.shape[0]))
    return worst


def _loop_toeplitz_z(emp, refs, n_paths):
    var0 = refs[validate._MC_DIAGS.index(0)]
    worst = 0.0
    for d, ref in zip(validate._MC_DIAGS, refs):
        se = math.sqrt((var0 ** 2 + ref ** 2) / n_paths)
        for i in range(0, emp.shape[0] - d, validate._MC_STRIDE):
            worst = max(worst, abs(emp[i, i + d] - ref) / se)
    return worst


def test_mc_scores_are_bitwise_the_per_entry_loops():
    # the suite's tfbm is its second family; its grid pins the origin,
    # which both routes skip
    seed, n_paths = validate.DEFAULT_SEED, 300
    got = {c.check_id: c.actual for c in validate.suite_mc(seed, n_paths)}
    p = FracOUParams(1.25, 0.5)
    desc = sampler.ProcessDescriptor("tfbm", p)
    grid = sampler.TimeGrid(0.0, 0.05, validate._MC_N)
    vals = np.stack([path.values for path in sampler.sample_exact(
        desc, grid, validate._family_seed(seed, 1), n_paths)])
    gram = sampler.build_gram(desc, grid)
    emp = validate._emp_second_moment(vals)
    assert got["mc/tfbm/covariance-max-z"] == _loop_cov_z(emp, gram, n_paths)
    assert got["mc/tfbm/mean-max-z"] == _loop_mean_z(vals, gram)
    refs = K.tfbm_increment_cov(p, grid.dt,
                                grid.dt * np.array(validate._MC_DIAGS))
    emp_inc = validate._emp_second_moment(np.diff(vals, axis=1))
    assert (got["mc/tfbm/increment-toeplitz-max-z"]
            == _loop_toeplitz_z(emp_inc, refs, n_paths))
