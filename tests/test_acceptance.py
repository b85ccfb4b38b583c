"""Acceptance checklist: one test per shipped claim, each at its stated
tolerance and runtime budget, under the pinned master seed.  A verbose
run prints exactly one pass/fail line per criterion.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from tplab import cli, estimators, specfun, validate
from tplab import kernels as K
from tplab.kernels import FracOUParams, HurstProfile, TwoIndexParams
from tplab.sampler import (ProcessDescriptor, TimeGrid,
                           derive_substream_seed, sample_exact)

MASTER_SEED = validate.DEFAULT_SEED


def _budget(t_start, seconds):
    elapsed = time.perf_counter() - t_start
    assert elapsed < seconds, "runtime %.1fs exceeds %gs budget" % (
        elapsed, seconds)


def test_criterion_1_fou_closed_form_vs_quadrature_oracle():
    # 5x3x5 (alpha, lambda, tau) grid, every cell within 1e-6 relative
    t0 = time.perf_counter()
    rep = validate.run_suite("oracle")
    grid_checks = [c for c in rep.checks if c.check_id.startswith(
        "oracle/fou/")]
    assert len(grid_checks) == 75
    for c in grid_checks:
        assert abs(c.actual - c.expected) <= 1e-6 * abs(c.expected), \
            c.check_id
    assert rep.passed
    _budget(t0, 60.0)


def test_criterion_2_identity_suite():
    t0 = time.perf_counter()
    # (a) four-term reduced covariance vs c_t decomposition, 1e-10
    ts = np.linspace(0.15, 4.2, 10)
    ss = np.linspace(0.2, 3.8, 10)
    for alpha, lam in ((0.75, 0.5), (1.25, 1.0), (0.6, 2.0), (1.4, 0.25)):
        p = FracOUParams(alpha, lam)
        for t in ts:
            for s in ss:
                a = K.tfbm_cov(p, t, s)
                b = K.tfbm_cov_from_ct(p, t, s)
                assert abs(a - b) <= 1e-10
    # (b) two-index variance at beta = 1 vs single-index variance, 1e-12
    for alpha in (0.6, 0.8, 1.0, 1.2, 1.4):
        v2 = K.twoindex_var(TwoIndexParams(alpha, 1.0, 1.3))
        v1 = K.fou_var(FracOUParams(alpha, 1.3))
        assert abs(v2 - v1) <= 1e-12 * v1
    # (c) half-integer Bessel closed forms, 1e-12
    for x in (0.5, 1.0, 2.0, 10.0):
        ref_half = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
        got = specfun.bessel_k(0.5, x).value
        assert abs(got - ref_half) <= 1e-12 * ref_half
        ref_32 = ref_half * (1.0 + 1.0 / x)
        got = specfun.bessel_k(1.5, x).value
        assert abs(got - ref_32) <= 1e-12 * ref_32
    # (d) scaling identities for both kernels, 1e-12
    for r in (0.5, 2.0, 7.0):
        for alpha in (0.6, 1.25):
            fac = r ** (2.0 * alpha - 1.0)
            lhs = K.fou_cov(FracOUParams(alpha, 1.0), r * 0.8)
            rhs = fac * K.fou_cov(FracOUParams(alpha, r * 1.0), 0.8)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
            lhs = K.tfbm_cov(FracOUParams(alpha, 1.0), r * 2.1, r * 0.9)
            rhs = fac * K.tfbm_cov(FracOUParams(alpha, r * 1.0), 2.1, 0.9)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    _budget(t0, 10.0)


def test_criterion_3_dual_route_equivalence():
    # Kummer vs Whittaker moving-average covariance on a 6x6 grid for a
    # constant and a ramp profile, 1e-8; constant case equals the
    # single-index kernel to 1e-8
    t0 = time.perf_counter()
    ts = np.linspace(0.2, 3.2, 6)
    ss = ts + 0.11
    const = HurstProfile.constant(0.85)
    ramp = HurstProfile.saturating_ramp(0.8, 0.1)
    p = FracOUParams(0.85, 1.0)
    for prof in (const, ramp):
        for t in ts:
            for s in ss:
                a = K.tmbm_mou_cov(prof, 1.0, t, s, route="kummer")
                b = K.tmbm_mou_cov(prof, 1.0, t, s, route="whittaker")
                assert abs(a - b) <= 1e-8 * abs(a)
                if prof is const:
                    ref = K.fou_cov(p, abs(t - s))
                    assert abs(a - ref) <= 1e-8 * abs(ref)
    _budget(t0, 10.0)


@pytest.mark.filterwarnings("ignore::tplab.errors.DivergenceWarning")
def test_criterion_4_two_index_asymptotics():
    t0 = time.perf_counter()
    # (a) large-lag series within 5% of the quadrature covariance
    for alpha, beta in ((0.9, 0.6), (1.5, 0.7)):
        q = TwoIndexParams(alpha, beta, 1.0)
        for lamtau in (10.0, 20.0, 40.0):
            ref = K.twoindex_cov(q, lamtau).value
            got = K.twoindex_cov_tail_series(q, lamtau, 12)
            assert abs(got - ref) <= 0.05 * abs(ref), (alpha, beta, lamtau)
    # (b) increment variance over the small-time law within 2% at
    # lambda t = 1e-3
    for alpha, beta in ((0.9, 0.6), (1.5, 0.7)):
        q = TwoIndexParams(alpha, beta, 1.0)
        c, expo = K.twoindex_smalltime_incvar(q)
        ratio = K.twoindex_increment_var(q, 1e-3) / (c * 1e-3 ** expo)
        assert 0.98 <= ratio <= 1.02, (alpha, beta, ratio)
    _budget(t0, 120.0)


def test_criterion_5_monte_carlo_covariance_recovery():
    # 2000 seed-pinned exact paths on 256-point grids: empirical
    # covariance within 4 standard errors of the kernels for fou, tfbm,
    # mixed, tmbm; tfbm increment Toeplitz deviation < 4 SE
    t0 = time.perf_counter()
    rep = validate.run_suite("mc", seed=MASTER_SEED, n_paths=2000)
    ids = " ".join(c.check_id for c in rep.checks)
    for family in ("fou", "tfbm", "mixed", "tmbm"):
        assert "mc/%s/covariance-max-z" % family in ids
    assert "toeplitz" in ids
    for c in rep.checks:
        assert c.passed, "%s: actual %g vs expected %g +- %g" % (
            c.check_id, c.actual, c.expected, c.tolerance)
    _budget(t0, 300.0)


def test_criterion_6_estimator_recovery():
    t0 = time.perf_counter()
    # H_hat within +-0.08 of alpha - 1/2; D_hat = 2 - H_hat within the
    # same band of 5/2 - alpha (500 paths, lambda dt = 1e-3)
    for k, alpha in enumerate((0.8, 1.0, 1.25)):
        p = ProcessDescriptor("tfbm", FracOUParams(alpha, 0.1))
        paths = sample_exact(p, TimeGrid(0.0, 0.01, 256),
                             derive_substream_seed(MASTER_SEED, 600 + k),
                             500)
        h, _ = estimators.hurst_local(paths, lam=0.1)
        assert abs(h - (alpha - 0.5)) <= 0.08, (alpha, h)
        d, _ = estimators.fractal_dimension(paths, lam=0.1)
        assert d == 2.0 - h
        assert abs(d - (2.5 - alpha)) <= 0.08, (alpha, d)
    # stationary process decorrelates: |corr| at lambda tau = 20 below
    # 0.05 (6400 paths put the MC noise floor at 4 sigma below the bound)
    p = ProcessDescriptor("fou", FracOUParams(0.75, 0.1))
    paths = sample_exact(p, TimeGrid(0.0, 0.1, 2048),
                         derive_substream_seed(MASTER_SEED, 604), 6400)
    corr = estimators.lrd_plateau_empirical(paths, 0.0, [200.0], lam=0.1)
    assert abs(float(corr[0])) < 0.05
    # reduced process keeps a correlation plateau: empirical correlation
    # at lambda tau = 40 within 3 SE of the closed-form plateau
    pp = FracOUParams(1.25, 0.5)
    paths = sample_exact(ProcessDescriptor("tfbm", pp),
                         TimeGrid(0.0, 0.04, 2048),
                         derive_substream_seed(MASTER_SEED, 605), 500)
    emp = estimators.lrd_plateau_empirical(paths, 1.0, [80.0], lam=0.5)
    ref = K.tfbm_lrd_plateau(pp, 1.0)
    assert abs(float(emp[0]) - ref) <= 3.0 / math.sqrt(500.0)
    _budget(t0, 300.0)


def test_criterion_7_figure1_reproduction(tmp_path, capsys):
    t0 = time.perf_counter()
    assert cli.main(["cov", "--figure1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "figure1.csv").read_text().splitlines()
    assert rows[0] == "t,fou,tfbm"
    table = [tuple(float(x) for x in r.split(",")) for r in rows[1:]]
    assert len(table) == 201
    # reduced curve starts at zero; fou curve hits sigma^2 at t = s
    assert table[0][0] == 0.0 and table[0][2] == 0.0
    at_s = [r for r in table if r[0] == 0.5]
    sigma2 = K.fou_var(FracOUParams(1.25, 0.5))
    assert len(at_s) == 1 and abs(at_s[0][1] - sigma2) <= 1e-14
    # variance pinch: sigma^2 <= reduced var <= 2 sigma^2 once
    # lambda t >= 20
    p = FracOUParams(1.25, 0.5)
    for t in (40.0, 44.0, 60.0, 100.0, 400.0):
        v = K.tfbm_var(p, t)
        assert sigma2 * (1.0 - 1e-12) <= v <= 2.0 * sigma2 * (1.0 + 1e-12)
    _budget(t0, 5.0)


# the MC suite's report and two exact paths files (the benchmark's tfbm
# and tmbm grids), written by one child interpreter into argv[1]
_BLAS_RUN = (
    "import sys\n"
    "from tplab import cli, validate\n"
    "out = sys.argv[1]\n"
    "with open(out + '/mc.json', 'w') as fh:\n"
    "    fh.write(validate.run_suite('mc').canonical_payload())\n"
    "for name, argv in (\n"
    "        ('tfbm', ['--process', 'tfbm', '--alpha', '0.75', '--lambda',\n"
    "                  '0.05', '--dt', '0.01', '--n', '512']),\n"
    "        ('tmbm', ['--process', 'tmbm', '--profile', 'ramp:0.8,0.1',\n"
    "                  '--lambda', '1.0', '--dt', '0.005', '--n', '256'])):\n"
    "    assert cli.main(['sample', *argv, '--t0', '0', '--paths', '500',\n"
    "                     '--seed', '11', '--out', out + '/' + name]) == 0\n")


def test_criterion_8_blas_thread_count_determinism(tmp_path, child_env):
    # the MC report and exact paths files have the same bytes at one and
    # two BLAS threads (the report without its wall-clock field, the only
    # timing entry)
    files = ("mc.json", "tfbm/paths.jsonl", "tmbm/paths.jsonl")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(child_env, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _BLAS_RUN, str(out)],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append([(out / f).read_bytes() for f in files])
    for f, one, two in zip(files, *outs):
        assert one == two, f
    assert json.loads(outs[0][0])["passed"] is True
