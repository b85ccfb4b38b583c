"""End-to-end command-line behavior: file formats, determinism, config
precedence, estimator pipeline, and the exit-code contract.

Everything runs in-process through cli.main(argv) for speed; one test
exercises the installed console script to cover packaging.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tplab
from tplab import cli, estimators, kernels, sampler, validate
from tplab.errors import (AccuracyError, DivergenceWarning, EmbeddingFailure,
                          EmbeddingWarning, NonConvergence, NotPSD,
                          RegimeWarning, SlowDecay)
from tplab.kernels import FracOUParams


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sample_args(tmp_path, **over):
    base = {"process": "fou", "alpha": "0.75", "lambda": "1.0",
            "dt": "0.1", "n": "16", "paths": "3", "seed": "42"}
    base.update(over)
    argv = ["sample", "--out", str(tmp_path)]
    for key, val in base.items():
        argv += ["--" + key, val]
    return argv


# --- cov ---------------------------------------------------------------------

def test_figure1_curves(tmp_path, capsys):
    assert cli.main(["cov", "--figure1", "--out", str(tmp_path)]) == 0
    dest = capsys.readouterr().out.strip()
    header, rows = _read_csv(dest)
    assert header == ["t", "fou", "tfbm"]
    assert len(rows) == 201
    t0 = [float(x) for x in rows[0]]
    assert t0[0] == 0.0 and t0[2] == 0.0
    # at t = s the fou column reads the stationary variance
    at_s = [float(x) for x in rows[10]]
    assert at_s[0] == 0.5
    assert abs(at_s[1] - 1.0787052023767583) <= 1e-14


def test_figure1_is_bitwise_the_per_row_scalar_calls(tmp_path, capsys):
    assert cli.main(["cov", "--figure1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    p = FracOUParams(1.25, 0.5)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(("t", "fou", "tfbm"))
    for t in np.linspace(0.0, 10.0, 201):
        w.writerow((float(t), kernels.fou_cov(p, t - 0.5),
                    kernels.tfbm_cov(p, t, 0.5)))
    assert (tmp_path / "figure1.csv").read_bytes() == ref.getvalue().encode()


def test_cov_curve_matches_kernel(tmp_path, capsys):
    rcode = cli.main(["cov", "--process", "fou", "--alpha", "0.75",
                      "--lambda", "1.0", "--t0", "0.0", "--dt", "0.5",
                      "--n", "5", "--out", str(tmp_path)])
    assert rcode == 0
    dest = capsys.readouterr().out.strip()
    header, rows = _read_csv(dest)
    assert header == ["t", "value"]
    p = FracOUParams(0.75, 1.0)
    for trow in rows:
        t, v = float(trow[0]), float(trow[1])
        assert abs(v - kernels.fou_cov(p, t)) <= 1e-14


def test_cov_tfgn_reads_the_variance_at_lag_zero(tmp_path, capsys):
    argv = ["cov", "--process", "tfgn", "--alpha", "1.8", "--lambda", "1.0",
            "--dt", "0.5", "--n", "3", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    _, rows = _read_csv(capsys.readouterr().out.strip())
    vals = [float(r[1]) for r in rows]
    assert vals[0] == kernels.tfgn_var(1.8, 1.0)
    assert vals[1:] == [kernels.tfgn_cov(1.8, 1.0, t) for t in (0.5, 1.0)]


def test_cov_tfgn_without_pointwise_variance_exits_2(tmp_path, capsys):
    argv = ["cov", "--process", "tfgn", "--alpha", "1.2", "--lambda", "1.0",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "pointwise variance only for alpha > 3/2" in err
    assert "tau != 0" not in err


def test_cov_tfgn_at_alpha_three_halves_off_the_origin(tmp_path, capsys):
    # C at alpha - 1 = 1/2 has no variance, but a grid without lag 0
    # never asks for it
    argv = ["cov", "--process", "tfgn", "--alpha", "1.5", "--lambda", "1",
            "--t0", "0.5", "--dt", "0.1", "--n", "10", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    _, rows = _read_csv(capsys.readouterr().out.strip())
    assert [float(r[1]) for r in rows] == [
        kernels.tfgn_cov(1.5, 1.0, 0.5 + 0.1 * k) for k in range(10)]


def test_cov_tfgn_makes_no_kummer_call(tmp_path, monkeypatch):
    def kummer_u(*args):
        raise AssertionError("kummer_u called")

    monkeypatch.setattr(tplab.specfun, "kummer_u", kummer_u)
    argv = ["cov", "--process", "tfgn", "--alpha", "1.8", "--lambda", "1.0",
            "--dt", "0.5", "--n", "3", "--out", str(tmp_path)]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("process", ("fou", "tfgn"))
def test_cov_outside_the_bessel_box_exits_2(process, tmp_path, capsys):
    # tfgn is two fou kernels, so it shares fou's box alpha - 1/2 <= 5
    argv = ["cov", "--process", process, "--alpha", "6", "--lambda", "1.0",
            "--n", "3", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "bessel_k supported box" in capsys.readouterr().err


# one admissible point per family, as config-file text
COV_CONFIG = {
    "fou": "alpha=0.75\nlam=1.0\n",
    "tfbm": "alpha=1.25\nlam=0.5\n",
    "mixed": "components=1.0:0.7:1.0,0.7:1.3:0.5\n",
    "tfbm2": "alpha=0.9\nbeta=0.8\nlam=1.0\n",
    "tmbm": "profile=ramp:0.8,0.1\nlam=1.0\n",
    "tfgn": "alpha=1.8\nlam=1.0\n",
}


@pytest.mark.parametrize("family", tuple(sampler.FAMILIES))
def test_cov_runs_for_every_family(tmp_path, capsys, family):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(COV_CONFIG[family])
    argv = ["cov", "--process", family, "--config", str(cfg), "--dt", "0.5",
            "--n", "4", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    header, rows = _read_csv(capsys.readouterr().out.strip())
    assert header == ["t", "value"] and len(rows) == 4
    assert all(math.isfinite(float(r[1])) for r in rows)


def test_process_choices_are_the_family_table():
    subs = next(a for a in cli._parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    for name in ("cov", "sample"):
        flag = next(a for a in subs.choices[name]._actions
                    if "--process" in a.option_strings)
        assert tuple(flag.choices) == tuple(sampler.FAMILIES)


# --- sample ------------------------------------------------------------------

def test_sample_record_schema_and_determinism(tmp_path, capsys):
    assert cli.main(_sample_args(tmp_path / "a")) == 0
    assert cli.main(_sample_args(tmp_path / "b")) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "paths.jsonl").read_bytes()
    b = (tmp_path / "b" / "paths.jsonl").read_bytes()
    assert a == b
    lines = a.decode().splitlines()
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        assert list(rec) == ["seed", "t0", "dt", "values", "method",
                             "family"]
        assert rec["family"] == "fou"
        assert rec["method"] == "cholesky"
        assert len(rec["values"]) == 16


def test_sample_seed_changes_output(tmp_path, capsys):
    cli.main(_sample_args(tmp_path / "a", seed="1"))
    cli.main(_sample_args(tmp_path / "b", seed="2"))
    capsys.readouterr()
    assert ((tmp_path / "a" / "paths.jsonl").read_bytes()
            != (tmp_path / "b" / "paths.jsonl").read_bytes())


def test_sample_spectral_only_for_reduced_family(tmp_path, capsys):
    argv = _sample_args(tmp_path, method="spectral")
    assert cli.main(argv) == 2
    assert "reduced" in capsys.readouterr().err


def test_sample_spectral_runs_for_tfbm(tmp_path, capsys):
    argv = _sample_args(tmp_path, process="tfbm", alpha="1.25",
                        method="spectral")
    assert cli.main(argv) == 0
    capsys.readouterr()
    recs = [json.loads(line) for line in
            (tmp_path / "paths.jsonl").read_text().splitlines()]
    assert all(r["method"] == "spectral_increments" for r in recs)
    assert all(r["values"][0] == 0.0 for r in recs)


def _sample_config(tmp_path, family, **over):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=%s\n" % family + COV_CONFIG[family] + "".join(
        "%s=%s\n" % kv for kv in over.items()))
    return ["sample", "--config", str(cfg), "--dt", "0.1", "--n", "16",
            "--paths", "3", "--seed", "42", "--out", str(tmp_path)]


def _values(tmp_path):
    return [json.loads(line)["values"] for line in
            (tmp_path / "paths.jsonl").read_text().splitlines()]


def test_sample_spectral_runs_for_a_copied_table_entry(tmp_path, capsys,
                                                       monkeypatch):
    argv = _sample_config(tmp_path, "tfbm", method="spectral")
    assert cli.main(argv) == 0
    want = _values(tmp_path)
    monkeypatch.setitem(sampler.FAMILIES, "copy", sampler.FAMILIES["tfbm"])
    assert cli.main(argv + ["--process", "copy"]) == 0
    capsys.readouterr()
    assert _values(tmp_path) == want


def test_sample_spectral_runs_for_mixed(tmp_path, capsys):
    assert cli.main(_sample_config(tmp_path, "mixed", method="spectral")) == 0
    capsys.readouterr()
    recs = [json.loads(line) for line in
            (tmp_path / "paths.jsonl").read_text().splitlines()]
    assert len(recs) == 3
    for rec in recs:
        assert rec["family"] == "mixed"
        assert rec["method"] == "spectral_increments"
        assert rec["values"][0] == 0.0
        assert all(math.isfinite(v) for v in rec["values"])


@pytest.mark.parametrize("family", ("fou", "tfgn", "tfbm2", "tmbm"))
def test_sample_spectral_names_the_reduced_families(tmp_path, capsys,
                                                    family):
    argv = _sample_config(tmp_path, family) + ["--method", "spectral"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(tfbm, mixed)" in err
    assert not (tmp_path / "paths.jsonl").exists()


def test_unknown_method_in_config_exits_2(tmp_path, capsys):
    assert cli.main(_sample_config(tmp_path, "tfbm", method="foo")) == 2
    assert "unknown method 'foo'" in capsys.readouterr().err


def test_method_choices_are_the_sampler_table():
    subs = next(a for a in cli._parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    flag = next(a for a in subs.choices["sample"]._actions
                if "--method" in a.option_strings)
    assert tuple(flag.choices) == tuple(sampler.METHODS) == ("exact",
                                                            "spectral")


@pytest.mark.parametrize("method", ("exact", "spectral"))
@pytest.mark.parametrize("paths", ("0", "-3"))
def test_sample_without_paths_exits_2(tmp_path, capsys, method, paths):
    argv = _sample_args(tmp_path, process="tfbm", method=method,
                        paths=paths)
    assert cli.main(argv) == 2
    assert "n_paths must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "paths.jsonl").exists()


def test_sample_mixture_from_config(tmp_path, capsys):
    cfg = tmp_path / "mix.cfg"
    cfg.write_text(
        "# two-component superposition\n"
        "family=mixed\n"
        "components=1.0:0.7:1.0,0.7:1.3:0.5\n"
        "dt=0.1\nn=8\npaths=2\nseed=5\n")
    assert cli.main(["sample", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 0
    capsys.readouterr()
    recs = [json.loads(line) for line in
            (tmp_path / "paths.jsonl").read_text().splitlines()]
    assert len(recs) == 2
    assert recs[0]["family"] == "mixed"
    assert np.all(np.isfinite(recs[0]["values"]))


@pytest.mark.parametrize("profile", ("ramp:0.8,0.1", "constant:0.85"))
def test_sample_tmbm_profiles(tmp_path, capsys, profile):
    argv = _sample_args(tmp_path, process="tmbm", profile=profile)
    del argv[argv.index("--alpha"):argv.index("--alpha") + 2]
    assert cli.main(argv) == 0
    capsys.readouterr()


def test_sample_tabulated_profile_file(tmp_path, capsys):
    prof = tmp_path / "prof.csv"
    prof.write_text("t,alpha\n0.0,0.8\n1.0,1.0\n2.0,0.9\n")
    argv = _sample_args(tmp_path, process="tmbm", profile=str(prof))
    del argv[argv.index("--alpha"):argv.index("--alpha") + 2]
    assert cli.main(argv) == 0
    capsys.readouterr()


def test_profile_row_without_alpha_exits_2_naming_the_row(tmp_path, capsys):
    prof = tmp_path / "short.csv"
    prof.write_text("t,alpha\n0.0,0.8\n1.0\n")
    argv = ["cov", "--process", "tmbm", "--profile", str(prof), "--lambda",
            "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "profile: row '1.0'" in err and "Traceback" not in err


def test_sample_missing_parameter_exits_2(tmp_path, capsys):
    argv = _sample_args(tmp_path)
    del argv[argv.index("--lambda"):argv.index("--lambda") + 2]
    assert cli.main(argv) == 2
    assert "--lambda" in capsys.readouterr().err


# --- estimate ----------------------------------------------------------------

@pytest.fixture(scope="module")
def tfbm_paths_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("paths")
    argv = ["sample", "--process", "tfbm", "--alpha", "0.75", "--lambda",
            "0.05", "--dt", "0.1", "--n", "64", "--paths", "120", "--seed",
            "11", "--out", str(out)]
    assert cli.main(argv) == 0
    return str(out / "paths.jsonl")


def test_estimate_all_table(tfbm_paths_file, tmp_path, capsys):
    assert cli.main(["estimate", tfbm_paths_file, "--estimator", "all",
                     "--lambda", "0.05", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(str(tmp_path / "estimate.csv"))
    assert header == ["estimator", "estimate", "se"]
    byname = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    assert set(byname) == {"hurst", "dimension", "variogram_slope"}
    h = byname["hurst"][0]
    assert 0.0 < h < 1.0
    assert abs(byname["dimension"][0] - (2.0 - h)) <= 1e-12
    assert abs(byname["variogram_slope"][0] - 2.0 * h) <= 1e-12


def test_estimate_all_fits_one_variogram(tmp_path, capsys, monkeypatch):
    # spectral paths at a fixed seed; the three rows come from one fit
    # and equal, byte for byte, the rows of the three estimators called
    # on their own
    argv = ["sample", "--process", "tfbm", "--alpha", "0.75", "--lambda",
            "0.05", "--dt", "0.1", "--n", "64", "--paths", "120", "--seed",
            "11", "--method", "spectral", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    paths_file = str(tmp_path / "paths.jsonl")
    paths = cli._load_paths(paths_file)
    h, se = estimators.hurst_local(paths, lam=0.05)
    d, d_se = estimators.fractal_dimension(paths, lam=0.05)
    est = estimators.variogram(paths, 0.1 * np.arange(1, 9))
    want = [["hurst", repr(h), repr(se)], ["dimension", repr(d), repr(d_se)],
            ["variogram_slope", repr(est.slope), repr(est.slope_stderr)]]
    fits = []
    real = estimators.variogram
    monkeypatch.setattr(estimators, "variogram",
                        lambda *a: fits.append(a) or real(*a))
    assert cli.main(["estimate", paths_file, "--estimator", "all",
                     "--lambda", "0.05", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(fits) == 1
    assert _read_csv(str(tmp_path / "estimate.csv"))[1] == want


def test_estimate_variogram_stdout_and_fit(tfbm_paths_file, tmp_path,
                                           capsys):
    assert cli.main(["estimate", tfbm_paths_file, "--estimator",
                     "variogram", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "slope" in out and "stderr" in out
    header, rows = _read_csv(str(tmp_path / "estimate.csv"))
    assert header == ["lag", "gamma_hat", "fitted"]
    assert len(rows) == 8
    for r in rows:
        assert float(r[1]) > 0.0 and float(r[2]) > 0.0


def test_estimate_windowed_hurst(tfbm_paths_file, tmp_path, capsys):
    assert cli.main(["estimate", tfbm_paths_file, "--estimator",
                     "hurst-windowed", "--lambda", "0.05", "--out",
                     str(tmp_path)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(str(tmp_path / "estimate.csv"))
    assert header == ["t", "h_hat", "se"]
    assert len(rows) >= 2


def test_estimate_plateau(tmp_path, capsys):
    argv = ["sample", "--process", "fou", "--alpha", "0.75", "--lambda",
            "1.0", "--dt", "1.0", "--n", "64", "--paths", "150", "--seed",
            "3", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(["estimate", str(tmp_path / "paths.jsonl"),
                     "--estimator", "plateau", "--lambda", "1.0", "--out",
                     str(tmp_path)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(str(tmp_path / "estimate.csv"))
    assert header == ["tau", "correlation", "se"]
    # half, three quarters and all of the span past t = 1, on the grid
    assert [r[0] for r in rows] == ["31.0", "46.0", "62.0"]
    for r in rows:
        assert abs(float(r[1])) <= 1.0 + 1e-12
        assert abs(float(r[2]) - 1.0 / math.sqrt(150.0)) <= 1e-12


# estimate a four-point path file in a fresh interpreter, where numpy.ma
# is not loaded yet, and report whether the estimate loaded it
_PLATEAU_FRESH = ("import sys; from tplab.cli import main; "
                  "code = main(sys.argv[1:]); "
                  "print('numpy.ma' in sys.modules); sys.exit(code)")


def test_estimate_plateau_merges_lags_that_round_together(tmp_path, capsys,
                                                         child_env):
    # on a four-point grid 3/4 of the span rounds onto the whole span
    assert cli.main(["sample", "--process", "fou", "--alpha", "0.75",
                     "--lambda", "10.0", "--dt", "1.0", "--n", "4",
                     "--paths", "150", "--seed", "3", "--out",
                     str(tmp_path)]) == 0
    capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-c", _PLATEAU_FRESH, "estimate",
         str(tmp_path / "paths.jsonl"), "--estimator", "plateau",
         "--lambda", "10.0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    # sorting three lags must not pay for importing numpy.ma
    assert proc.stdout.splitlines()[-1] == "False"
    header, rows = _read_csv(str(tmp_path / "estimate.csv"))
    assert [r[0] for r in rows] == ["1.0", "2.0"]


def test_estimate_plateau_needs_lambda(tfbm_paths_file, capsys):
    assert cli.main(["estimate", tfbm_paths_file, "--estimator",
                     "plateau"]) == 2
    assert "--lambda" in capsys.readouterr().err


_RECORD = {"seed": 1, "t0": 0.0, "dt": 0.5, "values": [0.0, 1.0],
           "method": "cholesky", "family": "tfbm"}


def _mistyped(field, value, need):
    return pytest.param(json.dumps(dict(_RECORD, **{field: value})), 2,
                        "field %s must be %s" % (field, need),
                        id="%s=%s" % (field, json.dumps(value)))


@pytest.mark.parametrize("line lineno hint".split(), (
    ('{"seed": 1, "t0": 0.0}', 2, "record keys"),
    ('{bad json', 2, "invalid JSON"),
    _mistyped("values", ["a", 1.0], "a flat list of finite numbers"),
    _mistyped("values", 3.0, "a flat list of finite numbers"),
    _mistyped("values", None, "a flat list of finite numbers"),
    _mistyped("values", [0.0, math.nan], "a flat list of finite numbers"),
    _mistyped("values", [[1.0], [2.0]], "a flat list of finite numbers"),
    _mistyped("values", [[1.0], [2.0, 3.0]], "a flat list of finite numbers"),
    _mistyped("t0", "x", "a finite number"),
    _mistyped("dt", None, "a finite number"),
    _mistyped("seed", "x", "an integer"),
    _mistyped("seed", 1.5, "an integer"),
))
def test_estimate_schema_errors_carry_line_numbers(tmp_path, capsys, line,
                                                   lineno, hint):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(_RECORD) + "\n" + line + "\n")
    assert cli.main(["estimate", str(bad), "--estimator", "hurst"]) == 2
    err = capsys.readouterr().err
    assert "line %d" % lineno in err
    assert hint in err


def test_flat_values_takes_numbers_only():
    assert cli._flat_values(["1.5", True, 2]) is None
    assert cli._flat_values([1.5, 1, 2]).tolist() == [1.5, 1.0, 2.0]


@pytest.mark.parametrize("field value".split(), (
    ("values", ["1.5", 1.0]),
    ("values", [True, 1.0]),
    ("values", []),
    ("values", [1.0, 10 ** 400]),
    ("t0", 10 ** 400),
    ("dt", True),
    ("family", [1]),
    ("family", {"a": 1}),
    ("method", [1]),
), ids=("values-string", "values-bool", "values-empty", "values-huge-int",
        "t0-huge-int", "dt-bool", "family-list", "family-dict",
        "method-list"))
@pytest.mark.parametrize("lineno", (1, 2))
def test_estimate_refuses_a_field_naming_file_and_line(tmp_path, capsys,
                                                       field, value, lineno):
    lines = [json.dumps(_RECORD)] * 2
    lines[lineno - 1] = json.dumps(dict(_RECORD, **{field: value}))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["estimate", str(bad), "--estimator", "hurst"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [err[0]]
    assert "%s line %d: field %s must be" % (bad, lineno, field) in err[0]


def test_estimate_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(json.dumps(_RECORD).encode() + b"\n\xff\xfe\n")
    assert cli.main(["estimate", str(bad), "--estimator", "hurst"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: %s is not UTF-8 text" % bad)


def test_estimate_rejects_mixed_grids(tmp_path, capsys):
    rec = {"seed": 1, "t0": 0.0, "dt": 0.5, "values": [0.0, 1.0],
           "method": "cholesky", "family": "tfbm"}
    other = dict(rec, dt=0.25)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(rec) + "\n" + json.dumps(other) + "\n")
    assert cli.main(["estimate", str(bad), "--estimator", "hurst"]) == 2
    assert "does not match the first record" in capsys.readouterr().err


def test_estimate_missing_file_exits_2(capsys):
    assert cli.main(["estimate", "/nonexistent/paths.jsonl",
                     "--estimator", "hurst"]) == 2
    capsys.readouterr()


# --- validate ----------------------------------------------------------------

def test_validate_report_file_and_config_echo(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=scaling\nseed=99\n")
    rcode = cli.main(["validate", "--config", str(cfg), "--seed", "7",
                      "--out", str(tmp_path)])
    assert rcode == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.err
    doc = json.loads((tmp_path / "report-scaling.json").read_text())
    assert doc["suite"] == "scaling"
    assert doc["passed"] is True
    # flag overrides the file entry and both land in the echo
    assert doc["config"]["seed"] == 7
    assert doc["config"]["suite"] == "scaling"
    for c in doc["checks"]:
        assert c["passed"] == (
            abs(c["actual"] - c["expected"]) <= c["tolerance"])


def test_validate_stdout_when_no_out_dir(capsys):
    assert cli.main(["validate", "--suite", "specfun"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["suite"] == "specfun"


def test_validate_failing_report_exits_1(monkeypatch, capsys):
    bad = validate.CheckRecord("synthetic", 1.0, 2.0, 0.5, False,
                               "analytic identity")
    rep = validate.ValidationReport("scaling", {}, (bad,), False, 0.0)
    monkeypatch.setattr(validate, "run_suite",
                        lambda *a, **kw: rep)
    assert cli.main(["validate", "--suite", "scaling"]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_numerical_failure_exits_3(monkeypatch, capsys):
    def boom(*a, **kw):
        raise NotPSD("synthetic")

    monkeypatch.setattr(validate, "run_suite", boom)
    assert cli.main(["validate", "--suite", "scaling"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("error", (NonConvergence, SlowDecay, AccuracyError,
                                   EmbeddingFailure))
def test_each_numerical_failure_exits_3(monkeypatch, capsys, error):
    def boom(*a, **kw):
        raise error("synthetic")

    monkeypatch.setattr(validate, "run_suite", boom)
    assert cli.main(["validate", "--suite", "scaling"]) == 3
    assert capsys.readouterr().err == "numerical failure: synthetic\n"


# --- config and usage --------------------------------------------------------

def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha=0.75\nnot a pair\n")
    assert cli.main(["cov", "--config", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("alfalfa=1\n")
    assert cli.main(["cov", "--config", str(unknown)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert cli.main(["cov", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_a_config_that_sets_tol_exits_2(tmp_path, capsys):
    # tfbm2 lags are computed at full precision; no key bounds their error
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=1e-8\n")
    assert cli.main(["cov", "--config", str(cfg), "--process", "tfbm2",
                     "--alpha", "0.9", "--beta", "0.8", "--lambda", "1",
                     "--n", "3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: unknown config key 'tol'\n"


def test_unknown_suite_in_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=bogus\n")
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown suite 'bogus'")


# the options each subcommand reads, written out as the contract
_READS = {
    "cov": {"family", "alpha", "beta", "lam", "profile", "components", "s",
            "t0", "dt", "n", "figure1", "out"},
    "sample": {"family", "alpha", "beta", "lam", "profile", "components",
               "t0", "dt", "n", "method", "paths", "seed", "out"},
    "estimate": {"lam", "estimator", "plateau_t", "out"},
    "validate": {"suite", "seed", "paths", "out"},
}
_FLAGS = {
    "cov": {"--config", "--process", "--alpha", "--beta", "--lambda",
            "--profile", "--s", "--t0", "--dt", "--n", "--figure1", "--out"},
    "sample": {"--config", "--process", "--alpha", "--beta", "--lambda",
               "--profile", "--t0", "--dt", "--n", "--method", "--paths",
               "--seed", "--out"},
    "estimate": {"--config", "--lambda", "--estimator", "--out"},
    "validate": {"--config", "--suite", "--seed", "--paths", "--out"},
}
# one readable value per config key, as config-file text
_KEY_TEXT = {
    "family": "fou", "alpha": "0.75", "beta": "0.5", "lam": "1.0",
    "profile": "constant:0.8", "components": "1.0:0.7:1.0", "s": "0.5",
    "t0": "0", "dt": "0.1", "n": "4", "figure1": "0",
    "out": "out", "method": "exact", "paths": "2", "seed": "1",
    "suite": "specfun", "estimator": "hurst", "plateau_t": "1.0",
}
_POSITIONAL = {"estimate": ["paths.jsonl"]}


def test_each_subcommand_takes_the_flags_it_reads():
    subs = next(a for a in cli._parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(_FLAGS)
    for name, sub in subs.choices.items():
        flags = {f for a in sub._actions for f in a.option_strings}
        assert flags - {"-h", "--help"} == _FLAGS[name], name


@pytest.mark.parametrize("command", tuple(_READS))
def test_each_subcommand_takes_the_config_keys_it_reads(tmp_path, command):
    taken = set()
    for key, text in _KEY_TEXT.items():
        cfg = tmp_path / ("%s.cfg" % key)
        cfg.write_text("%s=%s\n" % (key, text))
        args = cli._parser().parse_args(
            [command, *_POSITIONAL.get(command, ()), "--config", str(cfg)])
        try:
            cli._build_config(args)
        except cli.DomainError as exc:
            assert str(exc) == ("config key %r is not read by tplab %s"
                                % (key, command))
        else:
            taken.add(key)
    assert taken == _READS[command]


@pytest.mark.parametrize("argv", (
    ["cov", "--figure1", "--seed", "1"],
    ["sample", "--process", "fou", "--suite", "all"],
    ["estimate", "paths.jsonl", "--alpha", "0.75"],
    ["validate", "--suite", "scaling", "--alpha", "9", "--process", "tmbm",
     "--n", "3"],
), ids=("cov", "sample", "estimate", "validate"))
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys,
                                                     argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ["cov", "--seed", "1"], ["sample", "--suite", "all"],
    ["estimate", "paths.jsonl", "--alpha", "0.75"],
    ["validate", "--suite", "scaling", "--alpha", "9"],
), ids=("cov", "sample", "estimate", "validate"))
def test_an_unread_flag_shows_the_subcommand_usage(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    command = "tplab %s" % argv[0]
    assert err.startswith("usage: %s [-h] [--config CONFIG]" % command)
    assert err.endswith("\n%s: error: unrecognized arguments: %s\n"
                        % (command, " ".join(argv[-2:])))


def test_import_builds_no_parser(child_env):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tplab.cli; print(tplab.cli._parser.cache_info().currsize)"],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_successive_commands_share_one_parser_and_leak_nothing(tmp_path,
                                                               capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=scaling\nseed=99\n")
    argv = ["validate", "--config", str(cfg), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    first = (tmp_path / "report-scaling.json").read_text()
    assert cli.main(["validate", "--suite", "specfun"]) == 0
    assert cli.main(_sample_args(tmp_path / "s")) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["cov", "--figure1", "--bogus", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tplab cov [-h] [--config CONFIG]")
    assert err.endswith("tplab cov: error: unrecognized arguments: "
                        "--bogus\n")
    assert cli.main(argv) == 0
    again = json.loads((tmp_path / "report-scaling.json").read_text())
    assert list(again["config"].items()) == list(
        json.loads(first)["config"].items()) == [
        ("suite", "scaling"), ("seed", 99), ("out", str(tmp_path))]
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("command key".split(), (
    ("cov", "suite"), ("sample", "estimator"), ("estimate", "seed"),
    ("validate", "family"),
))
def test_a_config_key_the_subcommand_does_not_read_exits_2(tmp_path, capsys,
                                                           command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s=%s\n" % (key, _KEY_TEXT[key]))
    argv = [command, *_POSITIONAL.get(command, ()), "--config", str(cfg),
            "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: config key %r is not read by tplab %s\n" % (key, command))


@pytest.mark.parametrize("config flags message".split(), (
    ("alpha=abc\n", [], "alpha: cannot read 'abc' as float"),
    ("n=1.5\n", [], "n: cannot read '1.5' as int"),
    ("", ["--process", "tmbm", "--profile", "ramp:a,b", "--lambda", "1"],
     "profile: cannot read 'a' as float"),
    ("family=mixed\ncomponents=1.0:x:1\n", [],
     "components: cannot read 'x' as float"),
))
def test_malformed_number_exits_2_naming_the_key(tmp_path, capsys, config,
                                                 flags, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    argv = ["cov", "--config", str(cfg), "--out", str(tmp_path)] + flags
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field", ("t0", "dt"))
@pytest.mark.parametrize("text", ("nan", "inf", "-inf"))
def test_non_finite_grid_field_exits_2_naming_it(tmp_path, capsys, field,
                                                 text):
    argv = ["cov", "--process", "tfbm", "--alpha", "0.75", "--lambda", "1",
            "--t0", "0", "--dt", "0.1", "--n", "4", "--out", str(tmp_path),
            "--%s=%s" % (field, text)]
    assert cli.main(argv) == 2
    assert ("%s must be finite, got %s" % (field, text)
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", (
    ["--process", "fou", "--alpha", "0.75"],
    ["--process", "tfbm2", "--alpha", "0.9", "--beta", "0.6"],
    ["--process", "tmbm", "--profile", "ramp:0.8,0.1"],
), ids=("fou", "tfbm2", "tmbm"))
def test_infinite_tempering_rate_exits_2_naming_lambda(tmp_path, capsys,
                                                       argv):
    argv = ["cov", *argv, "--lambda", "inf", "--n", "4",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "lambda must be finite > 0, got inf" in capsys.readouterr().err


def test_infinite_two_index_alpha_exits_2_naming_alpha(tmp_path, capsys):
    argv = ["cov", "--process", "tfbm2", "--alpha", "inf", "--beta", "0.9",
            "--lambda", "1", "--n", "4", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "alpha must be finite > 0, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ["--process", "tfbm", "--alpha", "0.75"],
    ["--process", "tmbm", "--profile", "ramp:0.8,0.1"],
), ids=("tfbm", "tmbm"))
def test_nan_second_time_exits_2_naming_s(tmp_path, capsys, argv):
    argv = ["cov", *argv, "--lambda", "1", "--s", "nan", "--n", "4",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "s must be finite, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ("0.75", "1.25"))
def test_fou_cov_at_tiny_tempering_rate(tmp_path, capsys, alpha):
    # lambda * dt = 5e-11 needs Bessel K below x = 1e-6
    mpmath = pytest.importorskip("mpmath")
    assert cli.main(["cov", "--process", "fou", "--alpha", alpha,
                     "--lambda", "1e-9", "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(capsys.readouterr().out.strip())
    assert len(rows) == 256
    a = mpmath.mpf(alpha)
    with mpmath.workdps(30):
        for t, v in (map(float, rows[k]) for k in (1, 100, 255)):
            tau, lam = mpmath.mpf(t), mpmath.mpf(1e-9)
            ref = float((tau / (2 * lam)) ** (a - 0.5)
                        * mpmath.besselk(a - 0.5, lam * tau)
                        / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(a)))
            assert abs(v - ref) <= 1e-13 * ref


@pytest.mark.parametrize("argv", (
    ["cov", "--process", "tfbm", "--alpha", "1.25"],
    ["cov", "--process", "tfbm", "--alpha", "0.75"],
    ["cov", "--process", "tmbm", "--profile", "constant:1.25"],
    ["sample", "--process", "tfbm", "--alpha", "1.25", "--n", "16",
     "--paths", "2"],
    ["sample", "--process", "tfbm", "--alpha", "1.25", "--n", "16",
     "--paths", "2", "--method", "spectral"],
    ["sample", "--process", "tmbm", "--profile", "constant:1.25",
     "--n", "16", "--paths", "2"],
), ids=("cov-tfbm-1.25", "cov-tfbm-0.75", "cov-tmbm", "sample-exact",
        "sample-spectral", "sample-tmbm"))
def test_reduced_process_below_the_lag_floor_exits_2(tmp_path, capsys,
                                                      argv, structure_mp):
    # at lambda = 1e-9, sigma^2 ~ 1e13 against a variance ~ 1e-2 at
    # t = 0.05 for alpha = 1.25: sigma^2 - C(t) would be rounding noise,
    # and these lags, below the former floor lambda |tau| = 1e-6, were
    # refused (exit 2).  D no longer subtracts: they run, and the cov
    # CSV keeps its digits
    assert cli.main(argv + ["--lambda", "1e-9", "--out", str(tmp_path)]) == 0
    if argv[0] != "cov":
        return
    _, rows = _read_csv(capsys.readouterr().out.strip())
    assert len(rows) == 256
    alpha = float(argv[-1].split(":")[-1])
    for k in (1, 10, 100, 255):
        t, v = map(float, rows[k])
        taus, weights = (t, 0.5, t - 0.5), (1, 1, -1)
        ref = structure_mp(alpha, 1e-9, taus, weights)
        terms = sum(structure_mp(alpha, 1e-9, u) for u in taus)
        assert abs(v - ref) <= 2e-13 * abs(ref) + 16.0 * 2.0 ** -52 * terms


# One input per way a cov or sample run at the float64 edges failed,
# with a traceback or with NaN or +-inf written at exit 0:
# - Gamma(2 alpha - 1) overflowed;
# - D's series indexed past its terms at alpha >= 16, though every lag
#   is 0 or past K's underflow, where D = sigma^2 is a double: it runs;
# - the two-index variance's power of lambda overflowed;
# - D took Temme's form lambda^(-2 nu) G_nu, which overflows at alpha =
#   1.49 although D is a double there: refused, as D cannot be formed;
# - D itself overflowed;
# - tfgn's lambda^2 sigma^2_alpha was inf * 0.
@pytest.mark.parametrize("command", ("cov", "sample"))
@pytest.mark.parametrize("argv code".split(), (
    (["--process", "fou", "--alpha", "87", "--lambda", "1"], 2),
    (["--process", "tfbm", "--alpha", "16", "--lambda", "1e8"], 0),
    (["--process", "tfbm2", "--alpha", "30", "--beta", "1",
      "--lambda", "1e-40"], 2),
    (["--process", "tfbm", "--alpha", "1.49", "--lambda", "1e-300"], 2),
    (["--process", "tfbm", "--alpha", "5.4", "--lambda", "1e-40"], 2),
    (["--process", "tfgn", "--alpha", "3", "--lambda", "1e300"], 2),
), ids=("gamma-overflow", "series-past-its-terms", "two-index-variance",
        "temme-overflow", "structure-overflow", "tfgn-inf-times-zero"))
def test_float64_edges_exit_in_one_line_and_write_finite_values(
        tmp_path, capsys, command, argv, code):
    extra = ["--paths", "2"] if command == "sample" else []
    assert cli.main([command, *argv, *extra, "--dt", "0.1", "--n", "8",
                     "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err.splitlines()
    written = list(tmp_path.iterdir())
    if code:
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not written
        return
    (dest,) = written
    values = ([float(v) for row in _read_csv(dest)[1] for v in row]
              if command == "cov" else
              [v for row in _values(tmp_path) for v in row])
    assert len(values) == 16   # 8 rows of (t, value), or 2 paths of 8
    assert all(map(math.isfinite, values)), values


@pytest.mark.parametrize("method", ("exact", "spectral"))
def test_a_grid_variance_past_float64_is_refused(tmp_path, capsys, method):
    # D = 1.07e308 past K's underflow is a double, but the Gram's 2 D(t)
    # and the increments' D + D are not: exact paths came out inf and
    # spectral ones NaN, with exit 0
    argv = ["sample", "--process", "tfbm", "--alpha", "1.2", "--lambda",
            "4.9e-221", "--dt", "1e230", "--n", "8", "--paths", "2",
            "--method", method, "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the grid's"), err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", (
    ["cov", "--process", "fou", "--alpha", "0.75"],
    ["cov", "--process", "tfgn", "--alpha", "1.6"],
    ["sample", "--process", "fou", "--alpha", "0.75", "--paths", "2"],
), ids=("cov-fou", "cov-tfgn", "sample-fou"))
def test_a_lag_whose_lambda_tau_underflows_is_refused_in_the_users_terms(
        tmp_path, capsys, argv):
    # each exited 2 with "error: bessel_k requires x > 0"
    argv = argv + ["--lambda", "1e-300", "--t0", "0", "--dt", "1e-300",
                   "--n", "3", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the covariance needs lambda*|tau| >= 1e-15 at a "
                   "positive lag, got 0 at alpha=%s, lambda=1e-300, "
                   "tau=1e-300" % argv[4]], err
    assert not list(tmp_path.iterdir())


def test_tfbm_grid_past_the_old_jitter_cap_samples(tmp_path):
    # exited 3 ("the kernel Gram matrix is not positive semidefinite")
    # while D subtracted sigma^2 - C(tau)
    argv = ["sample", "--process", "tfbm", "--alpha", "2.5", "--lambda",
            "1e-3", "--t0", "0", "--dt", "0.01", "--n", "256", "--paths",
            "100", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len(_values(tmp_path)) == 100


def test_overflowing_grid_extent_exits_2(tmp_path, capsys):
    argv = ["cov", "--process", "tfbm", "--alpha", "0.75", "--lambda", "1",
            "--t0", "1e308", "--dt", "1e308", "--n", "4",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "grid extent overflows floating range" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--method", "teleport"])
    assert exc.value.code == 2


def test_console_script_runs(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "tplab.cli", "validate", "--suite",
         "specfun"],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


# alpha = 2.5 makes the increment embedding fail on this grid
_FALLBACK = ["sample", "--process", "tfbm", "--alpha", "2.5", "--lambda",
             "0.01", "--t0", "0", "--dt", "1", "--n", "64", "--paths", "2",
             "--method", "spectral", "--seed", "1"]


def test_a_warning_is_one_line_in_the_users_terms(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "tplab.cli", *_FALLBACK, "--out",
         str(tmp_path)], capture_output=True, text=True, timeout=120,
        env=child_env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "warning: circulant embedding failed"), proc.stderr


def test_a_warning_stays_a_python_warning(tmp_path, capsys):
    shown = warnings.formatwarning
    with pytest.warns(EmbeddingWarning):
        assert cli.main(_FALLBACK + ["--out", str(tmp_path)]) == 0
    assert warnings.formatwarning is shown
    capsys.readouterr()


# the library's runtime needs numpy only: mpmath is a test dependency
_WITHOUT_MPMATH = ("import sys; sys.modules['mpmath'] = None; "
                   "from tplab.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("argv", (
    ["validate", "--suite", "asymptotics"],
    ["cov", "--process", "tfbm2", "--alpha", "0.9", "--beta", "0.8",
     "--lambda", "1", "--n", "8"],
), ids=("validate-asymptotics", "cov-tfbm2"))
def test_runs_where_mpmath_cannot_be_imported(tmp_path, argv, child_env):
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_MPMATH, *argv, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr


# --- the documented input domain of `tplab sample` ---------------------------

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_log_lam = _floats(-4.0, 2.0).map(lambda e: 10.0 ** e)
# FOU's Bessel box, alpha - 1/2 <= 5, which every reduced law shares
_alpha = _floats(0.51, 5.5)
# a ramp's base and base + gain both lie in (1/2, 3/2)
_ramp = _floats(0.55, 1.45).flatmap(lambda b: _floats(
    max(-0.3, 0.51 - b), min(0.3, 1.49 - b)).map(
        lambda g: "ramp:%r,%r" % (b, g)))

# per family, the config entries its parameters take, drawn inside its
# documented domain
_PARAMS = {
    "fou": st.fixed_dictionaries({"alpha": _alpha, "lam": _log_lam}),
    "tfbm": st.fixed_dictionaries({"alpha": _alpha, "lam": _log_lam}),
    "mixed": st.lists(
        st.tuples(_floats(0.1, 2.0), _alpha, _log_lam), min_size=1,
        max_size=3, unique_by=lambda c: c[1]).map(
            lambda cs: {"components": ",".join("%r:%r:%r" % c for c in cs)}),
    # alpha * beta > 1/2
    "tfbm2": _alpha.flatmap(lambda a: st.fixed_dictionaries({
        "alpha": st.just(a), "beta": _floats(0.51 / a, 1.0),
        "lam": _log_lam})),
    "tmbm": st.fixed_dictionaries({
        "profile": st.one_of(
            _floats(0.55, 1.45).map(lambda a: "constant:%r" % a), _ramp),
        "lam": _log_lam}),
    # a pointwise variance needs alpha > 3/2
    "tfgn": st.fixed_dictionaries({"alpha": _floats(1.51, 5.5),
                                   "lam": _log_lam}),
}


@st.composite
def _sample_runs(draw):
    family = draw(st.sampled_from(tuple(sampler.FAMILIES)))
    cfg = {"family": family, **draw(_PARAMS[family])}
    # only the reduced families synthesize spectrally, from t0 = 0
    cfg["method"] = draw(st.sampled_from(tuple(sampler.METHODS))) if (
        sampler.FAMILIES[family].parts is not None) else "exact"
    cfg["n"] = draw(st.integers(1, 16))
    cfg["paths"] = draw(st.integers(1, 4))
    cfg["t0"] = 0.0 if cfg["method"] == "spectral" else draw(
        st.sampled_from((0.0, 0.5)))
    cfg["dt"] = draw(st.sampled_from((0.01, 0.1, 1.0)))
    return cfg


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sample_runs())
def test_sample_inputs_in_the_documented_domain_keep_the_exit_contract(cfg):
    # a run works, or refuses the input (2), or reports a numerical
    # failure (3), in one line and within its time budget; a run that
    # works warns only in the library's own one-line warnings
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.writelines("%s=%s\n" % kv for kv in cfg.items())
        start = time.perf_counter()
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = cli.main(["sample", "--config", path, "--out", tmp])
        assert time.perf_counter() - start < 2.0
        assert code in (0, 2, 3)
        if code == 0:
            assert len(_values(pathlib.Path(tmp))) == cfg["paths"]
            for w in caught:
                assert issubclass(w.category, (
                    DivergenceWarning, EmbeddingWarning, RegimeWarning)), w
                assert "\n" not in str(w.message), w
            return
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(
        "error: " if code == 2 else "numerical failure: ")


@st.composite
def _cov_runs(draw):
    family = draw(st.sampled_from(tuple(sampler.FAMILIES)))
    cfg = {"family": family, **draw(_PARAMS[family])}
    cfg["n"] = draw(st.integers(1, 16))
    cfg["t0"] = draw(st.sampled_from((0.0, 0.5)))
    cfg["dt"] = draw(st.sampled_from((0.01, 0.1, 1.0)))
    cfg["s"] = draw(_floats(0.0, 10.0))
    return cfg


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cov_runs())
def test_cov_inputs_in_the_documented_domain_keep_the_exit_contract(cfg):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.writelines("%s=%s\n" % kv for kv in cfg.items())
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["cov", "--config", path, "--out", tmp])
        assert time.perf_counter() - start < 2.0
        assert code in (0, 2, 3)
        if code == 0:
            _, rows = _read_csv(os.path.join(tmp, "cov.csv"))
            assert len(rows) == cfg["n"]
            return
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(
        "error: " if code == 2 else "numerical failure: ")
