"""Command-line front end: kernel curves, path synthesis, estimation,
and the validation harness.

    tplab cov      --figure1 | --process ... --t0 --dt --n   -> CSV curve
    tplab sample   --process ... --paths --seed              -> JSON lines
    tplab estimate PATHS.jsonl --estimator NAME              -> CSV table
    tplab validate --suite NAME [--seed S]                   -> JSON report

Every command is deterministic given its configuration; the worker
count (TPLAB_THREADS) never changes results.  Options may come from a
`key=value` config file (`--config`), with command-line flags taking
precedence over file entries.

Exit codes: 0 success, 1 validation failure, 2 usage or config error,
3 numerical failure.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import estimators, sampler, validate
from . import kernels as K
from .errors import (
    AccuracyError,
    DomainError,
    EmbeddingFailure,
    InsufficientData,
    NonConvergence,
    NotPSD,
    PoleError,
    SlowDecay,
)
from .kernels.params import FracOUParams, HurstProfile

# one record per sampled path; the keys are a stable file contract
_PATH_KEYS = ("seed", "t0", "dt", "values", "method", "family")

_ESTIMATORS = ("variogram", "hurst", "hurst-windowed", "dimension",
               "plateau", "all")


# config key -> reader of its config-file text.  A flag whose dest is the
# key overrides the file; flags are echoed in this order.
_OPTIONS = {
    "family": str, "alpha": float, "beta": float, "lam": float,
    "profile": str, "s": float, "t0": float, "dt": float, "n": int,
    "paths": int, "seed": int, "suite": str, "out": str, "method": str,
    "estimator": str, "components": str,
    "figure1": lambda text: text.lower() in ("1", "true", "yes"),
    "plateau_t": float, "tol": float,
}

_DEFAULTS = {
    "s": 0.5, "t0": 0.0, "dt": 0.05, "n": 256, "paths": 2000,
    "seed": validate.DEFAULT_SEED, "suite": "all", "method": "exact",
    "estimator": "all", "figure1": False, "plateau_t": 1.0,
}


def _read(key, reader, text):
    try:
        return reader(text)
    except ValueError:
        raise DomainError("%s: cannot read %r as %s"
                          % (key, text, reader.__name__)) from None


def _read_config_file(path):
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DomainError(
                        "%s line %d: expected key=value, got %r"
                        % (path, lineno, line))
                key, val = line.split("=", 1)
                cfg[key.strip()] = val.strip()
    except OSError as exc:
        raise DomainError("cannot read config file: %s" % exc)
    return cfg


def _build_config(args):
    """Run description from the config file plus flags (flags win), with
    every key that was set echoed, in order, into validation reports."""
    echo = {}
    for key, text in (_read_config_file(args.config).items()
                      if args.config else ()):
        if key not in _OPTIONS:
            raise DomainError("unknown config key %r" % key)
        echo[key] = _read(key, _OPTIONS[key], text)
    for key in _OPTIONS:
        if getattr(args, key, None) is not None:
            echo[key] = getattr(args, key)
    rc = dict.fromkeys(_OPTIONS)
    rc.update(_DEFAULTS)
    rc.update(echo)
    return argparse.Namespace(command=args.command, echo=echo,
                              paths_file=getattr(args, "paths_file", None),
                              **rc)


# --- process construction ------------------------------------------------


def _parse_profile(spec):
    """constant:A | ramp:BASE,GAIN | CSV file with t,alpha rows."""
    if spec.startswith("constant:"):
        return HurstProfile.constant(
            _read("profile", float, spec[len("constant:"):]))
    if spec.startswith("ramp:"):
        parts = spec[len("ramp:"):].split(",")
        if len(parts) != 2:
            raise DomainError("ramp profile needs base,gain, got %r" % spec)
        return HurstProfile.saturating_ramp(
            *(_read("profile", float, x) for x in parts))
    try:
        with open(spec) as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise DomainError("cannot read profile file: %s" % exc)
    if rows and not _is_number(rows[0][0]):
        rows = rows[1:]
    ts = [_read("profile", float, r[0]) for r in rows]
    alphas = [_read("profile", float, r[1]) for r in rows]
    return HurstProfile.tabulated(ts, alphas)


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def _parse_components(spec):
    comps = []
    for item in spec.split(","):
        parts = item.split(":")
        if len(parts) != 3:
            raise DomainError(
                "component %r must be weight:alpha:lambda" % item)
        b, alpha, lam = (_read("components", float, x) for x in parts)
        comps.append((b, FracOUParams(alpha, lam)))
    return tuple(comps)


# how a user sets a config key that a family needs, where not --KEY
_SET_BY = {"lam": "--lambda",
           "components": "the config key components=w:alpha:lam,..."}
_PARSE = {"profile": _parse_profile, "components": _parse_components}


def _build_descriptor(rc):
    if rc.family is None:
        raise DomainError("a process family is required (--process)")
    fam = sampler.FAMILIES.get(rc.family)
    if fam is None:
        raise DomainError("unknown process family %r" % rc.family)
    for key in fam.needs:
        if getattr(rc, key) is None:
            raise DomainError("%s is required for process %r" % (
                _SET_BY.get(key, "--" + key), rc.family))
    params = fam.params(*(_PARSE.get(key, lambda v: v)(getattr(rc, key))
                          for key in fam.needs))
    return sampler.ProcessDescriptor(rc.family, params)


def _out_path(rc, default_name):
    if rc.out is None:
        return default_name
    os.makedirs(rc.out, exist_ok=True)
    return os.path.join(rc.out, default_name)


# --- cov -----------------------------------------------------------------


def _figure1_rows(rc):
    """FOU and reduced covariance against time at a fixed second
    argument: s=0.5, lambda=0.5, alpha = H + 1/2 with H = 0.75."""
    p = FracOUParams(1.25, 0.5)
    s = 0.5
    rows = []
    for t in np.linspace(0.0, 10.0, 201):
        rows.append((float(t), K.fou_cov(p, t - s), K.tfbm_cov(p, t, s)))
    return ("t", "fou", "tfbm"), rows


def cmd_cov(rc):
    if rc.figure1:
        header, rows = _figure1_rows(rc)
        dest = _out_path(rc, "figure1.csv")
    else:
        desc = _build_descriptor(rc)
        fam = sampler.FAMILIES[rc.family]
        times = sampler.TimeGrid(rc.t0, rc.dt, rc.n).times()
        if fam.lag is not None:
            vals = fam.lag(desc.params, times, rc.tol)
        else:
            vals = [fam.cov(desc.params, t, rc.s) for t in times]
        header = ("t", "value")
        rows = [(float(t), float(v)) for t, v in zip(times, vals)]
        dest = _out_path(rc, "cov.csv")
    with open(dest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(dest)
    return 0


# --- sample --------------------------------------------------------------


def _record(path, family):
    return {
        "seed": int(path.seed),
        "t0": path.grid.t0,
        "dt": path.grid.dt,
        "values": path.values.tolist(),
        "method": path.method,
        "family": family,
    }


def cmd_sample(rc):
    desc = _build_descriptor(rc)
    grid = sampler.TimeGrid(rc.t0, rc.dt, rc.n)
    if rc.method == "spectral":
        if rc.family != "tfbm":
            raise DomainError(
                "spectral synthesis is defined for the reduced stationary-"
                "increment family only (tfbm)")
        paths = sampler.sample_tfbm_spectral_batch(desc.params, grid,
                                                   rc.seed, rc.paths)
    elif rc.method == "exact":
        paths = sampler.sample_exact(desc, grid, rc.seed, rc.paths)
    else:
        raise DomainError("unknown method %r; use exact or spectral"
                          % rc.method)
    dest = _out_path(rc, "paths.jsonl")
    with open(dest, "w") as fh:
        for p in paths:
            fh.write(json.dumps(_record(p, rc.family)) + "\n")
    print(dest)
    return 0


# --- estimate ------------------------------------------------------------


def _load_paths(path_file):
    paths = []
    first = None
    try:
        fh = open(path_file)
    except OSError as exc:
        raise DomainError("cannot read paths file: %s" % exc)
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DomainError(
                    "%s line %d: invalid JSON (%s)"
                    % (path_file, lineno, exc))
            if not isinstance(rec, dict) or set(rec) != set(_PATH_KEYS):
                raise DomainError(
                    "%s line %d: record keys must be exactly %s"
                    % (path_file, lineno, ", ".join(_PATH_KEYS)))
            shape = (rec["t0"], rec["dt"], len(rec["values"]),
                     rec["family"])
            if first is None:
                first = shape
            elif shape != first:
                raise DomainError(
                    "%s line %d: grid/family %s does not match the first "
                    "record %s" % (path_file, lineno, shape, first))
            grid = sampler.TimeGrid(rec["t0"], rec["dt"],
                                    len(rec["values"]))
            proc = sampler.ProcessDescriptor(rec["family"], None)
            paths.append(sampler.GaussianPath(
                grid, np.asarray(rec["values"], dtype=float), proc,
                int(rec["seed"]), rec["method"]))
    if not paths:
        raise DomainError("%s holds no path records" % path_file)
    return paths


def _plateau_rows(rc, paths):
    grid = paths[0].grid
    if rc.lam is None:
        raise DomainError("plateau estimation needs --lambda")
    span = grid.t0 + grid.dt * (grid.n - 1)
    t = rc.plateau_t
    taus = np.unique(np.array(
        [round((span - t) * fr / grid.dt) * grid.dt
         for fr in (0.5, 0.75, 1.0)]))
    corr = estimators.lrd_plateau_empirical(paths, t, taus, lam=rc.lam)
    se = 1.0 / math.sqrt(len(paths))
    return [(float(tau), float(c), se) for tau, c in zip(taus, corr)]


def cmd_estimate(rc):
    paths = _load_paths(rc.paths_file)
    grid = paths[0].grid
    name = rc.estimator
    rows = []
    if name == "variogram":
        lags = grid.dt * np.arange(1, 9)
        est = estimators.variogram(paths, lags)
        header = ("lag", "gamma_hat", "fitted")
        anchor = math.log(est.gamma_hat[0]) - est.slope * math.log(
            est.lags[0])
        for lag, g in zip(est.lags, est.gamma_hat):
            rows.append((float(lag), float(g),
                         math.exp(anchor + est.slope * math.log(lag))))
        print("slope %.6g stderr %.3g" % (est.slope, est.slope_stderr))
    elif name == "hurst-windowed":
        centers, hs, ses = estimators.hurst_local_windowed(paths, lam=rc.lam)
        header = ("t", "h_hat", "se")
        rows = list(zip(map(float, centers), map(float, hs),
                        map(float, ses)))
    elif name == "plateau":
        header = ("tau", "correlation", "se")
        rows = _plateau_rows(rc, paths)
    elif name in ("hurst", "dimension", "all"):
        header = ("estimator", "estimate", "se")
        if name in ("hurst", "all"):
            h, se = estimators.hurst_local(paths, lam=rc.lam)
            rows.append(("hurst", float(h), float(se)))
        if name in ("dimension", "all"):
            d, se = estimators.fractal_dimension(paths, lam=rc.lam)
            rows.append(("dimension", float(d), float(se)))
        if name == "all":
            lags = grid.dt * np.arange(1, 9)
            est = estimators.variogram(paths, lags)
            rows.append(("variogram_slope", float(est.slope),
                         float(est.slope_stderr)))
    else:
        raise DomainError("unknown estimator %r; choose from %s"
                          % (name, ", ".join(_ESTIMATORS)))
    dest = _out_path(rc, "estimate.csv")
    with open(dest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(dest)
    return 0


# --- validate ------------------------------------------------------------


def cmd_validate(rc):
    report = validate.run_suite(rc.suite, seed=rc.seed, n_paths=rc.paths,
                                config_echo=dict(rc.echo))
    text = report.to_json()
    if rc.out is not None:
        dest = _out_path(rc, "report-%s.json" % rc.suite)
        with open(dest, "w") as fh:
            fh.write(text)
        print(dest)
    else:
        sys.stdout.write(text)
    n_bad = sum(1 for c in report.checks if not c.passed)
    print("suite %s: %d checks, %d failed -> %s"
          % (rc.suite, len(report.checks), n_bad,
             "PASS" if report.passed else "FAIL"), file=sys.stderr)
    return 0 if report.passed else 1


# --- entry point ---------------------------------------------------------


def _parser():
    ap = argparse.ArgumentParser(
        prog="tplab",
        description="Tempered fractional Gaussian process laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--process", dest="family",
                       choices=tuple(sampler.FAMILIES))
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--profile",
                       help="constant:A | ramp:BASE,GAIN | CSV file")
        p.add_argument("--s", type=float,
                       help="second time argument for reduced-kernel "
                            "curves (default 0.5)")
        p.add_argument("--t0", type=float)
        p.add_argument("--dt", type=float)
        p.add_argument("--n", type=int)
        p.add_argument("--paths", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--suite", choices=validate.SUITES + ("all",))
        p.add_argument("--out", help="output directory")

    pc = sub.add_parser("cov", help="write a covariance curve as CSV")
    common(pc)
    pc.add_argument("--figure1", action="store_true", default=None,
                    help="preset: FOU and reduced curves at s=0.5, "
                         "lambda=0.5, H=0.75 over t in [0, 10]")

    ps = sub.add_parser("sample", help="write sampled paths as JSON lines")
    common(ps)
    ps.add_argument("--method", choices=("exact", "spectral"))

    pe = sub.add_parser("estimate", help="run estimators on a paths file")
    pe.add_argument("paths_file")
    common(pe)
    pe.add_argument("--estimator", choices=_ESTIMATORS)

    pv = sub.add_parser("validate", help="run a validation suite")
    common(pv)
    return ap


_COMMANDS = {
    "cov": cmd_cov,
    "sample": cmd_sample,
    "estimate": cmd_estimate,
    "validate": cmd_validate,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        rc = _build_config(args)
        return _COMMANDS[args.command](rc)
    except (DomainError, PoleError, InsufficientData) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (NotPSD, NonConvergence, AccuracyError, SlowDecay,
            EmbeddingFailure) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
