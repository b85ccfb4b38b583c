"""Command-line front end: kernel curves, path synthesis, estimation,
and the validation harness.

    tplab cov      --figure1 | --process ... --t0 --dt --n   -> CSV curve
    tplab sample   --process ... --paths --seed              -> JSON lines
    tplab estimate PATHS.jsonl --estimator NAME              -> CSV table
    tplab validate --suite NAME [--seed S]                   -> JSON report

Every command is deterministic given its configuration, and each
sampled path is a pure function of (seed, path index); exact paths are
byte-identical for any BLAS thread count.  A subcommand accepts only
the options it reads (see _OPTIONS), as flags or as keys of a
`key=value` config file (`--config`); flags take precedence over file
entries.

Exit codes: 0 success, 1 validation failure, 2 usage or config error,
3 numerical failure.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys
import warnings
from collections import namedtuple

import numpy as np

from . import estimators, sampler, validate
from . import kernels as K
from .errors import (AccuracyError, DivergenceWarning, DomainError,
                     EmbeddingFailure, EmbeddingWarning, InsufficientData,
                     NonConvergence, NotPSD, RegimeWarning)
from .kernels.params import FracOUParams, HurstProfile

# one record per sampled path; the keys are a stable file contract
_PATH_KEYS = ("seed", "t0", "dt", "values", "method", "family")

# a library warning prints as one line, "warning: <message>"
_WARNINGS = (DivergenceWarning, EmbeddingWarning, RegimeWarning)

# type(), not isinstance: a JSON true is no number
_NUMBERS = {int, float}


def _truth(text):
    return text.lower() in ("1", "true", "yes")


# config key -> its flag (None: the config key only), the reader of its
# file text and flag, the subcommands that read it, its default, its
# choices and its --help text.  A subcommand accepts an option, as a flag
# or a config key, only if it reads it; a flag overrides the file.  Set
# keys are echoed into validation reports in this order.
_Option = namedtuple("_Option", "flag reader commands default choices help",
                     defaults=(None, None, None))
_OPTIONS = {
    "family": _Option("--process", str, ("cov", "sample"),
                      choices=sampler.FAMILIES),
    "alpha": _Option("--alpha", float, ("cov", "sample")),
    "beta": _Option("--beta", float, ("cov", "sample")),
    "lam": _Option("--lambda", float, ("cov", "sample", "estimate")),
    "profile": _Option("--profile", str, ("cov", "sample"),
                       help="constant:A | ramp:BASE,GAIN | CSV file"),
    "s": _Option("--s", float, ("cov",), 0.5,
                 help="second time argument for reduced-kernel curves "
                      "(default 0.5)"),
    "t0": _Option("--t0", float, ("cov", "sample"), 0.0),
    "dt": _Option("--dt", float, ("cov", "sample"), 0.05),
    "n": _Option("--n", int, ("cov", "sample"), 256),
    "paths": _Option("--paths", int, ("sample", "validate"), 2000),
    "seed": _Option("--seed", int, ("sample", "validate"),
                    validate.DEFAULT_SEED),
    "suite": _Option("--suite", str, ("validate",), "all",
                     validate.SUITES + ("all",)),
    "out": _Option("--out", str, ("cov", "sample", "estimate", "validate"),
                   help="output directory"),
    "method": _Option("--method", str, ("sample",), "exact",
                      sampler.METHODS),
    "estimator": _Option("--estimator", str, ("estimate",), "all",
                         ("variogram", "hurst", "hurst-windowed",
                          "dimension", "plateau", "all")),
    "components": _Option(None, str, ("cov", "sample")),
    "figure1": _Option("--figure1", _truth, ("cov",), False,
                       help="preset: FOU and reduced curves at s=0.5, "
                            "lambda=0.5, H=0.75 over t in [0, 10]"),
    "plateau_t": _Option(None, float, ("estimate",), 1.0),
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
        opt = _OPTIONS.get(key)
        if opt is None:
            raise DomainError("unknown config key %r" % key)
        if args.command not in opt.commands:
            raise DomainError("config key %r is not read by tplab %s"
                              % (key, args.command))
        echo[key] = _read(key, opt.reader, text)
    for key in _OPTIONS:
        if getattr(args, key, None) is not None:
            echo[key] = getattr(args, key)
    rc = {key: opt.default for key, opt in _OPTIONS.items()
          if args.command in opt.commands}
    rc.update(echo)
    for key, val in echo.items():
        choices = _OPTIONS[key].choices
        if choices is not None and val not in choices:
            raise DomainError("unknown %s %r; use %s"
                              % (key, val, ", ".join(choices)))
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
    for r in rows:
        if len(r) < 2:
            raise DomainError("profile: row %r of %s needs t,alpha"
                              % (",".join(r), spec))
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


_PARSE = {"profile": _parse_profile, "components": _parse_components}


def _build_descriptor(rc):
    if rc.family is None:
        raise DomainError("a process family is required (--process)")
    fam = sampler.FAMILIES[rc.family]
    for key in fam.needs:
        if getattr(rc, key) is None:
            raise DomainError("%s is required for process %r" % (
                _OPTIONS[key].flag or "the config key " + key, rc.family))
    params = fam.params(*(_PARSE.get(key, lambda v: v)(getattr(rc, key))
                          for key in fam.needs))
    return sampler.ProcessDescriptor(rc.family, params)


def _out_path(rc, default_name):
    if rc.out is None:
        return default_name
    os.makedirs(rc.out, exist_ok=True)
    return os.path.join(rc.out, default_name)


def _write_csv(dest, header, rows):
    with open(dest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(dest)
    return 0


# --- cov -----------------------------------------------------------------


def _figure1_rows():
    """FOU and reduced covariance against time at a fixed second
    argument: s=0.5, lambda=0.5, alpha = H + 1/2 with H = 0.75."""
    p = FracOUParams(1.25, 0.5)
    s = 0.5
    t = np.linspace(0.0, 10.0, 201)
    rows = zip(t.tolist(), K.fou_cov(p, t - s).tolist(),
               K.tfbm_cov(p, t, s).tolist())
    return ("t", "fou", "tfbm"), rows


def cmd_cov(rc):
    if rc.figure1:
        header, rows = _figure1_rows()
        dest = _out_path(rc, "figure1.csv")
    else:
        desc = _build_descriptor(rc)
        fam = sampler.FAMILIES[rc.family]
        times = sampler.TimeGrid(rc.t0, rc.dt, rc.n).times()
        if fam.lag is None and not math.isfinite(rc.s):
            raise DomainError("s must be finite, got %g" % rc.s)
        vals = (fam.lag(desc.params, times) if fam.lag is not None
                else fam.cov(desc.params, times, rc.s))
        header = ("t", "value")
        rows = [(float(t), float(v)) for t, v in zip(times, vals)]
        dest = _out_path(rc, "cov.csv")
    return _write_csv(dest, header, rows)


# --- sample --------------------------------------------------------------


def _record(path, family):
    return dict(zip(_PATH_KEYS, (int(path.seed), path.grid.t0, path.grid.dt,
                                 path.values.tolist(), path.method, family)))


def cmd_sample(rc):
    desc = _build_descriptor(rc)
    grid = sampler.TimeGrid(rc.t0, rc.dt, rc.n)
    paths = sampler.METHODS[rc.method](desc, grid, rc.seed, rc.paths)
    dest = _out_path(rc, "paths.jsonl")
    with open(dest, "w") as fh:
        for p in paths:
            fh.write(json.dumps(_record(p, rc.family)) + "\n")
    print(dest)
    return 0


# --- estimate ------------------------------------------------------------


def _flat_values(v):
    """The float array of a nonempty flat list of finite numbers, or None."""
    if type(v) is not list or not v or not set(map(type, v)) <= _NUMBERS:
        return None
    try:
        a = np.asarray(v, dtype=float)
    except OverflowError:   # an integer beyond the float range
        return None
    return a if np.isfinite(a).all() else None


def _json_lines(path_file):
    """(line number, record) of each nonblank line of a UTF-8 file."""
    try:
        with open(path_file, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                if raw.strip():
                    yield lineno, json.loads(raw)
    except OSError as exc:
        raise DomainError("cannot read paths file: %s" % exc)
    except UnicodeDecodeError as exc:
        raise DomainError("%s is not UTF-8 text (%s)" % (path_file, exc))
    except json.JSONDecodeError as exc:
        raise DomainError("%s line %d: invalid JSON (%s)"
                          % (path_file, lineno, exc))


def _load_paths(path_file):
    paths, first = [], None
    for lineno, rec in _json_lines(path_file):
        if not isinstance(rec, dict) or set(rec) != set(_PATH_KEYS):
            raise DomainError(
                "%s line %d: record keys must be exactly %s"
                % (path_file, lineno, ", ".join(_PATH_KEYS)))
        values = _flat_values(rec["values"])
        # abs(), not math.isfinite: that overflows on a huge integer
        for key, ok, need in (
                ("values", values is not None,
                 "a flat list of finite numbers, not empty"),
                ("t0", type(rec["t0"]) in _NUMBERS
                 and abs(rec["t0"]) <= sys.float_info.max,
                 "a finite number"),
                ("dt", type(rec["dt"]) in _NUMBERS
                 and abs(rec["dt"]) <= sys.float_info.max,
                 "a finite number"),
                ("seed", type(rec["seed"]) is int, "an integer"),
                ("family", type(rec["family"]) is str, "a string"),
                ("method", type(rec["method"]) is str, "a string")):
            if not ok:
                raise DomainError("%s line %d: field %s must be %s"
                                  % (path_file, lineno, key, need))
        shape = (rec["t0"], rec["dt"], values.size, rec["family"])
        if first is None:
            first = shape
        elif shape != first:
            raise DomainError(
                "%s line %d: grid/family %s does not match the first "
                "record %s" % (path_file, lineno, shape, first))
        grid = sampler.TimeGrid(rec["t0"], rec["dt"], values.size)
        proc = sampler.ProcessDescriptor(rec["family"], None)
        paths.append(sampler.GaussianPath(
            grid, values, proc, rec["seed"], rec["method"]))
    if not paths:
        raise DomainError("%s holds no path records" % path_file)
    return paths


def _plateau_rows(rc, paths):
    grid = paths[0].grid
    if rc.lam is None:
        raise DomainError("plateau estimation needs --lambda")
    span = grid.t0 + grid.dt * (grid.n - 1)
    t = rc.plateau_t
    # a sorted set: np.unique's first call would import numpy.ma
    taus = np.array(sorted({round((span - t) * fr / grid.dt) * grid.dt
                            for fr in (0.5, 0.75, 1.0)}))
    corr = estimators.lrd_plateau_empirical(paths, t, taus, lam=rc.lam)
    se = 1.0 / math.sqrt(len(paths))
    return [(float(tau), float(c), se) for tau, c in zip(taus, corr)]


def cmd_estimate(rc):
    paths = _load_paths(rc.paths_file)
    name = rc.estimator
    rows = []
    if name == "variogram":
        est = estimators.variogram(paths)
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
    else:
        # hurst, dimension or all: the rows come from one variogram fit;
        # fractal_dimension is 2 - H_hat, and the slope is 2 H_hat (exact,
        # as H_hat = slope/2)
        header = ("estimator", "estimate", "se")
        h, se = estimators.hurst_local(paths, lam=rc.lam)
        if name in ("hurst", "all"):
            rows.append(("hurst", h, se))
        if name in ("dimension", "all"):
            rows.append(("dimension", 2.0 - h, se))
        if name == "all":
            rows.append(("variogram_slope", 2.0 * h, 2.0 * se))
    dest = _out_path(rc, "estimate.csv")
    return _write_csv(dest, header, rows)


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


_COMMANDS = {
    "cov": (cmd_cov, "write a covariance curve as CSV"),
    "sample": (cmd_sample, "write sampled paths as JSON lines"),
    "estimate": (cmd_estimate, "run estimators on a paths file"),
    "validate": (cmd_validate, "run a validation suite"),
}


@functools.cache
def _parser():
    """The argparse tree, built from _OPTIONS once per process on first
    use: a rebuild per command costs 1-3 ms, and a build at import would
    tax every start-up.  Choices hold the live sampler tables, and a
    parse leaves no state in the parsers."""
    ap = argparse.ArgumentParser(
        prog="tplab",
        description="Tempered fractional Gaussian process laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if command == "estimate":
            p.add_argument("paths_file")
        p.add_argument("--config", help="key=value config file")
        for key, opt in _OPTIONS.items():
            if opt.flag is None or command not in opt.commands:
                continue
            if opt.reader is _truth:
                kind = {"action": "store_true", "default": None}
            else:
                kind = {"type": opt.reader, "choices": opt.choices}
            p.add_argument(opt.flag, dest=key, help=opt.help, **kind)
    ap.commands = sub.choices
    return ap


def main(argv=None):
    ap = _parser()
    args, extra = ap.parse_known_args(argv)
    if extra:   # the subcommand's usage line shows the flags it takes
        ap.commands[args.command].error(
            "unrecognized arguments: " + " ".join(extra))
    shown = warnings.formatwarning
    warnings.formatwarning = lambda message, category, *where: (
        "warning: %s\n" % message if issubclass(category, _WARNINGS)
        else shown(message, category, *where))
    try:
        with np.errstate(all="ignore"):  # non-finite: refused, not warned
            return _COMMANDS[args.command][0](_build_config(args))
    except (DomainError, InsufficientData, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (NotPSD, NonConvergence, AccuracyError, EmbeddingFailure) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
