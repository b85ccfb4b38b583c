"""The benchmark's workloads: the tplab commands each one runs, in order,
and the correctness gate each command's output must pass.

Why each workload is in the set is written down in README.md.  Gates use
the standard library only and restate the file contracts they check,
so that a change to tplab cannot loosen its own gate.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# key set of one record in a paths file (tplab.cli._PATH_KEYS)
PATH_KEYS = frozenset(("seed", "t0", "dt", "values", "method", "family"))

# |H_hat - (alpha - 1/2)| allowed by the estimator-recovery criterion
H_BAND = 0.08

VALIDATE_SUITES = ("specfun", "oracle", "identities", "scaling",
                   "asymptotics", "tmbm-equivalence")

# Grid points and path counts.  They are a quarter of the work of the
# sizes first proposed (tfbm n = 1024 with 1000 paths, tmbm n = 512 with
# 500 paths), so that a run holds enough passes for a steady median on a
# shared two-CPU machine; each term of the cost keeps its share.
TFBM_N, TFBM_PATHS = 512, 500
TMBM_N, TMBM_PATHS = 256, 500

WORKLOADS = ("sample-exact-tfbm", "sample-spectral-tfbm", "sample-exact-tmbm",
             "validate-kernels")


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    output: str
    gate: Callable

    def check(self, root="."):
        """(ok, reason, sha256 of the output) for the command's output;
        output paths are relative to root."""
        try:
            return self.gate(os.path.join(root, self.output))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return False, "%s: %s" % (type(exc).__name__, exc), None


def derive_seed(seed, workload, index):
    """32-bit --seed for the index-th command of a workload."""
    text = "%d/%s/%d" % (seed, workload, index)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def commands(workload, seed, outdir):
    """The commands of one pass of workload, writing under outdir."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r; expected one of %s"
                         % (workload, ", ".join(WORKLOADS)))
    paths = os.path.join(outdir, "paths.jsonl")
    estimate = os.path.join(outdir, "estimate.csv")
    out = ("--out", outdir)
    if workload == "validate-kernels":
        return [Command("validate:" + suite,
                        ("validate", "--suite", suite, "--seed",
                         str(derive_seed(seed, workload, i))) + out,
                        os.path.join(outdir, "report-%s.json" % suite),
                        check_report)
                for i, suite in enumerate(VALIDATE_SUITES)]
    sample_seed = ("--seed", str(derive_seed(seed, workload, 0)))
    if workload == "sample-exact-tmbm":
        n, n_paths = TMBM_N, TMBM_PATHS
        sample = ("sample", "--process", "tmbm", "--profile", "ramp:0.8,0.1",
                  "--lambda", "1.0", "--t0", "0", "--dt", "0.005",
                  "--n", str(n), "--paths", str(n_paths))
        est = ("estimate", paths, "--estimator", "hurst-windowed",
               "--lambda", "1.0")
        est_gate = check_windowed_hurst
    else:
        n, n_paths = TFBM_N, TFBM_PATHS
        sample = ("sample", "--process", "tfbm", "--alpha", "0.75",
                  "--lambda", "0.05", "--t0", "0", "--dt", "0.01",
                  "--n", str(n), "--paths", str(n_paths))
        if workload == "sample-spectral-tfbm":
            sample += ("--method", "spectral")
        est = ("estimate", paths, "--estimator", "all", "--lambda", "0.05")
        est_gate = check_hurst
    return [
        Command("sample", sample + sample_seed + out, paths,
                lambda p: check_paths(p, n_paths, n)),
        Command("estimate", est + out, estimate, est_gate),
    ]


# --- gates: each returns (ok, reason, sha256 hex digest) ------------------


def check_paths(path, count, n):
    """count records, each with exactly PATH_KEYS and n values."""
    digest = hashlib.sha256()
    records = 0
    problem = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            digest.update(raw)
            if problem is not None or not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except ValueError:
                problem = "line %d is not JSON" % lineno
                continue
            if not isinstance(rec, dict) or set(rec) != PATH_KEYS:
                problem = "line %d: keys are not %s" % (
                    lineno, ", ".join(sorted(PATH_KEYS)))
            elif not isinstance(rec["values"], list) or len(
                    rec["values"]) != n:
                problem = "line %d: values is not a list of %d" % (lineno, n)
            records += 1
    if problem is None and records != count:
        problem = "%d records, expected %d" % (records, count)
    return problem is None, problem or "ok", digest.hexdigest()


def _csv_rows(path):
    with open(path, "rb") as fh:
        data = fh.read()
    rows = list(csv.reader(data.decode().splitlines()))
    return rows[0], rows[1:], hashlib.sha256(data).hexdigest()


def _within_band(h_hat, target):
    return math.isfinite(h_hat) and abs(h_hat - target) <= H_BAND


def check_hurst(path, target=0.75 - 0.5):
    """The hurst row of `estimate --estimator all` lies within H_BAND of
    alpha - 1/2."""
    header, rows, digest = _csv_rows(path)
    found = [float(r[1]) for r in rows if r and r[0] == "hurst"]
    if header[:2] != ["estimator", "estimate"] or len(found) != 1:
        return False, "no single hurst row", digest
    ok = _within_band(found[0], target)
    return ok, "H_hat %.4f, target %.4f" % (found[0], target), digest


def ramp_alpha(t, base=0.8, gain=0.1):
    """alpha(t) of the profile ramp:BASE,GAIN."""
    m = max(t, 0.0)
    return base + gain * m / (1.0 + m)


def check_windowed_hurst(path):
    """Every window's H_hat(t) lies within H_BAND of alpha(t) - 1/2."""
    header, rows, digest = _csv_rows(path)
    if header[:2] != ["t", "h_hat"] or not rows:
        return False, "no windows", digest
    worst = 0.0
    for r in rows:
        t, h_hat = float(r[0]), float(r[1])
        target = ramp_alpha(t) - 0.5
        if not _within_band(h_hat, target):
            return False, "H_hat %.4f at t=%g, target %.4f" % (
                h_hat, t, target), digest
        worst = max(worst, abs(h_hat - target))
    return True, "worst window off by %.4f" % worst, digest


def check_report(path):
    """The report and every check in it passed.  The digest covers the
    report without its wall-clock field."""
    with open(path, "rb") as fh:
        report = json.loads(fh.read())
    report.pop("wall_clock_seconds", None)
    digest = hashlib.sha256(
        (json.dumps(report, indent=2) + "\n").encode()).hexdigest()
    checks = report["checks"]
    failed = [c["check_id"] for c in checks if c["passed"] is not True]
    ok = report["passed"] is True and bool(checks) and not failed
    reason = "%d checks, failed: %s" % (len(checks), ", ".join(failed) or "none")
    return ok, reason, digest
