"""tplab benchmark: whole CLI workloads, timed end to end, with a traced
run for per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a tplab source tree; it imports tplab from
./src.  One client runs one command at a time (a closed loop).  Each
pass of the workload runs in a fresh interpreter, and passes repeat
until S seconds have gone by.  Every figure is the median over the run's
passes.  Passes of an untraced run also time a fixed reference loop as
they go (worker.SpeedProbe), and wall_ref is their wall time in units of
it.  With --trace 1, untraced and traced passes alternate; only the
traced ones are instrumented, and the per-layer figures are their medians.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The lines before it give
every metric with its sample count and quartiles, the pinned environment,
the sha256 digest of each output, and, when traced, the oracle cells that
escalated to mpmath.  README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probes  # noqa: E402
import workloads  # noqa: E402
from worker import monotonic  # noqa: E402

# Fixed on every commit and machine so that runs compare.  OpenBLAS left
# to pick its own thread count made the single Cholesky of
# sample-exact-tfbm take 1.0-1.2 s in half of the runs and 0.03 s in the
# others.
PINNED_ENV = {
    "TPLAB_THREADS": "2",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# setup-only interpreters started before the passes, for more setup_s
# samples than a run has passes
SETUP_SPAWNS = 6

# Where passes write, relative to the tree's root.  Every pass writes to the
# same relative path so that outputs which echo it, such as a validation
# report's config, stay byte-identical between passes, runs and commits.
WORKDIR = ".perfbench-work"
OUTDIR = os.path.join(WORKDIR, "out")

# A pass still running this long after the run began is stopped and its
# commands count as failed, so that the run ends within 180 s.
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"),
              ("success_rate", "1"))


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    values = sorted(values)
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


class Run:
    def __init__(self, root, workload, seed, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.workdir = os.path.join(root, WORKDIR)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        **PINNED_ENV)
        self.setup = []
        self.passes = []        # worker results, untraced and traced
        self.attempted = 0
        self.failed = []        # (pass index, command name, reason)
        self.digests = {}       # command name -> sha256 of its output
        self.paths_bytes = []
        self.environment = {}   # library versions, from a setup-only pass
        self.began = monotonic()

    def _spawn(self, outdir, traced=False, setup_only=False):
        """Run one worker; returns (result or None, stderr text)."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--outdir", outdir]
        if traced:
            cmd.append("--trace")
        elif not self.trace:
            # traced runs compare raw wall times, so they run no probe
            cmd.append("--speed-probe")
        if setup_only:
            cmd.append("--setup-only")
        started = monotonic()
        timeout = max(1.0, DEADLINE_S - (started - self.began))
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "pass stopped after %.0f s" % timeout
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, err or "worker exited %d" % proc.returncode
        try:
            result = json.loads(lines[-1])
        except ValueError:
            return None, "worker printed no result: %s" % lines[-1][:200]
        self.setup.append(result["ready"] - started)
        return result, err

    def setup_only(self):
        result, err = self._spawn(OUTDIR, setup_only=True)
        if result is None:
            raise SystemExit("perfbench: setup failed:\n%s" % err)
        self.environment = result["environment"]

    def one_pass(self, traced):
        index = len(self.passes)
        outdir = os.path.join(self.root, OUTDIR)
        os.makedirs(outdir)
        cmds = workloads.commands(self.workload, self.seed, OUTDIR)
        result, err = self._spawn(OUTDIR, traced=traced)
        self.attempted += len(cmds)
        if result is None:
            self.failed += [(index, c.name, err.strip()[-500:]) for c in cmds]
            self.passes.append(None)
            return
        result["traced"] = traced
        for cmd, rec in zip(cmds, result["commands"]):
            if rec["exit"] != 0:
                self.failed.append((index, cmd.name, "exit %s: %s" % (
                    rec["exit"], rec["output"].strip()[-500:])))
                continue
            ok, reason, digest = cmd.check(self.root)
            first = self.digests.setdefault(cmd.name, digest)
            if ok and digest != first:
                ok, reason = False, "output differs from pass 0 on the same inputs"
            if not ok:
                self.failed.append((index, cmd.name, reason))
        paths = os.path.join(outdir, "paths.jsonl")
        if os.path.exists(paths):
            self.paths_bytes.append(os.path.getsize(paths))
        shutil.rmtree(outdir)
        self.passes.append(result)

    def run(self, seconds):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            for _ in range(SETUP_SPAWNS):
                self.setup_only()
            # Passes alternate, an untraced one first, so that a traced run
            # has both kinds.  Past a minimum number of passes, no pass
            # starts that would likely end after the time is up.  The
            # minimum gives validate-kernels, whose passes take 7-13 s, a
            # median of at least three.
            least = 2 if self.trace else 3
            start = monotonic()
            durations = []
            while True:
                began = monotonic()
                self.one_pass(self.trace and len(self.passes) % 2 == 1)
                durations.append(monotonic() - began)
                elapsed = monotonic() - start
                if (len(self.passes) >= least and
                        elapsed + statistics.median(durations) > seconds):
                    break
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def passes_of(self, traced):
        return [p for p in self.passes
                if p is not None and p["traced"] == traced]

    def end_to_end(self):
        plain = self.passes_of(False)
        stats = {"setup_s": summary(self.setup),
                 "wall_ref": summary([p["wall_s"] / p["reference_s"]
                                      for p in plain]),
                 "wall_s": summary([p["wall_s"] for p in plain]),
                 "reference_ms": summary([1e3 * p["reference_s"]
                                          for p in plain]),
                 "peak_rss_mb": summary([p["peak_rss_mb"] for p in plain])}
        for name in ("sample", "estimate"):
            times = [c["seconds"] for p in plain for c in p["commands"]
                     if c["name"] == name]
            if times:
                stats[name + "_s"] = summary(times)
        return stats

    def per_layer(self):
        traced = self.passes_of(True)
        stats = {}
        for name, _unit, _better in probes.PER_LAYER:
            if name in probes.RUNNER_METRICS:
                continue
            stats[name] = summary([p["layers"][name] for p in traced])
        stats["cli.paths_bytes"] = summary(self.paths_bytes or [0])
        wall = summary([p["wall_s"] for p in traced])
        untraced = summary([p["wall_s"] for p in self.passes_of(False)])
        stats["trace.wall_s"] = wall
        stats["trace.untraced_wall_s"] = untraced
        stats["trace.overhead_s"] = {
            "median": wall["median"] - untraced["median"],
            "n": min(wall["n"], untraced["n"])}
        return stats


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tplab", "cli.py")):
        print("perfbench: no tplab source tree at %s/src; run from the root "
              "of a tplab checkout" % root, file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed, bool(args.trace))
    run.run(args.seconds)
    env = dict(run.environment, nproc=os.cpu_count(), pinned=PINNED_ENV)

    stats = run.per_layer() if args.trace else run.end_to_end()
    attempted, failed = run.attempted, len(run.failed)
    stats["success_rate"] = {"median": 1.0 - failed / attempted,
                             "n": attempted}
    if args.trace:
        units = {n: u for n, u, _b in probes.PER_LAYER}
    else:
        units = dict(END_TO_END, wall_s="s", reference_ms="ms", sample_s="s",
                     estimate_s="s")

    print("perfbench %s seed=%d trace=%d passes=%d"
          % (args.workload, args.seed, args.trace, len(run.passes)))
    for name, st in stats.items():
        if name in units:
            spread = ("  q1 %.6g q3 %.6g" % (st["q1"], st["q3"])
                      if "q1" in st else "")
            print("  %-44s %14.6g %-5s n=%d%s"
                  % (name, st["median"], units[name], st["n"], spread))
    if args.trace:
        gap = (stats["trace.self_sum_s"]["median"]
               - stats["trace.untraced_wall_s"]["median"])
        print("  self times sum to untraced wall_s %+.4g s; tracing "
              "overhead %+.4g s" % (gap, stats["trace.overhead_s"]["median"]))
    print("  error_rate %.6g (%d failed of %d commands)"
          % (failed / attempted, failed, attempted))
    for index, name, reason in run.failed:
        print("  FAILED pass %d %s: %s" % (index, name, reason))
    detail = {"workload": args.workload, "seed": args.seed,
              "environment": env, "digests": run.digests,
              "error_rate": failed / attempted,
              "setup_s": run.setup,
              "passes": [p and {"traced": p["traced"], "wall_s": p["wall_s"],
                                "reference_s": p.get("reference_s"),
                                "commands": {c["name"]: c["seconds"]
                                             for c in p["commands"]}}
                         for p in run.passes],
              "stats": stats}
    if args.trace:
        traced = run.passes_of(True)
        detail["escalations"] = traced[0]["escalations"] if traced else []
    print(json.dumps({"perfbench_detail": detail}))

    wanted = (probes.PER_LAYER if args.trace
              else [(n, u, None) for n, u in END_TO_END])
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit, _b in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
