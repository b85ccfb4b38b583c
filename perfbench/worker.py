"""One pass of a workload in a fresh interpreter.

    python worker.py --workload NAME --seed S --outdir DIR
                     [--trace | --speed-probe] [--setup-only]

Imports tplab.cli, builds the pass's commands, and notes the monotonic
time at which it is ready; the runner started its clock just before
starting this interpreter.  It then calls tplab.cli.main once per
command, one at a time, and prints one JSON line with the ready time,
each command's seconds and exit code, the pass's wall time and peak
resident memory.  With --trace it adds the per-layer metrics of the
pass, and with --speed-probe the mean time of the reference loop.
"""

import argparse
import collections
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def monotonic():
    """System-wide clock, comparable between the runner and this pass."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment():
    """Versions of the interpreter and libraries a pass runs on."""
    import numpy

    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    versions["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    return versions


# iterations of the reference loop: about 2-3 ms on a 2020s server core
REFERENCE_ITERATIONS = 30000
PROBE_INTERVAL_S = 0.25


def reference_loop():
    """A fixed amount of pure-Python work that does not involve tplab."""
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        acc += (i % 7) * 0.5
    return acc


class SpeedProbe:
    """Times the reference loop when entered, every PROBE_INTERVAL_S of
    wall time while active (from a SIGALRM handler, so in the same thread
    and on the same CPU as the pass), and on exit.

    The CPUs of a shared host change speed by tens of percent over
    seconds to minutes.  A pass's wall time divided by the mean loop
    time is its length in units of the loop, which such drift moves far
    less than it moves the wall time.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def sample(self, *_signal_args):
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def mean(self):
        return sum(self.samples) / len(self.samples)


def run_command(cli, argv, tracer):
    """Exit code (None if it raised), seconds, captured output and the
    warnings it raised by category (traced passes only)."""
    sink = io.StringIO()
    caught = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(sink))
        stack.enter_context(contextlib.redirect_stderr(sink))
        if tracer is not None:
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
            stack.enter_context(tracer.span("cli." + argv[0]))
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    categories = collections.Counter(w.category.__name__ for w in caught)
    return code, seconds, sink.getvalue(), categories


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--speed-probe", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import tplab.cli as cli

    cmds = workloads.commands(args.workload, args.seed, args.outdir)
    ready = monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "environment": environment()}))
        return 0

    tracer = probe = None
    with contextlib.ExitStack() as stack:
        if args.trace:
            import probes
            from tracer import Tracer

            tracer = stack.enter_context(probes.installed(Tracer()))
        elif args.speed_probe:
            probe = stack.enter_context(SpeedProbe())
        results = []
        warned = collections.Counter()
        first = time.perf_counter()
        for cmd in cmds:
            code, seconds, output, categories = run_command(
                cli, cmd.argv, tracer)
            warned.update(categories)
            results.append({"name": cmd.name, "exit": code,
                            "seconds": seconds, "output": output[-2000:]})
        wall = time.perf_counter() - first
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"ready": ready, "commands": results, "wall_s": wall,
           "peak_rss_mb": peak_kib / 1024.0}
    if probe is not None:
        out["reference_s"] = probe.mean()
        out["reference_samples"] = len(probe.samples)
    if tracer is not None:
        out["layers"] = probes.pass_metrics(tracer.spans, warned)
        out["escalations"] = probes.escalations(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
