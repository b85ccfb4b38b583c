"""Self-tests of the benchmark's own code: span self time, the metric
summaries, the correctness gates and the probe installation.

    python3 -m pytest perfbench/tests
"""

import json
import os
import signal
import threading
import time

import pytest

import probes
import run
import workloads
from tracer import Span, Tracer
from worker import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _span(name, start, end, parent=None):
    s = Span(name, start, parent, end)
    if parent is not None:
        parent.children.append(s)
    return s


# --- self time -------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("outer") as outer:
        clock.now = 1.0
        with tr.span("mid") as mid:
            clock.now = 2.0
            with tr.span("inner") as inner:
                clock.now = 4.0
            clock.now = 5.0
        clock.now = 10.0
    assert inner.parent is mid and mid.parent is outer
    assert outer.self_time() == pytest.approx(6.0)
    assert mid.self_time() == pytest.approx(2.0)
    assert inner.self_time() == pytest.approx(2.0)
    assert sum(s.self_time() for s in tr.spans) == pytest.approx(
        outer.duration)


def test_self_time_counts_overlapping_threaded_children_once():
    parent = _span("p", 0.0, 10.0)
    _span("a", 1.0, 4.0, parent)
    _span("b", 2.0, 6.0, parent)     # overlaps a: union is [1, 6]
    _span("c", 8.0, 12.0, parent)    # runs past the parent: counts [8, 10]
    assert parent.self_time() == pytest.approx(10.0 - 5.0 - 2.0)


def test_spans_in_worker_threads_attach_to_the_waiting_caller():
    tr = Tracer()
    barrier = threading.Barrier(2)

    def child():
        with tr.span("child"):
            barrier.wait(timeout=10)

    with tr.span("caller") as caller:
        workers = [threading.Thread(target=child) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)
    children = [s for s in tr.spans if s.name == "child"]
    assert len(children) == 2
    assert all(c.parent is caller for c in children)
    assert {id(c) for c in caller.children} == {id(c) for c in children}
    assert 0.0 <= caller.self_time() <= caller.duration


def test_wrap_records_failed_calls_and_annotations():
    tr = Tracer()
    seen = []

    def annotate(span, fn, args, kwargs, result, exc):
        seen.append((fn.__name__, args, result, type(exc).__name__))

    def boom(x):
        raise ValueError(x)

    def double(x):
        return 2 * x

    traced_boom = tr.wrap(boom, "t.boom", annotate)
    traced_double = tr.wrap(double, "t.double", annotate)
    with pytest.raises(ValueError):
        traced_boom(1)
    assert traced_double(3) == 6
    assert [s.name for s in tr.spans] == ["t.boom", "t.double"]
    assert all(s.end is not None for s in tr.spans)
    assert seen == [("boom", (1,), None, "ValueError"),
                    ("double", (3,), 6, "NoneType")]


# --- aggregation and escalations -------------------------------------------


def test_aggregate_counts_inclusive_time_of_recursion_once():
    outer = _span("quad.integrate_adaptive", 0.0, 4.0)
    inner = _span("quad.integrate_adaptive", 1.0, 3.0, outer)
    inner.attrs["subdivisions"] = 5
    outer.attrs["subdivisions"] = 7
    row = probes.aggregate([outer, inner])["quad.integrate_adaptive"]
    assert row["calls"] == 2
    assert row["s"] == pytest.approx(4.0)
    assert row["self_s"] == pytest.approx(4.0)
    assert row["subdivisions"] == 12


def test_escalated_calls_are_the_ones_with_an_mpmath_descendant():
    suite = _span("validate.suite", 0.0, 10.0)
    suite.attrs["suite"] = "oracle"
    plain = _span("quad.fourier_cos_halfline", 0.0, 1.0, suite)
    hot = _span("quad.fourier_cos_halfline", 1.0, 9.0, suite)
    for s, tau in ((plain, 0.5), (hot, 40.0)):
        s.attrs.update(tau=tau, tol=1e-10)
    _span("quad.mpmath", 2.0, 3.0, hot)
    _span("quad.mpmath", 3.0, 4.0, hot)
    spans = [suite, plain, hot] + hot.children
    assert probes.escalated(spans) == [hot]
    assert probes.escalations(spans) == [
        {"tau": 40.0, "tol": 1e-10, "suite": "oracle",
         "caller": "validate.suite"}]
    metrics = probes.pass_metrics(spans, {"EmbeddingWarning": 3})
    assert metrics["quad.fourier_cos_halfline.escalated"] == 1
    assert metrics["quad.mpmath.calls"] == 2
    assert metrics["sampler.embedding_warnings"] == 3
    assert metrics["validate.suite.oracle.s"] == pytest.approx(10.0)
    assert metrics["trace.self_sum_s"] == pytest.approx(10.0)
    assert set(metrics) == {n for n, _u, _b in probes.PER_LAYER} - set(
        probes.RUNNER_METRICS)


def test_installed_wraps_every_lookup_and_restores_it():
    import tplab.kernels as K
    import tplab.kernels.fou as fou
    from tplab.kernels.params import FracOUParams

    before = (K.fou_cov, fou.fou_cov, fou.cov_alpha_grid)
    tr = Tracer()
    with probes.installed(tr):
        assert K.fou_cov is fou.fou_cov is not before[0]
        K.fou_cov(FracOUParams(0.75, 0.5), 1.0)
    assert (K.fou_cov, fou.fou_cov, fou.cov_alpha_grid) == before
    names = [s.name for s in tr.spans]
    assert names[:2] == ["kernels.fou_cov", "kernels.cov_alpha_grid"]
    assert "specfun.besselk_grid" in names
    grid = [s for s in tr.spans if s.name == "kernels.cov_alpha_grid"][0]
    assert grid.parent.name == "kernels.fou_cov"
    assert grid.attrs["elements"] == 1


# --- speed probe -----------------------------------------------------------


def test_speed_probe_samples_throughout_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        deadline = time.monotonic() + 0.8
        while time.monotonic() < deadline:
            sum(range(1000))
    # one sample on entry, one per 0.25 s of wall time, one on exit
    assert len(probe.samples) >= 4
    assert all(s > 0.0 for s in probe.samples)
    assert probe.mean() == pytest.approx(
        sum(probe.samples) / len(probe.samples))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --- summaries -------------------------------------------------------------


def test_summary_reports_median_quartiles_and_sample_count():
    st = run.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert st == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert run.summary([7.0])["n"] == 1
    assert run.summary([])["n"] == 0


# --- gates -----------------------------------------------------------------


def _record(n=4):
    return {"seed": 1, "t0": 0.0, "dt": 0.1, "values": [0.0] * n,
            "method": "cholesky", "family": "tfbm"}


def _write_paths(path, records, tail=""):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
        fh.write(tail)


def test_check_paths_accepts_a_complete_file(tmp_path):
    p = tmp_path / "paths.jsonl"
    _write_paths(p, [_record()] * 3)
    ok, reason, digest = workloads.check_paths(str(p), 3, 4)
    assert ok, reason
    assert len(digest) == 64


@pytest.mark.parametrize("records, tail, count", [
    ([_record()] * 2, "", 3),                               # missing record
    ([_record()] * 3, '{"seed": 1, "t0"', 4),               # truncated line
    ([_record()] * 2 + ["not a record"], "", 3),            # wrong type
    ([_record()] * 2 + [dict(_record(), extra=1)], "", 3),  # extra key
    ([_record()] * 2 + [_record(n=3)], "", 3),              # short path
])
def test_check_paths_rejects_corrupted_files(tmp_path, records, tail, count):
    p = tmp_path / "paths.jsonl"
    _write_paths(p, records, tail)
    ok, reason, _digest = workloads.check_paths(str(p), count, 4)
    assert not ok and reason != "ok"


def test_a_missing_output_fails_its_gate_without_raising(tmp_path):
    cmd = workloads.commands("sample-exact-tfbm", 1, str(tmp_path))[1]
    ok, reason, digest = cmd.check()
    assert not ok and "FileNotFoundError" in reason and digest is None


def test_hurst_gates(tmp_path):
    est = tmp_path / "estimate.csv"
    est.write_text("estimator,estimate,se\nhurst,0.2502,0.001\n")
    assert workloads.check_hurst(str(est))[0]
    est.write_text("estimator,estimate,se\nhurst,0.34,0.001\n")
    assert not workloads.check_hurst(str(est))[0]
    win = tmp_path / "windowed.csv"
    good = workloads.ramp_alpha(0.3) - 0.5
    win.write_text("t,h_hat,se\n0.3,%r,0.01\n" % good)
    assert workloads.check_windowed_hurst(str(win))[0]
    win.write_text("t,h_hat,se\n0.3,%r,0.01\n0.6,nan,0.01\n" % good)
    assert not workloads.check_windowed_hurst(str(win))[0]


def test_report_gate_and_digest_ignore_wall_clock(tmp_path):
    rep = {"suite": "x", "config": {}, "passed": True,
           "checks": [{"check_id": "a", "passed": True}],
           "wall_clock_seconds": 1.0}
    p = tmp_path / "r.json"
    p.write_text(json.dumps(rep))
    ok, _reason, d1 = workloads.check_report(str(p))
    p.write_text(json.dumps(dict(rep, wall_clock_seconds=2.0)))
    assert ok and workloads.check_report(str(p))[2] == d1
    rep["checks"].append({"check_id": "b", "passed": False})
    p.write_text(json.dumps(rep))
    ok, reason, _d = workloads.check_report(str(p))
    assert not ok and "b" in reason


def test_a_truncated_paths_file_counts_as_a_failed_command(tmp_path,
                                                           monkeypatch):
    r = run.Run(str(tmp_path), "sample-exact-tfbm", 1, trace=False)

    def fake_spawn(outdir, traced=False, setup_only=False):
        _write_paths(os.path.join(str(tmp_path), outdir, "paths.jsonl"),
                     [_record(1024)] * 10, '{"seed": 1, "t0"')
        with open(os.path.join(str(tmp_path), outdir, "estimate.csv"),
                  "w") as fh:
            fh.write("estimator,estimate,se\nhurst,0.25,0.001\n")
        cmds = [{"name": n, "exit": 0, "seconds": 1.0, "output": ""}
                for n in ("sample", "estimate")]
        return {"ready": 0.0, "commands": cmds, "wall_s": 2.0,
                "peak_rss_mb": 1.0}, ""

    monkeypatch.setattr(r, "_spawn", fake_spawn)
    r.one_pass(traced=False)
    assert r.attempted == 2
    assert [(i, name) for i, name, _why in r.failed] == [(0, "sample")]


def test_seeds_are_derived_reproducibly():
    a = workloads.commands("validate-kernels", 7, "out")
    b = workloads.commands("validate-kernels", 7, "out")
    c = workloads.commands("validate-kernels", 8, "out")
    assert [x.argv for x in a] == [x.argv for x in b]
    assert [x.argv for x in a] != [x.argv for x in c]


# --- the contract file -----------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(probes.PER_LAYER)
