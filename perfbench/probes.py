"""The tplab functions a traced pass wraps, and the per-layer metrics
derived from their spans.

A function is wrapped on every module where a caller looks it up: the
defining module and each tplab module that bound it by name, such as the
``tplab.kernels`` re-exports.  The originals are put back when the
``installed`` context ends.
"""

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager

import numpy as np

from workloads import VALIDATE_SUITES

LAYERS = ("cli", "sampler", "kernels", "specfun", "quad", "estimators",
          "validate")

_ESTIMATORS = ("variogram", "hurst_local", "fractal_dimension",
               "hurst_local_windowed")

# span attributes summed over calls; the others are kept per span
_SUMMED = ("elements", "subdivisions", "checks")


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _arguments(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _elements(span, fn, args, kwargs, result, exc):
    if exc is None:
        span.attrs["elements"] = int(np.size(result))


def _subdivisions(span, fn, args, kwargs, result, exc):
    if exc is not None:
        result = getattr(exc, "partial", None)
    if result is not None:
        span.attrs["subdivisions"] = int(result.subdivisions)


def _oscillatory(span, fn, args, kwargs, result, exc):
    arguments = _arguments(fn, args, kwargs)
    span.attrs["tau"] = float(arguments["tau"])
    span.attrs["tol"] = float(arguments["tol"])
    _subdivisions(span, fn, args, kwargs, result, exc)


def _jitter(span, fn, args, kwargs, result, exc):
    if exc is None:
        span.attrs["jitter"] = max((p.jitter for p in result), default=0.0)


def _suite(span, fn, args, kwargs, result, exc):
    span.attrs["suite"] = _arguments(fn, args, kwargs)["suite"]
    if exc is None:
        span.attrs["checks"] = len(result.checks)


# (module that defines the function, its name, span name, annotator)
PROBES = (
    ("tplab.sampler", "build_gram", "sampler.build_gram", None),
    ("numpy.linalg", "cholesky", "sampler.cholesky", None),
    ("tplab.sampler", "sample_exact", "sampler.sample_exact", _jitter),
    ("tplab.sampler", "sample_tfbm_spectral", "sampler.spectral", None),
    ("tplab.kernels.tfbm", "tfbm_gram", "kernels.tfbm_gram", None),
    ("tplab.kernels.tmbm", "tmbm_gram", "kernels.tmbm_gram", None),
    ("tplab.kernels.fou", "cov_alpha_grid", "kernels.cov_alpha_grid",
     _elements),
    ("tplab.kernels.fou", "fou_cov", "kernels.fou_cov", None),
    ("tplab.kernels.tmbm", "tmbm_mou_cov", "kernels.tmbm_mou_cov", None),
    ("tplab.kernels.twoindex", "twoindex_cov", "kernels.twoindex_cov", None),
    ("tplab.specfun", "besselk_grid", "specfun.besselk_grid", _elements),
    ("tplab.specfun", "bessel_k", "specfun.bessel_k", None),
    ("tplab.specfun", "kummer_u", "specfun.kummer_u", None),
    ("tplab.quad", "fourier_cos_halfline", "quad.fourier_cos_halfline",
     _oscillatory),
    ("tplab.quad", "integrate_adaptive", "quad.integrate_adaptive",
     _subdivisions),
    ("mpmath", "quad", "quad.mpmath", None),
    ("tplab.validate", "run_suite", "validate.suite", _suite),
) + tuple(("tplab.estimators", fn, "estimators." + fn, None)
          for fn in _ESTIMATORS)


@contextmanager
def installed(tracer, probes=PROBES):
    """Wrap every probe's function wherever tplab looks it up."""
    import tplab.cli  # noqa: F401  (loads every tplab module)

    replaced = []
    try:
        for module_name, attr, span_name, annotate in probes:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            traced = tracer.wrap(original, span_name, annotate)
            homes = [owner] + [m for n, m in sorted(sys.modules.items())
                               if n.split(".")[0] == "tplab"]
            for mod in homes:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, traced)
                    replaced.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)


def _key(span):
    if span.name == "validate.suite":
        return "validate.suite.%s" % span.attrs.get("suite")
    return span.name


def aggregate(spans):
    """Per span key: calls, inclusive seconds, self seconds and summed
    attributes.  A call nested inside a call of the same key adds to the
    count and self time but not again to the inclusive time."""
    agg = {}
    for s in spans:
        key = _key(s)
        row = agg.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += s.self_time()
        if all(_key(a) != key for a in s.ancestors()):
            row["s"] += s.duration
        for name in _SUMMED:
            if name in s.attrs:
                row[name] = row.get(name, 0) + s.attrs[name]
        if "jitter" in s.attrs:
            row["jitter_max"] = max(row.get("jitter_max", 0.0),
                                    s.attrs["jitter"])
    return agg


def escalated(spans):
    """fourier_cos_halfline spans that have a quad.mpmath descendant."""
    out = {}
    for s in spans:
        if s.name != "quad.mpmath":
            continue
        for a in s.ancestors():
            if a.name == "quad.fourier_cos_halfline":
                out[id(a)] = a
                break
    return sorted(out.values(), key=lambda a: a.start)


def escalations(spans):
    """tau, tol, suite and calling span of each escalated oscillatory
    call."""
    rows = []
    for s in escalated(spans):
        suite = caller = None
        for a in s.ancestors():
            if caller is None and not a.name.startswith("quad."):
                caller = a.name
            if a.name == "validate.suite":
                suite = a.attrs.get("suite")
                break
        rows.append({"tau": s.attrs["tau"], "tol": s.attrs["tol"],
                     "suite": suite, "caller": caller})
    return rows


def _metric_names():
    names = [("cli.sample.self_s", "s", "lower"),
             ("cli.estimate.self_s", "s", "lower"),
             ("cli.validate.self_s", "s", "lower"),
             ("cli.paths_bytes", "B", "lower"),
             ("sampler.build_gram.calls", "count", "lower"),
             ("sampler.build_gram.s", "s", "lower"),
             ("sampler.cholesky.calls", "count", "lower"),
             ("sampler.cholesky.s", "s", "lower"),
             ("sampler.jitter_max", "1", "lower"),
             ("sampler.sample_exact.self_s", "s", "lower"),
             ("sampler.spectral.calls", "count", "lower"),
             ("sampler.spectral.self_s", "s", "lower"),
             ("sampler.embedding_warnings", "count", "lower"),
             ("kernels.tfbm_gram.self_s", "s", "lower"),
             ("kernels.tmbm_gram.self_s", "s", "lower"),
             ("kernels.cov_alpha_grid.calls", "count", "lower"),
             ("kernels.cov_alpha_grid.elements", "count", "lower"),
             ("kernels.cov_alpha_grid.self_s", "s", "lower")]
    for fn in ("fou_cov", "tmbm_mou_cov", "twoindex_cov"):
        names += [("kernels.%s.calls" % fn, "count", "lower"),
                  ("kernels.%s.s" % fn, "s", "lower")]
    names += [("specfun.besselk_grid.calls", "count", "lower"),
              ("specfun.besselk_grid.elements", "count", "lower"),
              ("specfun.besselk_grid.s", "s", "lower"),
              ("specfun.besselk_grid.elements_per_s", "1/s", "higher")]
    for fn in ("bessel_k", "kummer_u"):
        names += [("specfun.%s.calls" % fn, "count", "lower"),
                  ("specfun.%s.s" % fn, "s", "lower")]
    names += [("quad.fourier_cos_halfline.calls", "count", "lower"),
              ("quad.fourier_cos_halfline.s", "s", "lower"),
              ("quad.fourier_cos_halfline.subdivisions", "count", "lower"),
              ("quad.fourier_cos_halfline.escalated", "count", "lower"),
              ("quad.mpmath.calls", "count", "lower"),
              ("quad.mpmath.s", "s", "lower"),
              ("quad.integrate_adaptive.calls", "count", "lower"),
              ("quad.integrate_adaptive.s", "s", "lower"),
              ("quad.integrate_adaptive.subdivisions", "count", "lower")]
    names += [("estimators.%s.s" % fn, "s", "lower") for fn in _ESTIMATORS]
    for suite in VALIDATE_SUITES:
        names += [("validate.suite.%s.s" % suite, "s", "lower"),
                  ("validate.suite.%s.checks" % suite, "count", "higher")]
    names += [("layer.%s.self_s" % layer, "s", "lower") for layer in LAYERS]
    names += [("trace.self_sum_s", "s", "lower"),
              ("trace.wall_s", "s", "lower"),
              ("trace.untraced_wall_s", "s", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return tuple(names)


# (name, unit, better) of every per-layer metric a traced run reports
PER_LAYER = _metric_names()

# filled in by the runner from outside the traced pass
RUNNER_METRICS = ("cli.paths_bytes", "trace.wall_s",
                  "trace.untraced_wall_s", "trace.overhead_s")


def pass_metrics(spans, warnings_by_category):
    """Per-layer metrics of one traced pass, except RUNNER_METRICS."""
    agg = aggregate(spans)
    out = {}
    for name, _unit, _better in PER_LAYER:
        key, _, field = name.rpartition(".")
        out[name] = agg.get(key, {}).get(field, 0)
    out["sampler.jitter_max"] = agg.get("sampler.sample_exact", {}).get(
        "jitter_max", 0.0)
    out["sampler.embedding_warnings"] = warnings_by_category.get(
        "EmbeddingWarning", 0)
    out["quad.fourier_cos_halfline.escalated"] = len(escalated(spans))
    bessel = agg.get("specfun.besselk_grid", {})
    out["specfun.besselk_grid.elements_per_s"] = (
        bessel["elements"] / bessel["s"] if bessel.get("s") else 0.0)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for key, row in agg.items():
        by_layer[key.split(".")[0]] += row["self_s"]
    for layer, value in by_layer.items():
        out["layer.%s.self_s" % layer] = value
    out["trace.self_sum_s"] = sum(by_layer.values())
    for name in RUNNER_METRICS:
        del out[name]
    return out
