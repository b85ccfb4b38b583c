"""The benchmark's traced run looks up each of its probe targets with
getattr; a refactor that moves or renames one breaks that run, so the
targets are checked here, read from the benchmark's own table."""

import importlib
import importlib.util
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _probes(monkeypatch):
    # probes.py imports its sibling module workloads by plain name
    monkeypatch.syspath_prepend(BENCH)
    spec = importlib.util.spec_from_file_location(
        "perfbench_probes", os.path.join(BENCH, "probes.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


def test_every_tplab_probe_target_resolves(monkeypatch):
    targets = [(m, attr) for m, attr, _, _ in _probes(monkeypatch)
               if m.split(".")[0] == "tplab"]
    assert targets
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        assert callable(getattr(owner, attr, None)), (module_name, attr)
