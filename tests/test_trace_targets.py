"""Every function the benchmark's tracer wraps must exist and be callable.

perfbench/metrics.py lists them in `trace_targets`; a refactor that drops
or renames one would otherwise only break a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from deathcast import cli, util
from deathcast import dataset as ds
from deathcast import evaluation as ev
from deathcast import features as ft
from deathcast import match_data as md
from deathcast import model as mdl
from deathcast import synth as sy
from deathcast import train as tr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_targets_exist_and_are_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # metrics imports its sibling `tracing`
    spec = importlib.util.spec_from_file_location("perfbench_metrics",
                                                  PERFBENCH / "metrics.py")
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    targets = metrics.trace_targets(md, sy, ft, ds, mdl, tr, ev, util, cli)
    assert len(targets) > 20
    missing = [f"{module.__name__}.{name}" for module, name, _ in targets
               if not callable(getattr(module, name, None))]
    assert missing == []
