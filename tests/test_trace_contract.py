"""The benchmark's tracer still finds every function it wraps.

``pipebench/tracer.py`` wraps titeica functions by dotted name and binds
their arguments by parameter name.  A function that is renamed, moved or
given other parameters makes the metrics derived from it absent, and the
benchmark's per-layer report then carries a placeholder where a number
was.  A Krylov hook that the package stops calling by its module name
reads 0 instead, so the linear-solve counts are checked against the
Newton steps.  Each workload runs here at 16^2, seed 0, inside one
``Tracer``; the benchmark's files are read, never changed.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from titeica import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "pipebench"))
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_metric(name, tmp_path):
    stage, cfg = workloads.make_config(name, 0)
    cfg["domain"]["shape"] = [16, 16]
    with tracer.Tracer() as tr:
        code, _ = cli.run(cfg, stage, tmp_path)
    assert code == 0
    assert tr.missing == []
    metrics = tr.metrics()
    absent = {k: str(v) for k, v in metrics.items()
              if isinstance(v, tracer.Absent)}
    assert absent == {}
    assert all(math.isfinite(v) for v in metrics.values())
    json.dumps(metrics, allow_nan=False)
    # every Newton step makes one Krylov solve, through the hook the tracer
    # wraps: a hook shadowed inside the package reads 0 here, not absent
    assert (metrics["pde.cg_calls"] + metrics["pde.minres_calls"]
            == metrics["pde.newton_iters"])
    assert metrics["pde.spsolve_fallbacks"] == 0
