"""The names the benchmark binds to must keep existing.

``bench/spans.py`` wraps package functions by name and ``bench/workloads.py``
calls the solver with fixed keywords; a rename fails here instead of only
in a traced benchmark run.
"""

import importlib.util
import inspect
from pathlib import Path

from mfbsde import cli, fixpoint, lqgame, problem  # noqa: F401  (the tracer looks them up in sys.modules)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer, original = spans.Tracer(), lqgame.solve_nash
    try:
        tracer.install()  # raises on a target that no longer exists
        assert len(tracer._saved) == len(spans.TARGETS)
    finally:
        tracer.remove()
    assert lqgame.solve_nash is original


def test_solver_entry_points_keep_their_keywords():
    assert "threads" in inspect.signature(lqgame.solve_nash).parameters
    params = fixpoint.SchemeParams(particles=10_000, max_outer=30, tol=1e-3)
    assert (params.particles, params.max_outer, params.tol) == (10_000, 30, 1e-3)
