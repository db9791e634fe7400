"""The names the benchmark binds to must keep existing.

``bench/spans.py`` wraps package functions by name and ``bench/workloads.py``
calls the solver with fixed keywords; a rename fails here instead of only
in a traced benchmark run.
"""

import importlib.util
import inspect
import json
from pathlib import Path

from mfbsde import cli, fixpoint, lqgame, problem  # noqa: F401  (the tracer looks them up in sys.modules)
from mfbsde.paths import TimeGrid

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


def test_gate_and_config_the_benchmark_builds_keep_working():
    # bench/workloads.py passes check_H2 a grid positionally and writes TOY_CONFIG for `mfbsde solve`
    spec = importlib.util.spec_from_file_location("bench_workloads", SPANS.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    gs_param, grid_param = list(inspect.signature(lqgame.check_H2).parameters.values())[:2]
    assert (gs_param.name, grid_param.name) == ("gs", "grid")
    assert grid_param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    # example 3 fails its gate (k' = -1); the benchmark records the verdict as data
    assert lqgame.check_H2(lqgame.example3_game(0.25), TimeGrid(0.25, 100)).passed is False
    prob = problem.problem_from_config(json.loads(workloads.TOY_CONFIG))
    assert prob.lipschitz == problem.LipschitzProfile(c_u=1.0, c_nu=0.1, c_g_x=1.0, c_g_nu=0.1)
    assert prob.monotonicity == problem.MonotonicityProfile(k=1.0, k_prime=1.0, variant="H1prime")
