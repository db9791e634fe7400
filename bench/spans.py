"""In-memory span tracer that wraps mfbsde's public functions at their
import sites, so the package itself is traced without any source edit.

A span is (name, parent, start, end); the parent is the span open when
the call began (calls are strictly nested: one process, one thread).  A
span's self time is its duration minus the durations of its direct
children.  A target that no longer exists makes ``install`` raise, so a
renamed function fails the traced run instead of losing its span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


def _history_len(tr, sol):
    tr.counts["fixpoint.outer_iterations"] += len(sol.history)


def _regression(tr, result):
    diag = result[2]
    tr.counts["backward.ridge_steps"] += len(diag.ridge_steps)
    tr.counts["backward.max_residual"] = max(tr.counts["backward.max_residual"], diag.max_residual)


def _adjoints(tr, nash):
    tr.counts["lqgame.adjoint_iterations"] += sum(nash.adjoint_iterations)


# (module, attribute, span name, result hook).  A function imported into
# several modules is wrapped at each import site; the span name says which
# layer owns the call (the adjoint backward solves lqgame issues are kept
# apart from the fixpoint's own).  Pricing goes through the private
# batch-means kernel, the one place both cost() and deviation_test() price.
TARGETS = (
    ("mfbsde.cli", "main", "cli.main", None),
    ("mfbsde.cli", "problem_from_config", "problem.problem_from_config", None),
    ("mfbsde.problem", "MfProblem.spot_check", "problem.spot_check", None),
    ("mfbsde.fixpoint", "solve", "fixpoint.solve", _history_len),
    ("mfbsde.fixpoint", "propagate", "forward.propagate", None),
    ("mfbsde.fixpoint", "solve_backward", "backward.solve_backward", _regression),
    ("mfbsde.fixpoint", "make_bundle", "paths.make_bundle", None),
    ("mfbsde.fixpoint", "joint_marginal", "paths.joint_marginal", None),
    ("mfbsde.lqgame", "joint_marginal", "paths.joint_marginal", None),
    ("mfbsde.lqgame", "solve_backward", "lqgame.adjoint.backward", None),
    ("mfbsde.lqgame", "solve_nash", "lqgame.solve_nash", _adjoints),
    ("mfbsde.lqgame", "build_aggregated", "lqgame.build_aggregated", None),
    ("mfbsde.lqgame", "check_H2", "lqgame.check_H2", None),
    ("mfbsde.lqgame", "simulate_state", "lqgame.simulate_state", None),
    ("mfbsde.lqgame", "_cost_with_batches", "lqgame.cost", None),
    ("mfbsde.lqgame", "deviation_test", "lqgame.deviation_test", None),
    ("mfbsde.lqgame", "solve_mean_fbode", "lqgame.solve_mean_fbode", None),
    ("mfbsde.lqgame", "expm", "lqgame.expm", None),
)


class Tracer:
    """Records spans while installed; restores every original on removal."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, func, name, hook):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(idx)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self) -> None:
        for module, dotted, name, hook in TARGETS:
            owner = sys.modules[module]
            *outer, attr = dotted.split(".")
            for part in outer:
                owner = getattr(owner, part)
            func = getattr(owner, attr)
            self._saved.append((owner, attr, func))
            setattr(owner, attr, self._wrap(func, name, hook))

    def remove(self) -> None:
        for owner, attr, func in reversed(self._saved):
            setattr(owner, attr, func)
        self._saved.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, _, start, end), covered in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": start, "end": end}))
                fh.write("\n")


def wrapped_call_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain one, timed on a no-op."""
    traced = Tracer()._wrap(lambda: None, "noop", None)
    bare = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(calls):
        bare()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls
