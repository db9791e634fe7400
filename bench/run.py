"""mfbsde benchmark: time to solution on two solver/game workloads.

Usage, from the repository root:

    python3 bench/run.py --workload nash_example3 --seed 5 --seconds 30 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics (set-up time, time to solution, peak memory).  With
``--trace 1`` it wraps mfbsde's public functions at their import sites,
keeps the spans in memory, writes them to ``bench/out/`` and reports the
per-layer split.  Every run checks its workload's correctness gates and
prints one JSON object as its last stdout line.  A run record (the
solver's own counts, accuracy figures, output digest and environment)
goes to ``bench/out/<workload>-<seed>-<source hash>.json``.  Records
earlier runs at the same workload and seed left there must match it:
exactly for the same package source, in the iteration counts for any
other source.

The package is imported from ``src/`` of the checkout; BLAS is pinned to
one thread before numpy loads.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fresh interpreters timed for setup_s, half before the timed operations
# and half after them, so that the median spans the whole run (the host's
# speed drifts over tens of seconds)
SETUP_PROBES = 14
# a traced run fails when its stage spans hold more than this share of the
# stages' time outside every wrapped call: the layer spans must account
# for solve_s + verify_s
UNATTRIBUTED_MAX = 0.01
# the counts a speed-up must keep.  Only counts are compared between runs
# of different sources; digests and final gaps only within one source.
COUNT_KEYS = ("outer_iterations", "adjoint_iterations", "inner_sweeps")
EXACT_KEYS = (*COUNT_KEYS, "final_gap", "digest")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_workloads():
    if not (ROOT / "src" / "mfbsde" / "__init__.py").is_file():
        sys.exit(f"bench: no mfbsde package under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def probe_setup(args) -> None:
    """Child mode: import and build the inputs, then say so and exit."""
    wl = import_workloads().WORKLOADS[args.workload]
    wl.setup(args.seed)
    print("ready", flush=True)


def setup_seconds(args, probes: int) -> list[float]:
    """Wall time from spawning a fresh interpreter until it has built the
    workload's inputs, for ``probes`` fresh processes."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"bench: set-up probe failed (exit {code})")
    return samples


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_op(wl, inp, tracer=None):
    """One operation: its stages in order, each timed (and traced when a
    tracer is installed)."""
    out, times = {}, {}
    for name, fn in wl.stages:
        t0 = time.perf_counter()
        if tracer is None:
            fn(wl, inp, out)
        else:
            with tracer.span(f"stage.{name}"):
                fn(wl, inp, out)
        times[f"{name}_s"] = time.perf_counter() - t0
    return out, times


def layer_metrics(tracer, stage_times, overhead, record) -> dict:
    tot = tracer.totals()

    def get(name, key="s"):
        return tot[name][key] if name in tot else 0.0

    outer = tracer.counts["fixpoint.outer_iterations"]
    sweeps = get("forward.propagate", "calls")
    m = {
        "solve_s": (stage_times.get("solve_s", 0.0), "s"),
        "verify_s": (stage_times.get("verify_s", 0.0), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.unattributed_s": (unattributed(tracer), "s"),
        "trace.spans": (len(tracer.spans), "count"),
        "fixpoint.outer_iterations": (outer, "count"),
        "fixpoint.inner_sweeps": (sweeps, "count"),
        "fixpoint.sweeps_per_outer": (sweeps / outer if outer else 0.0, "count"),
        "fixpoint.solve_s": (get("fixpoint.solve"), "s"),
        "fixpoint.self_s": (get("fixpoint.solve", "self_s"), "s"),
        "forward.propagate.calls": (sweeps, "count"),
        "forward.propagate.s": (get("forward.propagate"), "s"),
        "backward.solve_backward.calls": (get("backward.solve_backward", "calls"), "count"),
        "backward.solve_backward.s": (get("backward.solve_backward"), "s"),
        "backward.ridge_steps": (tracer.counts["backward.ridge_steps"], "count"),
        "backward.max_residual": (tracer.counts["backward.max_residual"], "1"),
        "paths.joint_marginal.calls": (get("paths.joint_marginal", "calls"), "count"),
        "paths.joint_marginal.s": (get("paths.joint_marginal"), "s"),
        "paths.make_bundle.s": (get("paths.make_bundle"), "s"),
        "lqgame.adjoint_iterations": (tracer.counts["lqgame.adjoint_iterations"], "count"),
        "lqgame.adjoint.backward_s": (get("lqgame.adjoint.backward"), "s"),
        "lqgame.solve_nash.self_s": (get("lqgame.solve_nash", "self_s"), "s"),
        "lqgame.simulate_state.calls": (get("lqgame.simulate_state", "calls"), "count"),
        "lqgame.simulate_state.s": (get("lqgame.simulate_state"), "s"),
        "lqgame.cost.s": (get("lqgame.cost"), "s"),
        "lqgame.deviation_test.self_s": (get("lqgame.deviation_test", "self_s"), "s"),
        "lqgame.solve_mean_fbode.calls": (get("lqgame.solve_mean_fbode", "calls"), "count"),
        "lqgame.solve_mean_fbode.s": (get("lqgame.solve_mean_fbode"), "s"),
        "lqgame.expm.calls": (get("lqgame.expm", "calls"), "count"),
        "lqgame.build_aggregated.s": (get("lqgame.build_aggregated"), "s"),
        "lqgame.check_H2.s": (get("lqgame.check_H2"), "s"),
        "problem.problem_from_config.s": (get("problem.problem_from_config"), "s"),
        "problem.spot_check.s": (get("problem.spot_check"), "s"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "final_gap": (record.get("final_gap", 0.0), "1"),
        "mean_err": (record.get("mean_err", 0.0), "1"),
        "deviation_fails": (record.get("deviation_fails", 0), "count"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def unattributed(tracer) -> float:
    """Time inside the benchmark's stage spans that no wrapped call covers."""
    return sum(v["self_s"] for k, v in tracer.totals().items() if k.startswith("stage."))


def source_hash() -> str:
    """sha256 over the package's Python sources, so that run records of
    different code are told apart."""
    src = ROOT / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare_with_earlier(out: Path, stem: str, src: str, record: dict) -> tuple[dict, dict]:
    """Check ``record`` against the records earlier runs at the same
    workload and seed left in ``out``: the same source must give the same
    counts, final gap and digest; another source the same counts.

    Returns the check (how many records of each kind were compared, and
    whether all matched) and the record to save, which keeps counts an
    earlier run of this source saw that this one did not (inner sweeps
    come only from traced runs)."""
    check = {"same_source": 0, "other_source": 0, "ok": True}
    saved = dict(record)
    for path in sorted(out.glob(f"{stem}-*.json")):
        earlier = json.loads(path.read_text())
        same = earlier["src_hash"] == src
        keys = EXACT_KEYS if same else COUNT_KEYS
        check["same_source" if same else "other_source"] += 1
        check["ok"] &= all(
            earlier["record"][k] == record[k] for k in keys if k in earlier["record"] and k in record
        )
        if same:
            saved = {**earlier["record"], **record}
    return check, saved


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        probe_setup(args)
        return 0
    wlmod = import_workloads()
    if args.workload not in wlmod.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(wlmod.WORKLOADS)}")
    wl = wlmod.WORKLOADS[args.workload]
    tracer = None
    overhead = 0.0

    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        with tracer.span("setup"):
            inp = wl.setup(args.seed)
        ops = [run_op(wl, inp, tracer)]
        tracer.remove()
        # tracing cost: span count times the measured cost of one wrapped
        # call (the gap between a traced and an untraced solve is smaller
        # than their run-to-run spread)
        overhead = len(tracer.spans) * spans.wrapped_call_cost()
    else:
        setups = setup_seconds(args, SETUP_PROBES // 2)
        inp = wl.setup(args.seed)
        t_start = time.perf_counter()
        ops = [run_op(wl, inp)]
        # later operations of the same run can only add allocator slack
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # start another operation only while it is expected to fit
        while (elapsed := time.perf_counter() - t_start) + elapsed / len(ops) <= args.seconds:
            ops.append(run_op(wl, inp))

    checked = [wl.check(inp, out) for out, _ in ops]
    failed = sum(not all(gates.values()) for gates, _ in checked)
    record = checked[-1][1]
    # repeated operations at one seed must agree exactly
    repeat_ok = all(rec["digest"] == record["digest"] for _, rec in checked)
    trace_ok = True
    if tracer is not None:
        record["inner_sweeps"] = tracer.totals().get("forward.propagate", {}).get("calls", 0)
        staged = sum(ops[0][1].values())
        trace_ok = unattributed(tracer) <= UNATTRIBUTED_MAX * staged
    # the counts recorded for this seed when the workload was defined
    reference = wl.reference_counts.get(args.seed, {})
    reference_ok = all(record[k] == v for k, v in reference.items() if k in record)
    src = source_hash()
    wlmod.OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-{args.seed}"
    earlier, saved = compare_with_earlier(wlmod.OUT, stem, src, record)
    if tracer is not None:
        tracer.write(wlmod.OUT / f"{stem}-spans.jsonl")

    stage_times = {k: statistics.median(t[k] for _, t in ops) for k in ops[0][1]}
    solution = [sum(t.values()) for _, t in ops]
    run_record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "operations": len(ops),
        "op_seconds": solution,
        "stage_seconds": stage_times,
        "gates": [gates for gates, _ in checked],
        "repeat_identical": repeat_ok,
        "matches_reference_counts": reference_ok,
        "earlier_runs": earlier,
        "trace_accounts_for_stages": trace_ok,
        "src_hash": src,
        "record": saved,
        "environment": environment(),
    }
    if args.trace:
        metrics = layer_metrics(tracer, ops[0][1], overhead, record)
    else:
        setups += setup_seconds(args, SETUP_PROBES - SETUP_PROBES // 2)
        run_record["setup_samples_s"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "time_to_solution_s": {"value": statistics.median(solution), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    run_record["metrics"] = metrics
    (wlmod.OUT / f"{stem}-{src[:16]}.json").write_text(json.dumps(run_record, indent=2, default=float) + "\n")

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: run_record[k] for k in ("op_seconds", "stage_seconds", "gates", "record")}, default=float))
    correct = failed == 0 and repeat_ok and reference_ok and earlier["ok"] and trace_ok
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
