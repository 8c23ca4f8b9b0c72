"""diracmech benchmark: one workload, one seed, one run.

    python3 bench/bench.py --workload catalog --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the engine from its
``src/``.  Workloads (see workloads.py): catalog, newton, record, verify.

With ``--trace 0`` the run measures the end-to-end metrics: ops are run
in whole rounds (the same seeded inputs each round) until ``--seconds``
have passed, with the reference loop (refloop.py) timed just before each
op.  The op figures are also given in units of that loop's time
(``ref``), so that the slow phases of a shared host cancel:
``op_cost_p50`` and ``op_cost_p90`` are percentiles over all ops of op
time over the op's reference time, and ``ops_per_ref`` is ops per round
over the median, across rounds, of the round's summed op costs.  Of these,
``ops_per_ref`` and ``op_cost_p50`` are gated; ``op_cost_p90`` is set
by bursts shorter than an op, which the reference loop cannot see, so it
is reported only.  The same figures in wall time (``ops_per_s``,
``op_ms_p50``, ``op_ms_p90``, ``steps_per_s``, ``rows_per_s``: work done
over the time spent in ops, output checks excluded) are reported too.  ``setup_s`` is
the median of SETUP_REPEATS fresh set-ups (import, build every spec,
parse every potential), spread evenly over the run.

With ``--trace 1`` the run gives per-layer metrics instead: per-call
figures (percall.py), then pairs of one untraced and one traced pass
(the set-up's builds and parses, then one round) until ``--seconds``
have passed.  Self times are medians over the traced
rounds; counts come from the first traced round and must repeat
exactly; ``trace.overhead_frac`` is the median traced/untraced wall-time
ratio minus 1.

Every op's output is checked.  Human-readable lines and a JSON report
(machine info, seed, every metric with its unit) are printed first; the
last line of standard output is the result object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is first imported.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import sys  # noqa: E402

NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import percall  # noqa: E402
import refloop  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _purge_engine() -> dict:
    """Remove the engine's modules from ``sys.modules``; returns them."""
    names = [n for n in sys.modules if n == "diracmech" or n.startswith("diracmech.")]
    return {name: sys.modules.pop(name) for name in names}


def _fresh_setup(workload, op_inputs):
    """Wall time of one set-up from a fresh import, and its context."""
    _purge_engine()
    gc.collect()
    t0 = time.perf_counter()
    ctx = workloads.setup(workload, op_inputs)
    return time.perf_counter() - t0, ctx


def _repeat_setup(workload, op_inputs):
    """Time one more fresh set-up, then put back the modules the ops use."""
    saved = _purge_engine()
    elapsed, _ = _fresh_setup(workload, op_inputs)
    _purge_engine()
    sys.modules.update(saved)
    return elapsed


def _run_op(op, engine_error):
    """(seconds, failure reason or None) for one op."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except engine_error as exc:
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return elapsed, op.check(out)


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, op, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.label}: {reason}")


def _run_round(ops, engine_error, tally, refs=None):
    """Latencies of one round over every op, in op order.  With ``refs``,
    the reference loop is timed just before each op and appended there."""
    latencies = []
    for op in ops:
        if refs is not None:
            refs.append(refloop.timed())
        elapsed, reason = _run_op(op, engine_error)
        latencies.append(elapsed)
        tally.add(op, reason)
    return latencies


def _percentile_report(latencies_ms):
    """Median, p90, and the highest percentile with at least ten samples
    beyond it (p90 needs 100 samples)."""
    n = len(latencies_ms)
    if n > 1:
        cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive")
        p50, p90 = cuts[49], cuts[89]
    else:
        p50 = p90 = latencies_ms[0]
    top = None
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            top = pct
            break
    return p50, p90, top


def measure_end_to_end(seconds, ops, ctx, tally, setup_again):
    """Rounds until ``seconds`` have passed.  ``setup_again()`` times
    one more fresh set-up; it is called between rounds at evenly spaced
    times, so that ``setup_s`` samples the same stretch of machine load as
    the ops do."""
    engine_error = ctx["dm"].EngineError
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    setup_times = [start + k * seconds / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    setup_samples = []
    rounds, refs = [], []
    while True:
        rounds.append(_run_round(ops, engine_error, tally, refs))
        now = time.perf_counter()
        if setup_times and now >= setup_times[0]:
            setup_times.pop(0)
            setup_samples.append(setup_again())
        if now >= deadline:
            break
    round_s = [sum(r) for r in rounds]
    busy_s = sum(round_s)
    latencies_ms = [t * 1e3 for r in rounds for t in r]
    p50, p90, top = _percentile_report(latencies_ms)
    # The same figures in units of the reference loop.  An op's reference
    # time is the median of the loop's times before it and the two ops on
    # each side, so that one disturbed call of the short loop does not skew
    # an op while the host's phases, seconds long, are still tracked.
    op_ref = [statistics.median(refs[max(0, k - 2):k + 3]) for k in range(len(refs))]
    costs = [t / ref for t, ref in zip((t for r in rounds for t in r), op_ref)]
    cost_p50, cost_p90, _ = _percentile_report(costs)
    n = len(ops)
    round_cost = statistics.median(sum(costs[k:k + n]) for k in range(0, len(costs), n))
    steps = sum(op.steps for op in ops)
    rows = sum(op.rows for op in ops)
    metrics = {
        "ops_per_ref": (len(ops) / round_cost, "1/ref"),
        "op_cost_p50": (cost_p50, "ref"),
        "op_cost_p90": (cost_p90, "ref"),
        "ops_per_s": (len(latencies_ms) / busy_s, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "ref_ms_p50": (statistics.median(refs) * 1e3, "ms"),
        "fail_frac": (tally.failed / tally.attempted, "ratio"),
    }
    if steps:
        metrics["steps_per_ref"] = (steps / round_cost, "1/ref")
        metrics["steps_per_s"] = (steps * len(rounds) / busy_s, "1/s")
    if rows:
        metrics["rows_per_ref"] = (rows / round_cost, "1/ref")
        metrics["rows_per_s"] = (rows * len(rounds) / busy_s, "1/s")
    return metrics, {
        "rounds": len(rounds),
        "round_ms": [round(t * 1e3, 3) for t in round_s],
        "ops_per_round": len(ops),
        "op_samples": len(latencies_ms),
        "highest_percentile_with_10_beyond": top,
        "setup_samples_s": setup_samples,
    }


def measure_per_layer(seconds, seed, ops, ctx, tally, build_again):
    """Per-call figures, then pairs of one untraced and one traced pass
    until ``seconds`` have passed.  A pass is ``build_again()`` (the
    set-up's builds and parses, with the engine already imported) and one
    round, so that set-up layers show on every workload."""
    engine_error = ctx["dm"].EngineError
    metrics = percall.figures(ctx, seed)
    gc.collect()
    deadline = time.perf_counter() + seconds
    ratios, tracers = [], []
    while True:
        tracer = tracing.Tracer()
        wall = {}
        # alternate which side of the pair runs first
        order = (False, True) if len(tracers) % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                build_again()
                _run_round(ops, engine_error, tally)
                wall[traced] = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
        ratios.append(wall[True] / wall[False])
        tracers.append(tracer)
        if time.perf_counter() >= deadline:
            break
    first = tracers[0]
    counts_repeat = all(t.counts() == first.counts() for t in tracers[1:])
    steps = sum(op.steps for op in ops)
    calls = first.calls
    iters = first.newton_iters

    def per_step(key):
        return calls[key] / steps if steps else 0.0

    for group in tracing.GROUPS:
        metrics[f"{group}.self_s"] = (statistics.median(t.self_s[group] for t in tracers), "s")
    metrics.update(
        {
            "numcore.grad.calls": (calls["numcore.grad"], "count"),
            "numcore.grad.calls_per_step": (per_step("numcore.grad"), "1/step"),
            "numcore.newton_solve.calls": (len(iters), "count"),
            "numcore.newton_solve.iters_per_solve": (sum(iters) / len(iters) if iters else 0.0, "1/solve"),
            "numcore.newton_solve.zero_iter_frac": (
                sum(i == 0 for i in iters) / len(iters) if iters else 0.0,
                "ratio",
            ),
            "dirac.solve_consistency.calls": (calls["dirac.solve_consistency"], "count"),
            "dirac.solve_consistency.calls_per_step": (per_step("dirac.solve_consistency"), "1/step"),
            "dirac.complete_state.calls": (calls["dirac.complete_state"], "count"),
            "exprparse.eval_expr.calls": (calls["exprparse.eval_expr"], "count"),
            "systems.build.calls": (calls["systems.build"], "count"),
            "trace.ops": (len(ops), "count"),
            "trace.steps": (steps, "count"),
            "trace.overhead_frac": (statistics.median(ratios) - 1.0, "ratio"),
        }
    )
    return metrics, {"trace_pairs": len(tracers), "counts_repeat": counts_repeat}


def _machine(load_start):
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
        "threads_pinned_before_numpy_import": not NUMPY_LOADED_BEFORE_PIN,
    }


def main(argv=None) -> int:
    args = _args(argv)
    load_start = os.getloadavg()
    if not (SRC / "diracmech" / "__init__.py").is_file():
        sys.stderr.write(f"error: no engine sources at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    # leave no temporary output behind when stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    op_inputs = workloads.inputs(args.workload, args.seed)
    first_setup_s, ctx = _fresh_setup(args.workload, op_inputs)
    engine_file = Path(ctx["dm"].__file__).resolve()
    if SRC not in engine_file.parents:
        sys.stderr.write(f"error: imported diracmech from {engine_file}, not from {SRC}\n")
        return 2

    tally = Tally()
    with tempfile.TemporaryDirectory(prefix="_out", dir=BENCH_DIR) as out_dir:
        ops = workloads.make_ops(args.workload, op_inputs, ctx, args.seed, out_dir)
        if args.trace:
            metrics, details = measure_per_layer(
                args.seconds, args.seed, ops, ctx, tally,
                lambda: workloads.setup(args.workload, op_inputs),
            )
        else:
            metrics, details = measure_end_to_end(
                args.seconds, ops, ctx, tally,
                lambda: _repeat_setup(args.workload, op_inputs),
            )
            details["setup_samples_s"].insert(0, first_setup_s)
            metrics["setup_s"] = (statistics.median(details["setup_samples_s"]), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    details.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        failures=tally.reasons,
        machine=_machine(load_start),
    )
    emitted = _emitted_names(args.trace)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"report": {"details": details, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in emitted},
    }
    print(json.dumps(result))
    return 0


def _emitted_names(trace):
    """Metric names of the result line, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
