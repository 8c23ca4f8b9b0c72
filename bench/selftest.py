"""Self-test of the benchmark at tiny size (about a minute).

    python3 bench/selftest.py

Checks that:
* a ``--trace 0`` run of every workload prints, as its last line, the
  result object with exactly the end-to-end metrics of BENCHMARK.json
  (with their units), no failed op, and the extra end-to-end figures
  (the wall-time figures, the reference-loop time, steps and rows per
  second and per ref, fail_frac) in its report where they apply;
* two ``--trace 1`` runs of every workload with the same seed print
  exactly the per-layer metrics of BENCHMARK.json, and every count among
  them repeats exactly;
* an op that must fail (a potential whose logarithm leaves the real
  domain) is counted as failed and shows in ``fail_frac``;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits with a non-zero code and prints no result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.5"
SEED = "3"
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics that are counts, or ratios of counts, and so must
# repeat exactly for the same seed.
EXACT_UNITS = {"count", "1/step", "1/solve"}
EXACT_SUFFIXES = (".zero_iter_frac",)


def _run(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", workload, "--seed", SEED,
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def _result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result, report


def _expect_metrics(result, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise AssertionError(f"{section}: missing {missing}, unexpected {extra}, or units differ")


def check_end_to_end():
    stepping = ("steps_per_s", "steps_per_ref")
    extras = {"catalog": stepping, "newton": stepping,
              "record": (*stepping, "rows_per_s", "rows_per_ref"), "verify": ()}
    for workload in WORKLOADS:
        result, report = _result(_run(ROOT, workload, 0))
        _expect_metrics(result, "end_to_end")
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
            raise AssertionError(f"{workload}: {report['details']['failures']}")
        for name in ("ops_per_s", "op_ms_p50", "op_ms_p90", "op_cost_p90", "ref_ms_p50", "fail_frac",
                     *extras[workload]):
            if name not in report["metrics"]:
                raise AssertionError(f"{workload}: report lacks {name}")
        if report["metrics"]["fail_frac"]["value"] != 0:
            raise AssertionError(f"{workload}: fail_frac is not 0")
        print(f"ok end-to-end {workload}")


def check_traced_counts():
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [n for n, u in units.items() if u in EXACT_UNITS or n.endswith(EXACT_SUFFIXES)]
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            result, report = _result(_run(ROOT, workload, 1))
            _expect_metrics(result, "per_layer")
            if not report["details"]["counts_repeat"]:
                raise AssertionError(f"{workload}: counts differ between traced rounds")
            runs.append(result["metrics"])
        differ = [n for n in exact if runs[0][n]["value"] != runs[1][n]["value"]]
        if differ:
            raise AssertionError(f"{workload}: counts differ across runs: {differ}")
        print(f"ok traced counts {workload} ({len(exact)} counts)")


def check_injected_failure():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import bench
    import workloads

    op_inputs = workloads.inputs("record", int(SEED))
    ctx = workloads.setup("record", op_inputs)
    with tempfile.TemporaryDirectory(prefix="_out", dir=BENCH_DIR) as out_dir:
        ops = workloads.make_ops("record", op_inputs, ctx, int(SEED), out_dir)
        ops.append(workloads.record_op(ctx, "skater_free", [0.0, 0.0, 0.0], [1.0, 1.0], "log(x - 5)", out_dir))
        tally = bench.Tally()
        metrics, _ = bench.measure_end_to_end(0.01, ops, ctx, tally, setup_again=lambda: 0.0)
    want = 1 / len(ops)
    if tally.failed != 1 or metrics["fail_frac"][0] != want:
        raise AssertionError(f"injected failure: failed={tally.failed} fail_frac={metrics['fail_frac']}")
    if "log" not in tally.reasons[0]:
        raise AssertionError(f"injected failure reason: {tally.reasons}")
    print(f"ok injected failure counted (fail_frac={want:.4g})")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(prefix="_selftest", dir=BENCH_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("_*", "__pycache__"))
        proc = _run(tmp, WORKLOADS[0], 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError("benchmark ran without engine sources")
    print("ok refuses to run without engine sources")


def main():
    check_refuses_without_sources()
    check_injected_failure()
    check_end_to_end()
    check_traced_counts()
    print("selftest passed")


if __name__ == "__main__":
    main()
