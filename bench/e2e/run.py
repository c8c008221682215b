#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench/e2e/README.md).

One run, one result line (the benchmark's command in BENCHMARK.json):
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Repeated runs of every workload with a summary per metric (median and
quartiles):
  python3 bench/e2e/run.py --repeat 5 [--seed 1] [--seconds S] [--trace 1]
  (--trace 1 adds a traced run per seed for the span-derived metrics)

Checks:
  python3 bench/e2e/run.py --selftest
  python3 bench/e2e/run.py --smoke [--binary PATH]

The build lands in .bench_build/e2e at the root of the checkout, and traces
in .bench_build/traces.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD_DIR = ROOT / ".bench_build" / "e2e"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = ["warm_small", "churn_mixed", "deploy_during_serve", "sim_azure"]
HTTP_WORKLOADS = {"warm_small", "churn_mixed", "deploy_during_serve"}
RUN_TIMEOUT_S = 170
LAYER_SUM_TOLERANCE = 0.02


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds optimus_e2e; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no Optimus source tree at {ROOT}: cannot build the benchmark")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "optimus_e2e", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return BUILD_DIR / "optimus_e2e"


def run_binary(binary, workload, seed, seconds, traced, smoke=False):
    """Runs one workload; returns (exit status, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        trace_dir = ROOT / ".bench_build" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", "--trace-out", str(trace_dir / f"{workload}.trace.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s") from error
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload} exited with status {proc.returncode} and no result")
    result = json.loads(lines[-1])
    violation = layer_sum_violation(result)
    if violation:
        log(f"violation: {violation}")
        result["correct"] = False
        result["violations"].append(violation)
    return proc.returncode, result


def layer_sum_violation(result):
    """A traced HTTP run's per-layer self times must add up to its client mean;
    returns what is wrong, or None."""
    layers = result["per_layer"]
    if result["workload"] not in HTTP_WORKLOADS or "trace.layer_sum_ms" not in layers:
        return None
    total = layers["trace.layer_sum_ms"]["value"]
    mean = layers["trace.latency_mean_ms"]["value"]
    if mean > 0 and abs(total - mean) > LAYER_SUM_TOLERANCE * mean:
        return f"per-layer self times sum to {total:.4f} ms, client mean is {mean:.4f} ms"
    return None


def result_line(result, spec, traced):
    """The benchmark's output object: every end-to-end metric of BENCHMARK.json
    (untraced), or every per-layer one (traced). A per-layer metric a workload
    has no layer for reads 0."""
    measured = result["per_layer" if traced else "end_to_end"]
    metrics = {}
    for entry in spec["per_layer" if traced else "end_to_end"]:
        got = measured.get(entry["name"])
        if got is None:
            if not traced:
                raise BenchError(f"{result['workload']} did not report {entry['name']}")
            got = {"value": 0.0, "unit": entry["unit"]}
        if got["unit"] != entry["unit"]:
            raise BenchError(f"{entry['name']} is in {got['unit']}, BENCHMARK.json says "
                             f"{entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": entry["unit"]}
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) with statistics.quantiles' quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def flatten(entry):
    """One run's metrics by name: the untraced run's, plus the span-derived
    ones only a traced run measures."""
    values = dict(entry["untraced"]["end_to_end"])
    values.update(entry["untraced"]["per_layer"])
    if "traced" in entry:
        values.update({name: metric for name, metric in entry["traced"]["per_layer"].items()
                       if name.startswith(("trace.", "platform.self_ms"))})
    return values


def repeat(args, binary):
    spec = json.loads(SPEC_PATH.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for workload in WORKLOADS:
        for i in range(args.repeat):
            seed = args.seed + i
            status, result = run_binary(binary, workload, seed, args.seconds, False)
            entry = {"seed": seed, "untraced": result}
            ok &= status == 0 and result["correct"]
            if args.trace == 1:
                status, traced = run_binary(binary, workload, seed, args.seconds, True)
                entry["traced"] = traced
                ok &= status == 0 and traced["correct"]
            runs.setdefault(workload, []).append(entry)
            log(f"{workload} seed {seed}: correct={result['correct']}")
    print(f"{'workload':<20} {'metric':<32} {'unit':<6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for workload, entries in runs.items():
        flat = [flatten(entry) for entry in entries]
        for name in dict.fromkeys(name for values in flat for name in values):
            values = [v[name]["value"] for v in flat if name in v]
            median, q1, q3, rel = spread(values)
            bound = f"{bounds[name]:.2f}" if name in bounds else ""
            unit = next(v[name]["unit"] for v in flat if name in v)
            print(f"{workload:<20} {name:<32} {unit:<6} {median:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {rel:>8.3f} {bound:>6}")
    return 0 if ok else 1


def smoke(binary):
    failures = 0
    for workload in WORKLOADS:
        status, result = run_binary(binary, workload, 1, 1, True, smoke=True)
        if status != 0 or not result["correct"]:
            log(f"smoke {workload}: FAILED {result['violations']}")
            failures += 1
        else:
            log(f"smoke {workload}: ok ({result['attempted']} attempted)")
    return 1 if failures else 0


def selftest(binary):
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    median, q1, q3, rel = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    expect((median, q1, q3) == (3.0, 1.5, 4.5) and abs(rel - 1.0) < 1e-12, "quartile spread")
    spec = {"end_to_end": [{"name": "a_ms", "unit": "ms"}],
            "per_layer": [{"name": "x", "unit": "count"}, {"name": "y", "unit": "ms"}]}
    result = {"workload": "warm_small", "correct": True, "attempted": 3, "failed": 0,
              "violations": [], "end_to_end": {"a_ms": {"value": 1.5, "unit": "ms"}},
              "per_layer": {"x": {"value": 2, "unit": "count"}}}
    line = result_line(result, spec, traced=True)
    expect(line["metrics"] == {"x": {"value": 2, "unit": "count"},
                               "y": {"value": 0.0, "unit": "ms"}},
           "absent per-layer metric reads 0")
    expect(result_line(result, spec, traced=False)["metrics"] == {
        "a_ms": {"value": 1.5, "unit": "ms"}}, "end-to-end line")
    try:
        result_line({**result, "end_to_end": {"a_ms": {"value": 1.0, "unit": "s"}}}, spec, False)
        expect(False, "unit mismatch is refused")
    except BenchError:
        pass
    try:
        result_line({**result, "end_to_end": {}}, spec, False)
        expect(False, "missing end-to-end metric is refused")
    except BenchError:
        pass
    for total, correct in ((10.1, True), (10.5, False), (9.5, False)):
        traced = {"workload": "churn_mixed",
                  "per_layer": {"trace.layer_sum_ms": {"value": total, "unit": "ms"},
                                "trace.latency_mean_ms": {"value": 10.0, "unit": "ms"}}}
        expect((layer_sum_violation(traced) is None) == correct,
               f"layer sum {total} vs mean 10.0")
    for failure in failures:
        log(f"selftest FAILED: {failure}")
    # The snapshot-delta arithmetic and span self-time folding live in C++.
    status = subprocess.run([str(binary), "--selftest"]).returncode
    if status != 0:
        log("selftest FAILED: optimus_e2e --selftest")
    ok = not failures and status == 0
    log("selftest ok" if ok else "selftest FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this optimus_e2e instead of building one")
    args = parser.parse_args()
    try:
        binary = Path(args.binary) if args.binary else build()
        if args.selftest:
            return selftest(binary)
        if args.smoke:
            return smoke(binary)
        spec = json.loads(SPEC_PATH.read_text())
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.repeat:
            return repeat(args, binary)
        if not args.workload:
            parser.error("--workload, --repeat, --selftest or --smoke is required")
        status, result = run_binary(binary, args.workload, args.seed, args.seconds,
                                    args.trace == 1)
        line = result_line(result, spec, args.trace == 1)
        print(json.dumps(line))
        return 0 if status == 0 and line["correct"] else 1
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"run.py: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
