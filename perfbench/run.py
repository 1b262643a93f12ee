#!/usr/bin/env python3
"""End-to-end benchmark of sdfmap. Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test        # the benchmark's own checks
    python3 perfbench/run.py --record-refs      # re-record perfbench/refs.txt

Builds perfbench/ (and with it the sdfmap library) in Release mode under
.bench_build/, runs the driver, checks every operation's answer against the
reference fingerprints in perfbench/refs.txt, and prints a human-readable
summary followed by one JSON result line. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics from a traced pass.

Workloads (why each gated one was chosen is in BENCHMARK.json):
  multimedia_sec103  Sec. 10.3 use case; one allocate_sequence per operation,
                     fresh throughput cache, one caller, serial. The seed does
                     not change this fixed input. Not in BENCHMARK.json: its
                     ~80 operations of ~0.4 s per run put the tail at about
                     p87, which swings with the share of a run spent under
                     host contention. Run it by hand with --trace 1 for the
                     Sec. 10.3 slice-allocation share.
  table4_sweep       Tab. 4 protocol: sweeps of 5 cost functions x 4 sets x
                     3 sequences x 3 platforms, one shared cache per sweep,
                     one untimed warm-up sweep, then timed sweeps by one
                     closed-loop lane that moves to the next vCPU every 9
                     operations, so every run samples each vCPU's speed
                     equally. The traced pass adds one sweep on
                     nproc/2 lanes of the work-stealing pool for the
                     runtime.* metrics. The seed picks 16 of the 32
                     referenced sequences of each set; the sweeps cycle
                     through them.
  daemon_mix         in-process sdfmapd (2 workers) with two closed-loop
                     clients sending allocate, exact, throughput and lint
                     requests 1:1:2:2, equal shares per request frame type
                     (an assumed mix, not measured traffic). The seed
                     picks 32 of the 48 referenced generated applications
                     and draws the requests; the exact-solver corpus and
                     the platforms are fixed.

The seed changes the inputs only within the pools that perfbench/refs.txt
covers, so every answer can be checked against the report recorded for the
same input.

A traced run alternates untraced and traced operations (or sweeps, or client
rounds), so trace.overhead_ms compares operations timed under the same host
load. perfbench/baseline.py records the committed baseline.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUNS_DIR = os.path.join(BUILD_DIR, "runs")
DRIVER = os.path.join(BUILD_DIR, "perfbench")
REFS = os.path.join(HERE, "refs.txt")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; the build is a no-op when current."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isfile("src/mapping/strategy.h")):
        fail("the sdfmap sources are not here; run from the repository root")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
                        *generator], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    os.makedirs(RUNS_DIR, exist_ok=True)


def run_driver(args):
    subprocess.run([DRIVER, *args], check=True, timeout=DRIVER_TIMEOUT_S)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def print_table(title, rows):
    print(title)
    for name, value, unit, extra in rows:
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {extra}")


def measure(opts):
    spec = load_spec()
    tag = f"{opts.workload}-{opts.seed}-{opts.trace}"
    out = os.path.join(RUNS_DIR, tag + ".json")
    driver_args = ["--workload", opts.workload, "--seed", str(opts.seed),
                   "--seconds", str(opts.seconds), "--trace", str(opts.trace),
                   "--out", out, "--scratch", RUNS_DIR]
    if opts.trace:
        driver_args += ["--spans", os.path.join(RUNS_DIR, tag + ".spans.json")]
    run_driver(driver_args)
    with open(out) as f:
        run = json.load(f)
    with open(REFS) as f:
        refs = gate.load_refs(f)

    ops = run["ops"]
    if not ops:
        fail("the run completed no operation")
    failed = gate.failed_ops(opts.workload, ops, refs)
    untraced = [op for op in ops if not op[gate.TRACED]]
    correct = not failed and not run["check_failures"]

    host = run["host"]
    print(f"perfbench {opts.workload} seed {opts.seed} trace {opts.trace}: "
          f"{host['nproc']} hardware threads, {host['compiler']}, {host['build_type']} build")
    if opts.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(run["layers"]) - set(units))
        if unknown:
            fail(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        # A layer the workload does not exercise did no work.
        values = {name: run["layers"].get(name, 0.0) for name in units}
        print_table("per-layer metrics (traced pass)",
                    [(n, values[n], units[n], "") for n in units])
    else:
        values, tail_note = gate.end_to_end(run, untraced)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            fail(f"end-to-end metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
        print_table("end-to-end metrics",
                    [(n, values[n], units[n], tail_note if n == "latency_tail_ms" else "")
                     for n in units])
    print(f"  fail_ratio {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} operations)")
    for note in run["notes"]:
        print(f"  note: {note}")
    for failure in run["check_failures"]:
        print(f"  CHECK FAILED: {failure}")
    for op in failed[:5]:
        print(f"  FAILED operation {op[gate.KEY]}: status {op[gate.STATUS]}, hash {op[gate.HASH]}")

    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))


def self_test():
    run_driver(["--self-test"])
    tests = subprocess.run([sys.executable, "-B", os.path.join(HERE, "test_gate.py")])
    sys.exit(tests.returncode)


def record_refs():
    started = time.monotonic()
    run_driver(["--record-refs", REFS])
    print(f"recorded {REFS} in {time.monotonic() - started:.1f} s", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["multimedia_sec103", "table4_sweep", "daemon_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-refs", action="store_true")
    opts = parser.parse_args()
    if not (opts.workload or opts.self_test or opts.record_refs):
        parser.error("one of --workload, --self-test, --record-refs is required")
    try:
        if opts.seconds is None:
            opts.seconds = load_spec()["run_seconds"]
        build()
        if opts.self_test:
            self_test()
        elif opts.record_refs:
            record_refs()
        else:
            measure(opts)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        fail(str(e))


if __name__ == "__main__":
    main()
