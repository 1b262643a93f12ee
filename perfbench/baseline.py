#!/usr/bin/env python3
"""Records the benchmark's committed baseline, perfbench/baseline.json.

    python3 perfbench/baseline.py [--seeds 101-110] [--held-out 7919]
                                  [--workloads a,b] [--out perfbench/baseline.json]

Run from the repository root. For every workload of BENCHMARK.json it runs
perfbench/run.py untraced once per seed, one traced run on the first seed,
and one untraced run on a held-out seed that was not used while the
workloads were tuned. Workloads of run.py that BENCHMARK.json does not gate
(multimedia_sec103) get one traced run, for their per-layer figures.

Per end-to-end metric it records the median, the quartiles and their
distance as a share of the median (the spread), and checks each spread
against the metric's bound. setup_s's spread is recorded but not checked:
its bound limits how much its median may worsen between commits. It exits
1 if a run fails, an answer is wrong, or a checked spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gate  # noqa: E402

RUNS_DIR = os.path.join(".bench_build", "runs")
# Its tail swings with host contention, so BENCHMARK.json does not gate it.
TRACED_ONLY = ["multimedia_sec103"]
# Set-up repeats a few tens of milliseconds of work, so host load moves its
# run-to-run spread; its bound applies to its median.
UNCHECKED_SPREADS = {"setup_s"}


def seed_list(text):
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def run(workload, seed, seconds, trace):
    """One benchmark run: its result line and the driver's run record."""
    out = subprocess.run([sys.executable, "-B", "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(RUNS_DIR, f"{workload}-{seed}-{trace}.json")) as f:
        record = json.load(f)
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: wrong answers\n{out.stdout[-2000:]}")
    return result, record


def values_of(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("101-110"))
    parser.add_argument("--held-out", type=int, default=7919)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="perfbench/baseline.json")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in spec["workloads"]]

    baseline = {"host": None, "run_seconds": seconds, "seeds": opts.seeds,
                "held_out_seed": opts.held_out, "workloads": {}}
    steady = True
    for workload in workloads:
        per_metric = {}
        attempted = 0
        for seed in opts.seeds:
            result, record = run(workload, seed, seconds, 0)
            baseline["host"] = dict(record["host"], seed_range=[opts.seeds[0], opts.seeds[-1]])
            attempted += result["attempted"]
            for name, value in values_of(result).items():
                per_metric.setdefault(name, []).append(value)
        entry = {"operations": attempted, "end_to_end": {}}
        print(f"== {workload}: {len(opts.seeds)} runs of {seconds} s, {attempted} operations")
        for name, values in per_metric.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread <= bounds[name] or name in UNCHECKED_SPREADS
            steady &= ok
            entry["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3,
                                         "spread": round(spread, 4), "bound": bounds[name]}
            print(f"  {name:<18} median {median:<12.6g} spread {spread:.4f} "
                  f"(bound {bounds[name]}) "
                  f"{'not checked' if name in UNCHECKED_SPREADS else 'ok' if ok else 'OVER BOUND'}")
        held_out, record = run(workload, opts.held_out, seconds, 0)
        entry["held_out"] = values_of(held_out)
        untraced = [op for op in record["ops"] if not op[gate.TRACED]]
        entry["held_out"]["latency_tail"] = gate.end_to_end(record, untraced)[1]
        traced, record = run(workload, opts.seeds[0], seconds, 1)
        entry["per_layer"] = values_of(traced)
        entry["notes"] = record["notes"]
        baseline["workloads"][workload] = entry

    for workload in TRACED_ONLY:
        traced, record = run(workload, opts.seeds[0], seconds, 1)
        baseline["workloads"][workload] = {"per_layer": values_of(traced), "notes": record["notes"]}

    with open(opts.out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    print(f"wrote {opts.out}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
