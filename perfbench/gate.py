"""Statistics and the correctness gate of the benchmark, kept free of I/O so
perfbench/test_gate.py can check them directly."""

import statistics

# Operation fields as the driver writes them: [key, ms, status, hash, bound, traced].
KEY, MS, STATUS, HASH, BOUND, TRACED = range(6)


def tail_percentile(samples):
    """The highest percentile (to 0.1) with at least ten samples beyond it.

    Returns (value, percentile, sample_count); nearest-rank percentiles.
    Needs at least eleven samples.
    """
    n = len(samples)
    if n < 11:
        raise ValueError(f"{n} samples: a tail needs at least 11")
    ordered = sorted(samples)
    tenths = (1000 * (n - 10)) // n          # percentile in tenths, rounded down
    rank = max(1, -(-tenths * n // 1000))    # nearest rank: ceil(p/100 * n)
    return ordered[rank - 1], tenths / 10, n


def load_refs(lines):
    """Reference table {(workload, key): hash} from "<workload> <key> <hash>" lines."""
    refs = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            refs[(parts[0], parts[1])] = parts[2]
    return refs


def failed_ops(workload, ops, refs):
    """Operations that failed: any status but "ok" (typed error, shed,
    transport failure, failed check) or a report fingerprint that differs
    from the reference recorded for the same input."""
    return [op for op in ops
            if op[STATUS] != "ok" or refs.get((workload, op[KEY])) != op[HASH]]


def end_to_end(run, untraced_ops):
    """End-to-end metrics of one untraced run (see BENCHMARK.json)."""
    ms = [op[MS] for op in untraced_ops]
    tail, percentile, count = tail_percentile(ms)
    bound = [op[BOUND] for op in untraced_ops if op[BOUND] >= 0]
    metrics = {
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": tail,
        "ops_per_s": len(ms) / run["phase_seconds"],
        "apps_bound": statistics.fmean(bound) if bound else 0.0,
        "setup_s": statistics.median(run["setup_seconds"]),
        "peak_rss_mib": run["peak_rss_kib"] / 1024,
    }
    return metrics, f"p{percentile:g} of {count} operations"
