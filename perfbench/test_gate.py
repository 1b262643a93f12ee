"""Self-tests of the benchmark's statistics and correctness gate.

    python3 perfbench/test_gate.py

The driver-side half (report fingerprints, outcome classification) runs with
`perfbench --self-test`; `python3 perfbench/run.py --self-test` runs both.
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gate  # noqa: E402


def op(key, status="ok", digest="aa", ms=1.0, bound=-1, traced=0):
    return [key, ms, status, digest, bound, traced]


class TailPercentileTest(unittest.TestCase):
    def test_leaves_at_least_ten_samples_beyond(self):
        for n in (11, 12, 19, 20, 31, 100, 370, 1000, 6001):
            samples = list(range(1, n + 1))
            value, percentile, count = gate.tail_percentile(samples)
            self.assertEqual(count, n)
            beyond = sum(1 for s in samples if s > value)
            self.assertGreaterEqual(beyond, 10, n)
            # One step (0.1) higher, the nearest rank leaves fewer than ten beyond.
            higher_rank = -(-(round(percentile * 10) + 1) * n // 1000)
            self.assertLess(n - higher_rank, 10, n)

    def test_known_values(self):
        self.assertEqual(gate.tail_percentile(list(range(1, 101))), (90, 90.0, 100))
        self.assertEqual(gate.tail_percentile(list(range(1, 1001))), (990, 99.0, 1000))
        value, percentile, _ = gate.tail_percentile(list(range(1, 33)))
        self.assertEqual((value, percentile), (22, 68.7))

    def test_order_does_not_matter(self):
        self.assertEqual(gate.tail_percentile([5, 1, 4, 2, 3] * 4),
                         gate.tail_percentile(sorted([5, 1, 4, 2, 3] * 4)))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            gate.tail_percentile(list(range(10)))


class CorrectnessGateTest(unittest.TestCase):
    refs = {("w", "a"): "1111", ("w", "b"): "2222"}

    def test_matching_reports_pass(self):
        self.assertEqual(gate.failed_ops("w", [op("a", digest="1111"), op("b", digest="2222")],
                                         self.refs), [])

    def test_perturbed_report_fails(self):
        perturbed = op("a", digest="1112")
        self.assertEqual(gate.failed_ops("w", [perturbed, op("b", digest="2222")], self.refs),
                         [perturbed])

    def test_unknown_input_fails(self):
        self.assertEqual(len(gate.failed_ops("w", [op("c", digest="1111")], self.refs)), 1)

    def test_shed_and_transport_count_as_failures(self):
        ops = [op("a", digest="1111"), op("a", status="shed", digest=""),
               op("b", status="transport", digest=""), op("b", status="error", digest=""),
               op("b", status="wrong", digest="2222")]
        failed = gate.failed_ops("w", ops, self.refs)
        self.assertEqual([o[gate.STATUS] for o in failed], ["shed", "transport", "error", "wrong"])
        self.assertAlmostEqual(len(failed) / len(ops), 0.8)

    def test_load_refs(self):
        self.assertEqual(gate.load_refs(["w a 1111\n", "\n", "w b 2222\n"]), self.refs)


class EndToEndTest(unittest.TestCase):
    def test_metrics(self):
        ops = [op(str(i), ms=float(i), bound=i % 3) for i in range(1, 21)]
        run = {"phase_seconds": 4.0, "setup_seconds": [0.3, 0.1, 0.2], "peak_rss_kib": 2048}
        metrics, note = gate.end_to_end(run, ops)
        self.assertEqual(metrics["latency_p50_ms"], 10.5)
        self.assertEqual(metrics["latency_tail_ms"], 10)
        self.assertEqual(metrics["ops_per_s"], 5.0)
        self.assertEqual(metrics["setup_s"], 0.2)
        self.assertEqual(metrics["peak_rss_mib"], 2.0)
        self.assertAlmostEqual(metrics["apps_bound"], sum(i % 3 for i in range(1, 21)) / 20)
        self.assertEqual(note, "p50 of 20 operations")


if __name__ == "__main__":
    unittest.main()
