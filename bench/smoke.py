"""Smoke tests for the benchmark itself, at tiny sizes (p_n(5), search_M(4),
a 20-request mix).  From the repository root:

    python3 bench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run
import speed
import tracing
import workloads

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "sorting_networks": {"n": 5},
    "class_search": {"k": 4, "labels": [2, 3, 4, "inf"], "max_rank": 4},
    "query_mix": {"requests": 20},
}


def bench(workload, trace, seed=7):
    """Run the benchmark in this process at tiny size; (exit code, result)."""
    out = io.StringIO()
    with mock.patch.dict(workloads.SPECS, TINY), contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.5", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_reported_with_its_unit(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.SPECS))
        for workload in names:
            for trace, listed in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in listed}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_untouched_layers_read_zero_calls(self):
        _code, result = bench("sorting_networks", 1)
        metrics = result["metrics"]
        self.assertGreater(metrics["reduced.count.calls"]["value"], 0)
        self.assertEqual(metrics["poset.adjoin_min.calls"]["value"], 0)
        self.assertEqual(metrics["cli.run.calls"]["value"], 0)

    def test_same_seed_same_inputs(self):
        first = workloads.make_requests(3, 40)
        self.assertEqual(workloads.digest(first), workloads.digest(workloads.make_requests(3, 40)))
        self.assertNotEqual(workloads.digest(first),
                            workloads.digest(workloads.make_requests(4, 40)))


class CorruptedReference(unittest.TestCase):
    def assert_reported_failed(self, workload):
        code, result = bench(workload, 0)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_wrong_p_n(self):
        with mock.patch.dict(workloads.P_N, {5: 63}):
            self.assert_reported_failed("sorting_networks")

    def test_wrong_m_k(self):
        with mock.patch.dict(workloads.M_K, {4: 3}):
            self.assert_reported_failed("class_search")

    def test_wrong_oracle_class_count(self):
        closure = workloads.Reference._closure

        def off_by_one(self, name, word):
            seen, classes, comp = closure(self, name, word)
            return seen, classes + 1, comp

        with mock.patch.object(workloads.Reference, "_closure", off_by_one):
            self.assert_reported_failed("query_mix")


class Tracing(unittest.TestCase):
    def test_recursion_is_not_counted_twice(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: next(ticks))

        def depth(n):
            return 0 if n == 0 else traced(n - 1)

        traced = tracer.wrap("reduced.count", depth)
        traced(2)
        calls, inclusive, self_s = tracer.stats["reduced.count"]
        self.assertEqual((calls, inclusive, self_s), (3, 5, 5))

    def test_missing_binding_fails_loudly(self):
        sys.path.insert(0, str(ROOT / "src"))
        from wordposets import reduced

        with mock.patch.object(reduced, "inverse_columns", lambda graph, word: None):
            with self.assertRaises(tracing.TracingError):
                tracing.Tracer().install()
        self.assertFalse(hasattr(reduced.ClassCounter.count, "__wrapped__"))


class SpeedNormalization(unittest.TestCase):
    def test_a_slow_phase_cancels_out(self):
        # the same work twice: in a phase where everything runs 1.4x slower,
        # the operation and the probes inside it both take 1.4x as long
        ref = speed.REF_PROBE_S
        durations = [ref] * 20 + [1.4 * ref] * 20
        fast, slow = speed.normalize([(1.0, 0, 20), (1.4, 20, 40)], durations)
        self.assertAlmostEqual(fast, 1.0)
        self.assertAlmostEqual(slow, 1.0)

    def test_slower_code_still_reads_slower(self):
        durations = [2 * speed.REF_PROBE_S] * 40
        one, two = speed.normalize([(1.0, 0, 20), (2.0, 20, 40)], durations)
        self.assertAlmostEqual(two / one, 2.0)

    def test_short_operations_share_their_neighbours_probes(self):
        ref = speed.REF_PROBE_S
        durations = [ref] * speed.GROUP_PROBES + [ref / 2] * 3
        ops = [(0.01, 0, 0), (0.02, 0, speed.GROUP_PROBES),
               (0.03, speed.GROUP_PROBES, speed.GROUP_PROBES + 3)]
        out = speed.normalize(ops, durations)
        # one group: the tail's three probes are too few to stand alone
        factor = ref * (speed.GROUP_PROBES / ref + 3 * 2 / ref) / (speed.GROUP_PROBES + 3)
        for got, (net, _first, _end) in zip(out, ops):
            self.assertAlmostEqual(got, net * factor)


class WithoutPackage(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        bare = BENCH_DIR / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "sorting_networks",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
