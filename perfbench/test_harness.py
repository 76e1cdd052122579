"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import unittest

from harness import (
    Tracer,
    fail_counts,
    run_job,
    self_time_by_name,
    self_times,
    tail_percentile,
    valid_name,
)
from run import BENCH, WORKLOADS, constants_sections, load_refs, make_check, plan


def _expect(text: str):
    def check(code, out):
        if code != 0:
            return f"exit {code}"
        return None if out == text else "output differs from the reference"
    return check


def _py(code: str) -> list[str]:
    return [sys.executable, "-c", code]


class NameTest(unittest.TestCase):
    def test_accepts(self):
        for name in ("wall_s", "psido.root_s", "a-b.c_1", "9x", "x" * 64):
            self.assertTrue(valid_name(name), name)

    def test_rejects(self):
        for name in ("", "_x", ".x", "-x", "a b", "a/b", "x" * 65, "é", "a:b"):
            self.assertFalse(valid_name(name), name)

    def test_declared_metrics_are_valid(self):
        with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(valid_name(name), name)


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
        tr = Tracer(clock=lambda: next(ticks))
        with tr.span("job"):            # 0 .. 10
            with tr.span("a"):          # 1 .. 4
                with tr.span("b"):      # 2 .. 3
                    pass
            with tr.span("a"):          # 5 .. 9
                pass
        job, a1, b, a2 = tr.spans
        self.assertEqual((b.parent, a1.parent, a2.parent, job.parent), (a1.id, 0, 0, None))
        own = self_times(tr.spans)
        self.assertEqual(own, {job.id: 3.0, a1.id: 2.0, b.id: 1.0, a2.id: 4.0})
        self.assertEqual(self_time_by_name(tr.spans), {"job": 3.0, "a": 6.0, "b": 1.0})

    def test_span_closes_on_error(self):
        tr = Tracer()
        with self.assertRaises(KeyError):
            with tr.span("job"):
                raise KeyError("x")
        self.assertGreaterEqual(tr.spans[0].duration, 0.0)


class PercentileTest(unittest.TestCase):
    def test_needs_ten_beyond(self):
        self.assertIsNone(tail_percentile(range(10)))
        self.assertEqual(tail_percentile(range(1, 21)), (50.0, 10))
        self.assertEqual(tail_percentile(range(1, 101)), (90.0, 90))
        self.assertEqual(tail_percentile(range(1, 201)), (95.0, 190))
        self.assertEqual(tail_percentile(range(1, 1001)), (99.0, 990))
        self.assertEqual(tail_percentile(range(1, 10001)), (99.9, 9990))

    def test_unsorted_input(self):
        xs = list(range(1, 101))[::-1]
        self.assertEqual(tail_percentile(xs), (90.0, 90))


class FailureCountTest(unittest.TestCase):
    def test_paths(self):
        ok = run_job("ok", _py("print('x')"), 30, _expect("x\n"))
        mismatch = run_job("mismatch", _py("print('y')"), 30, _expect("x\n"))
        exit_code = run_job("exit", _py("import sys; print('x'); sys.exit(3)"), 30, _expect("x\n"))
        timeout = run_job("timeout", _py("import time; time.sleep(30)"), 0.5, _expect(""))
        self.assertTrue(ok.ok)
        self.assertEqual(mismatch.reason, "output differs from the reference")
        self.assertEqual(exit_code.reason, "exit 3")
        self.assertTrue(timeout.reason.startswith("timeout"))
        self.assertLess(timeout.wall_s, 10)
        self.assertEqual(fail_counts([ok, mismatch, exit_code, timeout]), (4, 3))

    def test_verify_gate(self):
        refs = load_refs()
        check = make_check({"argv": ["verify", "--r", "4", "--weight", "10"],
                            "check": "verify"}, refs)
        passing = "".join(f"line {i} PASS\n" for i in range(10))
        self.assertIsNone(check(0, passing))
        self.assertEqual(check(1, passing), "exit 1")
        self.assertTrue(check(0, passing.replace("line 3 PASS", "line 3 FAIL")).startswith("not"))
        self.assertIsNotNone(check(0, "line PASS\n"))

    def test_constants_sections_agree(self):
        text = "# sigma(c)\nsigma1 = c1\n# c(d)\nc1 = d1\nc2 = d2\n# d(c)\nd1 = c1\n"
        payload = {"sigma(c)": {"sigma1": "c2"}, "c(d)": {"c1": "d1", "c2": "d2"},
                   "d(c)": {"d1": "c1"}}
        self.assertEqual(constants_sections("text", text),
                         constants_sections("json", json.dumps(payload)))


class PlanTest(unittest.TestCase):
    def test_every_planned_job_has_a_reference(self):
        refs = load_refs()
        for workload in WORKLOADS:
            for seed in range(40):
                for job in plan(workload, seed):
                    make_check(job, refs)  # KeyError when a reference is missing

    def test_seed_fixes_the_plan(self):
        self.assertEqual(plan("large_r", 7), plan("large_r", 7))
        plans = {json.dumps(plan("large_r", s)) for s in range(20)}
        self.assertGreater(len(plans), 1)


if __name__ == "__main__":
    unittest.main()
