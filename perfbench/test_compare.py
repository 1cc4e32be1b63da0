"""Tests for the benchmark's own logic: run with

    python3 perfbench/test_compare.py
"""

import copy
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402

SPEC = compare.load_spec(HERE.parent / "BENCHMARK.json")


def records(spec, scale=None):
    """Ten synthetic runs per workload, every metric near 100 with a small
    spread; `scale` maps (workload, metric) to a factor applied to it."""
    scale = scale or {}
    out = []
    for w in spec["workloads"]:
        for i in range(10):
            metrics = {}
            for m in spec["end_to_end"]:
                v = 100.0 * (1 + 0.01 * ((i % 5) - 2)) * scale.get((w["name"], m["name"]), 1.0)
                metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            out.append({"workload": w["name"], "metrics": metrics})
    return out


class CompareTest(unittest.TestCase):
    def test_flags_a_20_percent_regression_on_any_single_pair(self):
        base = records(SPEC)
        for w in SPEC["workloads"]:
            for m in SPEC["end_to_end"]:
                worse = 1.2 if m["better"] == "lower" else 0.8
                change = records(SPEC, {(w["name"], m["name"]): worse})
                flagged = compare.compare(base, change, SPEC)
                self.assertEqual([(f[0], f[1]) for f in flagged], [(w["name"], m["name"])],
                                 f"20% regression of {m['name']} on {w['name']}")

    def test_a_20_percent_improvement_is_not_flagged(self):
        base = records(SPEC)
        for m in SPEC["end_to_end"]:
            better = 0.8 if m["better"] == "lower" else 1.2
            change = records(SPEC, {(SPEC["workloads"][0]["name"], m["name"]): better})
            self.assertEqual(compare.compare(base, change, SPEC), [])

    def test_identical_result_sets_pass(self):
        base = records(SPEC)
        self.assertEqual(compare.compare(base, copy.deepcopy(base), SPEC), [])

    def test_a_missing_workload_is_flagged(self):
        base = records(SPEC)
        gone = SPEC["workloads"][0]["name"]
        change = [r for r in base if r["workload"] != gone]
        self.assertIn((gone, "*"), [(f[0], f[1]) for f in compare.compare(base, change, SPEC)])

    def test_spread_is_interquartile_distance_over_median(self):
        self.assertAlmostEqual(compare.spread([1.0] * 10), 0.0)
        values = [90.0, 95, 100, 105, 110, 100, 100, 100, 100, 100]
        q1, q2, q3 = compare.statistics.quantiles(values, n=4)
        self.assertAlmostEqual(compare.spread(values), (q3 - q1) / q2)


class NameTest(unittest.TestCase):
    BAD = ["svc fanin", "ops/s", "p99%", "lat:ms", "naïve", "", "-lead", ".lead", "_lead",
           "a" * 65, "tab\tname", "new\nline", "trailing\n", "quote\"d"]
    GOOD = ["svc-fanin", "stab_p99_ms", "sim.host_ms_per_sim_s.p50", "0day", "a" * 64]

    def test_rejects_names_outside_the_alphabet(self):
        for name in self.BAD:
            with self.assertRaises(compare.SpecError, msg=repr(name)):
                compare.check_name(name, "metric")

    def test_accepts_names_inside_the_alphabet(self):
        for name in self.GOOD:
            self.assertEqual(compare.check_name(name, "metric"), name)

    def test_spec_with_a_bad_workload_or_metric_name_is_rejected(self):
        for group in ("workloads", "end_to_end", "per_layer"):
            for name in ("svc fanin", "ops/s"):
                spec = copy.deepcopy(SPEC)
                spec[group][0]["name"] = name
                with self.assertRaises(compare.SpecError, msg=f"{group}: {name!r}"):
                    compare.validate_spec(spec)

    def test_duplicate_names_are_rejected(self):
        spec = copy.deepcopy(SPEC)
        spec["per_layer"][0]["name"] = spec["end_to_end"][0]["name"]
        with self.assertRaises(compare.SpecError):
            compare.validate_spec(spec)

    def test_benchmark_json_is_valid(self):
        self.assertEqual(compare.validate_spec(copy.deepcopy(SPEC)), SPEC)


if __name__ == "__main__":
    unittest.main()
