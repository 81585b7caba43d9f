"""Checks BENCHMARK.json against the benchmark's naming and shape rules.

Run from the repository root:  python3 -m unittest discover -s e2ebench/tests
"""

import json
import os
import re
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def all_names(self):
        b = self.bench
        return [e["name"] for key in ("workloads", "end_to_end", "per_layer")
                for e in b[key]]

    def test_names_use_letters_digits_underscore_dot_dash(self):
        for name in self.all_names():
            self.assertRegex(name, NAME)

    def test_names_are_unique(self):
        names = self.all_names()
        self.assertEqual(len(names), len(set(names)))

    def test_entry_keys_and_units(self):
        b = self.bench
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in self.bench["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bounds.values()))

    def test_command_stays_inside_paths(self):
        b = self.bench
        self.assertEqual(b["command"][0], "python3")
        for arg in b["command"][1:]:
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
            self.assertTrue(any(arg.startswith(p + "/") for p in b["paths"]))


if __name__ == "__main__":
    unittest.main()
