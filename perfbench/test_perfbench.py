"""Self-tests of the benchmark's helpers.

    python3 -m pytest -q perfbench
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Span, tail, self_times  # noqa: E402


class TailRule(unittest.TestCase):
    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(tail(list(range(10))))

    def test_eleven_samples_give_the_minimum(self):
        pct, value = tail(list(range(11, 0, -1)))
        self.assertAlmostEqual(pct, 100.0 / 11)
        self.assertEqual(value, 1)

    def test_exactly_ten_samples_beyond(self):
        for n in (11, 37, 100, 1000):
            samples = [(7 * i) % n for i in range(n)]  # a permutation of 0..n-1
            pct, value = tail(samples)
            self.assertEqual(sum(s > value for s in samples), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)


class SelfTime(unittest.TestCase):
    def test_overlapping_children_are_subtracted_once(self):
        spans = [Span("stage:a", 0.0, 10.0, None, "r"),
                 Span("m.f", 1.0, 4.0, 0, "r"),
                 Span("m.g", 3.0, 6.0, 0, "r"),
                 Span("m.h", 8.0, 12.0, 0, "r")]  # runs past its parent's end
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 5.0 - 2.0)
        self.assertEqual(own[1:], [3.0, 3.0, 4.0])

    def test_nested_child_inside_sibling(self):
        spans = [Span("stage:a", 0.0, 4.0, None, "r"),
                 Span("m.f", 0.5, 3.5, 0, "r"),
                 Span("m.g", 1.0, 2.0, 0, "r")]
        self.assertAlmostEqual(self_times(spans)[0], 1.0)

    def test_layer_metric_is_zero_where_a_module_does_no_work(self):
        class Wl:
            synth_frames = 0
        spans = [Span("irls.run_irls", 0.0, 2.0, None, "pass-1"),
                 Span("irls.run_irls", 0.0, 4.0, None, "pass-3")]
        layers = run.layer_metrics(Wl(), spans, {"irls.iterations": 10}, 15)
        self.assertEqual(layers["irls.calls"], 1.0)
        self.assertAlmostEqual(layers["irls.busy_s"], 3.0)
        self.assertAlmostEqual(layers["irls.ms_per_iter"], 300.0)
        self.assertEqual(layers["unfolded.infer_s"], 0.0)
        self.assertEqual(layers["svdfilt.low_cut"], 0.0)


class MetricDirections(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_matches_the_benchmark(self):
        listed = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in self.bench["end_to_end"]}
        self.assertEqual(listed, run.END_TO_END)

    def test_per_layer_matches_the_benchmark(self):
        listed = {m["name"]: (m["unit"], m["better"]) for m in self.bench["per_layer"]}
        self.assertEqual(listed, run.per_layer_units())

    def test_directions_and_bounds(self):
        for name, (unit, better, bound) in run.END_TO_END.items():
            expected = "higher" if unit.endswith("/s") else "lower"
            self.assertEqual(better, expected, name)
            self.assertTrue(0 < bound <= 0.25, name)
        bounds = [b for _, _, b in run.END_TO_END.values()]
        self.assertEqual(run.END_TO_END["setup_s"][2], max(bounds))
        for name, (unit, better) in run.per_layer_units().items():
            self.assertEqual(better, "higher" if unit.endswith("/s") else "lower", name)


class InputHashes(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(HERE.parent / "src"))
        import workloads
        from tracer import Tracer
        cls.w = workloads
        cls.tr = Tracer(False)

    def test_equal_seeds_give_equal_inputs(self):
        for name in ("recovery", "desk"):
            wl = self.w.WORKLOADS[name]
            self.assertEqual(wl.setup(3, self.tr)[1], wl.setup(3, self.tr)[1], name)
            self.assertNotEqual(wl.setup(3, self.tr)[1], wl.setup(4, self.tr)[1], name)

    def test_desk_parameters_hash_is_pinned(self):
        self.assertEqual(self.w.WORKLOADS["desk"].setup(0, self.tr)[1],
                         "e8d740f7a647dfebe23ee6f38b3335039b07c894a348c2e9c83f2ed45275cc76")


if __name__ == "__main__":
    unittest.main()
