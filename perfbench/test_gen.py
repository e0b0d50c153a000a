"""Self-check of the seeded stream generator.

    python3 perfbench/test_gen.py
"""

import collections
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402

SEEDS = range(1, 11)
SECONDS = 25


def window(items):
    return [it for it in items if it["phase"] == "window"]


class Determinism(unittest.TestCase):
    def test_one_seed_one_stream(self):
        for workload in gen.WORKLOADS:
            a = "\n".join(it["line"] for it in gen.stream(workload, 7, SECONDS))
            b = "\n".join(it["line"] for it in gen.stream(workload, 7, SECONDS))
            self.assertEqual(a.encode(), b.encode(), workload)

    def test_seeds_differ(self):
        for workload in gen.WORKLOADS:
            lines = {tuple(it["line"] for it in gen.stream(workload, s, SECONDS)) for s in (1, 2)}
            self.assertEqual(len(lines), 2, workload)

    def test_lines_are_json_with_unique_ids(self):
        for workload in gen.WORKLOADS:
            items = gen.stream(workload, 3, SECONDS)
            ids = [it["id"] for it in items if it["id"] is not None]
            self.assertEqual(len(ids), len(set(ids)))
            for it in items:
                if it["expect"] == "ok":
                    self.assertEqual(json.loads(it["line"])["id"], it["id"])


class Mix(unittest.TestCase):
    def test_serve_mixed_holds_across_seeds(self):
        for seed in SEEDS:
            w = window(gen.stream("serve-mixed", seed, SECONDS))
            self.assertEqual(len(w), round(gen.MIXED_RATE * SECONDS))
            repeats = [it for it in w if it["repeat_of"] is not None]
            self.assertAlmostEqual(len(repeats) / len(w), gen.MIXED_REPEAT_SHARE, delta=0.01)
            self.assertTrue(any(it.get("v1") for it in repeats))
            self.assertTrue(any(not it.get("v1") for it in repeats))
            self.assertEqual(sum(it["expect"] == "bad_request" for it in w), gen.MIXED_MALFORMED)
            fresh = [it for it in w if it["repeat_of"] is None and it["expect"] == "ok"]
            kinds = collections.Counter(it["kind"] for it in fresh)
            for kind, share in gen.MIXED_FRESH_KINDS:
                self.assertAlmostEqual(kinds[kind] / len(fresh), share, delta=0.03, msg=kind)
            self.assertEqual({it["structure"] for it in fresh}, set(gen.MIXED_STRUCTURES))
            for it in repeats:
                orig = w[it["repeat_of"]]
                self.assertGreaterEqual(it["idx"] - orig["idx"], gen.MIXED_REPEAT_GAP)
                self.assertIsNone(orig["repeat_of"])

    def test_closed_loops_are_whole_cycles_without_repeats(self):
        for seed in SEEDS:
            for workload, per_cycle in (("design-sweep", 7), ("backend-parity", 2)):
                w = window(gen.stream(workload, seed, SECONDS))
                lines = [json.loads(it["line"]) for it in w]
                for obj in lines:
                    del obj["id"]
                self.assertEqual(len({json.dumps(o, sort_keys=True) for o in lines}), len(w))
                cycles = collections.Counter(it["cycle"] for it in w)
                self.assertEqual(set(cycles.values()), {per_cycle})

    def test_design_sweep_cycle_mix(self):
        for seed in SEEDS:
            w = window(gen.stream("design-sweep", seed, SECONDS))
            first = [it for it in w if it["cycle"] == 0]
            kinds = collections.Counter(
                (it["kind"], json.loads(it["line"])["params"].get("env")) for it in first)
            self.assertEqual(kinds, collections.Counter({
                ("analyze", None): 3, ("sigma", None): 1, ("sweep", None): 1,
                ("env", "bursty"): 1, ("env", "drift-cycle"): 1}))
            for it in w:
                self.assertEqual(it["grid"], gen.DEFAULT_GRID)
                self.assertEqual(it["backend"], "csr")

    def test_seed_moves_sigma_only_within_jitter(self):
        """Every seed sends the same kinds and structures in the same order,
        at sigma_w values within SEED_JITTER of each other."""
        for workload in gen.WORKLOADS:
            base = gen.stream(workload, 1, SECONDS)
            for seed in SEEDS:
                other = gen.stream(workload, seed, SECONDS)
                self.assertEqual(len(other), len(base))
                for a, b in zip(base, other):
                    self.assertEqual((a["kind"], a["grid"], a["backend"], a["phase"]),
                                     (b["kind"], b["grid"], b["backend"], b["phase"]))
                    if a["sigma"] is not None:
                        self.assertLessEqual(abs(a["sigma"] - b["sigma"]),
                                             2 * gen.SEED_JITTER + 1e-9)

    def test_backend_parity_pairs(self):
        for seed in SEEDS:
            w = window(gen.stream("backend-parity", seed, SECONDS))
            for a, b in zip(w[::2], w[1::2]):
                self.assertEqual(a["sigma"], b["sigma"])
                self.assertEqual({a["backend"], b["backend"]}, {"kron", "csr"})
            firsts = [it["backend"] for it in w[::2]]
            self.assertEqual(firsts[:4], ["kron", "csr", "kron", "csr"])


class Excluded(unittest.TestCase):
    def test_refuses_outliers(self):
        with self.assertRaises(gen.Excluded):
            gen.check_excluded("slip", gen.params_v2(grid=32, counter=4))
        with self.assertRaises(gen.Excluded):
            gen.check_excluded("slip", gen.params_v1(32, 0.07, 8, 4))
        with self.assertRaises(gen.Excluded):
            gen.check_excluded("env", gen.params_v2(grid=32, backend="kron", env="bursty"))
        with self.assertRaises(gen.Excluded):
            gen._item([], "slip", gen.params_v2(grid=32, phases=8, counter=4, sigma=0.07))
        gen.check_excluded("slip", gen.params_v2(grid=64, counter=4))
        gen.check_excluded("env", gen.params_v2(env="bursty"))

    def test_refuses_ascending_kron(self):
        items = []
        for s in (0.06, 0.061):
            gen._item(items, "analyze", gen.params_v2(sigma=s, backend="kron"), sigma=s)
        with self.assertRaises(gen.Excluded):
            gen.check_kron_order(items)

    def test_streams_never_emit_outliers(self):
        for workload in gen.WORKLOADS:
            for seed in SEEDS:
                items = gen.stream(workload, seed, SECONDS)
                gen.check_kron_order(items)
                for it in items:
                    if it["expect"] == "ok":
                        obj = json.loads(it["line"])
                        gen.check_excluded(obj["kind"], obj.get("params"))


if __name__ == "__main__":
    unittest.main()
