"""Self-tests of the MAPP benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The logic tests need nothing built. The smoke tests build the program
(as run.py does) and run every workload on a tiny budget."""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402
import run  # noqa: E402

BAGS = [("FAST@20", "FAST@20"), ("FAST@20", "SIFT@20"), ("SIFT@40", "SIFT@40"),
        ("SIFT@20", "SIFT@20")]
MEMBERS = ["FAST@20", "FAST@40", "SIFT@20", "SIFT@40", "KNN@80"]
FEATURES = {m: [0.001 * (i + 1), 0.002 * (i + 1)] + [i + 0.5] * 11
            for i, m in enumerate(MEMBERS)}


class Statistics(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(bl.percentile([3, 1, 2], 50), 2)
        self.assertEqual(bl.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(bl.percentile(list(range(101)), 99), 99)
        self.assertAlmostEqual(bl.percentile([0, 10], 90), 9)
        self.assertEqual(bl.percentile([5], 99), 5)
        with self.assertRaises(ValueError):
            bl.percentile([], 50)

    def test_failed_requests_push_the_tail_to_infinity(self):
        lat = [1.0] * 98 + [float("inf")] * 2
        self.assertEqual(bl.percentile(lat, 99), float("inf"))
        self.assertEqual(bl.median(lat), 1.0)


class LatencyLimit(unittest.TestCase):
    def test_limit_is_on_p99_and_inclusive(self):
        ok = [1.0] * 99 + [5.0]
        self.assertTrue(bl.meets_limit(ok, 0, 100))
        self.assertFalse(bl.meets_limit([1.0] * 90 + [5.1] * 10, 0, 100))

    def test_any_failure_misses_the_limit(self):
        self.assertFalse(bl.meets_limit([1.0] * 100, 1, 100))
        self.assertFalse(bl.meets_limit([], 0, 100))

    def test_one_stalled_window_does_not_set_the_tail(self):
        calm = [1.0] * 100
        stalled = [1.0] * 50 + [20.0] * 50
        self.assertEqual(bl.windowed(calm * 2 + stalled, 100, 99), 1.0)
        self.assertEqual(bl.windowed(calm + stalled * 2, 100, 99), 20.0)
        self.assertFalse(bl.meets_limit(calm + stalled * 2, 0, 100))
        # Less than a window: the plain percentile of everything.
        self.assertEqual(bl.windowed([1.0, 3.0], 100, 50), 2.0)


class Ladder(unittest.TestCase):
    def test_finds_the_highest_passing_rung(self):
        for knee in bl.LADDER_RPS:
            probed = []

            def passes(rate):
                probed.append(rate)
                return rate <= knee
            best, seen = bl.ladder_max(passes)
            self.assertEqual(best, knee)
            self.assertLessEqual(len(probed), 4)  # bisection, not a sweep
            self.assertEqual(set(seen), set(probed))

    def test_none_when_no_rung_passes(self):
        self.assertEqual(bl.ladder_max(lambda r: False)[0], None)
        self.assertEqual(bl.ladder_max(lambda r: True)[0], bl.LADDER_RPS[-1])


class SeededInputs(unittest.TestCase):
    def test_warm_panel_is_a_function_of_the_seed(self):
        a = bl.warm_panel(7, BAGS, MEMBERS, 500)
        self.assertEqual(a, bl.warm_panel(7, BAGS, MEMBERS, 500))
        self.assertNotEqual(a, bl.warm_panel(8, BAGS, MEMBERS, 500))

    def test_warm_panel_mix_and_lap_reset(self):
        panel = bl.warm_panel(3, BAGS, MEMBERS, 2000)
        kinds = [e[0] for e in panel]
        self.assertAlmostEqual(kinds.count("miss") / kinds.count("hit"),
                               1 / 4, delta=0.05)
        seen = {bl.canonical(*b) for b in BAGS}
        lap = set()
        for entry in panel:
            if entry[0] == "reset":
                lap = set()
            elif entry[0] == "miss":
                self.assertNotIn(entry[1:], seen)
                self.assertNotIn(entry[1:], lap)  # unseen within a lap
                self.assertEqual(entry[1:], bl.canonical(*entry[1:]))
                lap.add(entry[1:])
            else:
                self.assertIn(entry[1:], BAGS)

    def test_fresh_misses_share_no_member(self):
        misses = bl.fresh_misses(1, BAGS, MEMBERS, 10)
        used = [m for bag in misses for m in bag]
        self.assertEqual(len(used), len(set(used)))
        self.assertTrue(misses)

    def test_serve_stream_is_byte_identical_per_seed(self):
        def stream(seed):
            bodies, rows, spans, kinds = bl.serve_pool(seed, BAGS, FEATURES)
            sched = bl.serve_schedule(seed, kinds, 3000, "lo")
            return "\n".join(bodies + rows + [str(i) for i in sched])
        self.assertEqual(stream(5), stream(5))
        self.assertNotEqual(stream(5), stream(6))

    def test_serve_pool_rows_round_trip_and_mix(self):
        bodies, rows, spans, kinds = bl.serve_pool(2, BAGS, FEATURES)
        for body, (s, e), kind in zip(bodies, spans, kinds):
            req = json.loads('{"id":"0",' + body)
            if kind == "batch":
                self.assertEqual(len(req["queries"]), bl.BATCH_ROWS)
                self.assertEqual(e - s, bl.BATCH_ROWS)
            elif kind == "raw":
                # The oracle row carries exactly the doubles on the wire.
                nums = [float(x) for x in rows[s].split()[1:]]
                self.assertEqual(nums[0], req["a"]["cpu_time"])
                self.assertEqual(nums[-1], req["fairness"])
        sched = bl.serve_schedule(2, kinds, 20000, "hi")
        share = [sum(kinds[i] == k for i in sched) / len(sched)
                 for k in ("raw", "member", "batch")]
        for got, want in zip(share, bl.SERVE_MIX):
            self.assertAlmostEqual(got, want, delta=0.02)

    def test_tree_digest_sees_names_and_bytes(self):
        d = os.path.join(run.WORK, "test-digest")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(os.path.join(d, "k"))
        with open(os.path.join(d, "k", "a"), "w") as f:
            f.write("x")
        first = bl.tree_digest(d)
        os.rename(os.path.join(d, "k", "a"), os.path.join(d, "k", "b"))
        self.assertNotEqual(first, bl.tree_digest(d))
        shutil.rmtree(d)


def bench(*args):
    p = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                        "--seed", "1", "--seconds", "1", "--smoke", *args],
                       cwd=run.ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        raise AssertionError(p.stderr)
    return json.loads(p.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    """Tiny-budget runs of every workload and of the traced run."""

    def test_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                r = bench("--workload", workload, "--trace", "0")
                self.assertEqual((r["correct"], r["failed"]), (True, 0))
                self.assertGreater(r["attempted"], 0)
                self.assertEqual(set(r["metrics"]),
                                 {"setup_s", "p50_ms", "peak_rss_mb"})

    def test_traced_run_reports_every_layer(self):
        r = bench("--workload", "serve_lo", "--trace", "1")
        self.assertTrue(r["correct"])
        self.assertEqual(set(r["metrics"]), set(run.LAYERS))

    def test_campaign_pin_holds_at_one_and_two_lanes(self):
        run.build()
        for lanes in (1, 2):
            d = os.path.join(run.WORK, "test-lanes%d" % lanes)
            shutil.rmtree(d, ignore_errors=True)
            p = run.run([run.MAPP_CLI, "--log-level=quiet",
                         "--threads=%d" % lanes, "--cache-dir=" + d, "loocv"])
            self.assertEqual(run.loocv_table(p.out), run.LOOCV_TABLE)
            self.assertEqual(run.campaign_info(d, run.WORK)["hash"],
                             run.CAMPAIGN_HASH)
            shutil.rmtree(d)


if __name__ == "__main__":
    unittest.main()
