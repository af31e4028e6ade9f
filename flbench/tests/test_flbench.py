"""Self-tests of the benchmark: statistics helpers, the generator's byte
counters and /proc readers, a toy-size run of every workload through the
correctness gate, and the gate's negative control.

    python3 -m unittest discover -s flbench/tests -v
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
import benchlib as bl  # noqa: E402
import run  # noqa: E402


def run_bench(workload, trace=0, *extra):
    r = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                        "--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", str(trace), "--toy",
                        *extra],
                       capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if lines else None), r.stderr


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(bl.median([3, 1, 2]), 2)
        self.assertEqual(bl.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            bl.median([])

    def test_percentile_interpolates(self):
        v = list(range(1, 11))  # 1..10
        self.assertEqual(bl.percentile(v, 0), 1)
        self.assertEqual(bl.percentile(v, 100), 10)
        self.assertAlmostEqual(bl.percentile(v, 90), 9.1)
        self.assertAlmostEqual(bl.percentile(v, 50), bl.median(v))
        self.assertEqual(bl.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            bl.percentile(v, 101)

    def test_median_or_zero(self):
        self.assertEqual(bl.median_or_zero([]), 0.0)
        self.assertEqual(bl.median_or_zero([5.0]), 5.0)

    def test_derive_seed_is_stable_and_spread(self):
        a = bl.derive_seed("flat_tcp", 1, 0)
        self.assertEqual(a, bl.derive_seed("flat_tcp", 1, 0))
        self.assertNotEqual(a, bl.derive_seed("flat_tcp", 1, 1))
        self.assertNotEqual(a, bl.derive_seed("flat_tcp", 2, 0))
        self.assertTrue(1 <= a < 2**31)

    def test_parsers(self):
        kv = bl.parse_kv_lines(["listening-on: 4242", "weights-crc32: 00ab",
                                "metric             value",
                                "weights-crc32: ffff"])
        self.assertEqual(kv, {"listening-on": "4242",
                              "weights-crc32": "00ab"})
        self.assertEqual(bl.parse_udp_fec(
            "datagrams-sent=10 datagrams-lost=2 parity-bytes=99"),
            {"datagrams-sent": 10, "datagrams-lost": 2, "parity-bytes": 99})
        self.assertEqual(bl.find_counter(
            {"counters": {"comm.delivered_updates": 7}},
            "comm.delivered_updates"), 7)
        self.assertIsNone(bl.find_counter({"a": [1, {"b": 2}]}, "c"))


class ProcReaderTest(unittest.TestCase):
    def test_proc_cpu_s(self):
        c0 = bl.proc_cpu_s(os.getpid())
        t0 = time.process_time()
        while time.process_time() - t0 < 0.3:
            pass
        c1 = bl.proc_cpu_s(os.getpid())
        self.assertGreater(c1 - c0, 0.2)
        self.assertLess(c1 - c0, 1.0)
        self.assertIsNone(bl.proc_cpu_s(2**22 + 1))  # above pid_max

    def test_pty_lines_arrive_when_printed(self):
        # A program that does not flush a pipe still delivers each line on
        # time through a pseudo-terminal: the timing flsim's run relies on.
        prog = ("import sys, time; sys.stdout.write('run-config: x\\n'); "
                "time.sleep(0.3); print('done')")
        with tempfile.TemporaryDirectory() as d:
            p = run.Proc([sys.executable, "-c", prog], d, "run-config:",
                         use_pty=True)
            self.assertTrue(p.wait_ready(10))
            self.assertEqual(p.reap(10), 0)
        gap = p.first_line_after_ready() - p.ready_s
        self.assertGreater(gap, 0.25)
        self.assertLess(gap, 1.0)
        self.assertEqual(p.text(), ["run-config: x", "done"])
        self.assertIsNotNone(p.ready_cpu_s)

    def test_reaped_cpu_and_peak_rss(self):
        # Kernel accounting at reap: 64 MiB touched and 0.3 s of CPU.
        prog = ("import time; b = bytearray(64 << 20); print('ready');"
                "t = time.process_time()\n"
                "while time.process_time() - t < 0.3: pass")
        with tempfile.TemporaryDirectory() as d:
            p = run.Proc([sys.executable, "-c", prog], d, "ready")
            self.assertEqual(p.reap(10), 0)
        self.assertGreater(p.peak_rss_mb(), 64)
        self.assertGreater(p.cpu_s(), 0.3)


class LedgerTest(unittest.TestCase):
    def write(self, d, doc):
        with open(os.path.join(d, "metrics.json"), "w") as f:
            json.dump(doc, f)

    def test_missing_or_partial_ledger_is_none(self):
        # A session without the ledger fails; it must never read as full
        # delivery.
        full = {"comm.attempted_updates": 6, "comm.delivered_updates": 5,
                "comm.upload_bytes": 100, "comm.download_bytes": 300}
        with tempfile.TemporaryDirectory() as d:
            self.assertIsNone(run.ledger(d))
            self.write(d, {"counters": {"comm.delivered_updates": 5}})
            self.assertIsNone(run.ledger(d))
            self.write(d, {"counters": dict(full,
                                            **{"comm.attempted_updates": 0})})
            self.assertIsNone(run.ledger(d))
            self.write(d, {"counters": full})
            self.assertEqual(run.ledger(d), {"selected": 6, "delivered": 5,
                                             "up_bytes": 100,
                                             "down_bytes": 300})


class EndToEndTest(unittest.TestCase):
    @staticmethod
    def session(acc, up, train_s, steal=0.0):
        return {"setup_s": 0.1, "round_samples": [train_s / 4],
                "steady_rounds": 3, "rounds": 4, "train_s": train_s,
                "accuracy": acc, "up_bytes": up, "down_bytes": 2 * up,
                "selected": 10, "delivered": 9, "steady_cpu_s": 0.3,
                "peak_rss_mb": 20.0, "steal": steal}

    def test_wall_clock_metrics_skip_sessions_the_host_stole_from(self):
        quiet = [self.session(0.5, 400, 1.0, 0.01),
                 self.session(0.5, 400, 1.2, 0.025)]
        hit = [self.session(0.5, 400, 3.0, 0.15)] * 2
        m = run.end_to_end(quiet + hit, quiet + hit, [])
        self.assertAlmostEqual(m["train_s"], 1.1)
        self.assertAlmostEqual(m["round_s"], 1.1 / 4)
        self.assertAlmostEqual(m["cpu_s_per_round"], 0.1)  # every session
        # With every session hit alike, every session counts.
        m = run.end_to_end(hit, hit, [])
        self.assertEqual(m["train_s"], 3.0)

    def test_deterministic_metrics_use_only_the_fixed_sessions(self):
        fixed = [self.session(0.5, 400, 1.0), self.session(0.7, 800, 1.0)]
        extra = [self.session(0.1, 4000, 2.0)] * 3
        m = run.end_to_end(fixed + extra, fixed, [])
        self.assertAlmostEqual(m["final_accuracy"], 0.6)
        self.assertAlmostEqual(m["up_bytes_per_round"], 150.0)
        self.assertAlmostEqual(m["updates_delivered_frac"], 0.9)
        self.assertEqual(m["train_s"], 2.0)  # wall clock: every session
        self.assertAlmostEqual(m["cpu_s_per_round"], 0.1)


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_counters_and_proc_readers(self):
        r = subprocess.run([run.GEN, "selftest"], capture_output=True,
                           text=True, timeout=120)
        out = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(r.returncode, 0, out)
        self.assertTrue(all(out["checks"].values()), out["checks"])


class WorkloadSmokeTest(unittest.TestCase):
    """One toy-size session per workload through the whole gate."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def check(self, workload, trace):
        code, out, err = run_bench(workload, trace)
        self.assertEqual(code, 0, err)
        self.assertTrue(out["correct"], err)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1 + trace)
        want = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(out["metrics"]), set(want))
        for name, m in out["metrics"].items():
            self.assertEqual(m["unit"], want[name])
            self.assertIsInstance(m["value"], (int, float))
            self.assertNotIsInstance(m["value"], bool)
        if not trace:
            for name, m in out["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        return out["metrics"]

    def test_sim_cnn(self):
        self.check("sim_cnn", 0)

    def test_flat_tcp(self):
        self.check("flat_tcp", 0)

    def test_lossy_udp(self):
        self.check("lossy_udp", 0)

    def test_tier_fleet(self):
        self.check("tier_fleet", 0)

    def test_traced_flat_tcp_replays_the_server(self):
        m = self.check("flat_tcp", 1)
        self.assertGreater(m["core.apply_s"]["value"], 0)
        self.assertGreater(m["transport.model_frame_bytes"]["value"], 0)
        self.assertEqual(m["fec.encode_s"]["value"], 0)

    def test_traced_lossy_udp_probes_fec(self):
        m = self.check("lossy_udp", 1)
        self.assertGreater(m["fec.reconstruct_s"]["value"], 0)
        self.assertGreater(m["fec.parity_bytes_per_round"]["value"], 0)

    def test_traced_tier_fleet_recomputes_relay_partials(self):
        m = self.check("tier_fleet", 1)
        self.assertGreater(m["core.partial_agg_s"]["value"], 0)
        self.assertGreater(m["relay.aggs_per_round"]["value"], 0)

    def test_traced_sim_cnn(self):
        m = self.check("sim_cnn", 1)
        self.assertGreater(m["nn.train_step_s"]["value"], 0)
        self.assertGreater(m["fl.train_s"]["value"], 0)

    def test_perturbed_reference_fails_the_gate(self):
        code, out, err = run_bench("flat_tcp", 0, "--perturb-reference")
        self.assertEqual(code, 0, err)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], out["attempted"])
        self.assertIn("!= flsim", err)


if __name__ == "__main__":
    unittest.main()
