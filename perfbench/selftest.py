"""The benchmark's own tests: the correctness gate, its known-bad control,
the slice choice and the tracer.

    python3 perfbench/selftest.py

Kept out of the library's pytest suite (the file name does not match
`test_*.py`); it takes about 20 seconds, mostly instance generation.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import unittest

import hostspeed
import run
import worker
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(*args: str, cwd: str = worker.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


class GateTest(unittest.TestCase):
    def test_known_bad_control_fails_the_gate(self):
        # one theorem2-s3 unit with two pi_prime entries swapped
        p = bench("--workload", "theorem2-s3", "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--known-bad")
        self.assertEqual(p.returncode, 1, p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_digest_mismatch_counts_as_failure(self):
        gate = run.Gate()
        counts = {"pass": 3, "fail": 0, "skip": 1}
        gate.add(counts, "a", 0)
        gate.add(counts, "b", 0)
        self.assertEqual(gate.failed, 1)
        self.assertEqual(gate.attempted, 9)

    def test_clean_passes_hold_the_gate(self):
        gate = run.Gate()
        gate.add({"pass": 3, "fail": 0, "skip": 1}, "a", 0)
        gate.add({"pass": 3, "fail": 0, "skip": 1}, "a", 0)
        self.assertEqual(gate.failed, 0)
        self.assertEqual(gate.summary()["fail_share"], 0.0)

    def test_checkout_without_sources_exits_nonzero(self):
        bare = os.path.join(worker.OUT, f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(worker.ROOT, "BENCHMARK.json"), bare)
            p = bench("--workload", "lemmas-s3", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class SliceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cli = worker.import_forcinglab()
        cls.instances = cli.generate_instances(cli.ExperimentConfig(
            max_poset=3, max_stages=3, seed=worker.GEN_SEED))

    def test_same_seed_same_units(self):
        for w in worker.S3_WORKLOADS:
            a = worker.choose_units(w, self.instances, 15, 7)
            b = worker.choose_units(w, self.instances, 15, 7)
            c = worker.choose_units(w, self.instances, 15, 8)
            key = [(u[0].instance_id, u[2], u[3]) for u in a]
            self.assertEqual(key, [(u[0].instance_id, u[2], u[3]) for u in b])
            self.assertNotEqual(key, [(u[0].instance_id, u[2], u[3]) for u in c])

    def test_every_seed_mixes_small_and_large_final_stages(self):
        for w in worker.S3_WORKLOADS:
            for seed in range(5):
                sizes = {len(u[1].final.generics)
                         for u in worker.choose_units(w, self.instances, 15, seed)}
                self.assertTrue({2, 3, 4, 5, 6} <= sizes, (w, seed, sizes))


    def test_tracer_reaches_every_binding(self):
        import forcinglab.names
        import forcinglab.projection

        units = worker.choose_units("lemmas-s3", self.instances, 1, 0)
        unit = min(units, key=lambda u: u[1].final.poset.n if u[1].final.poset.n > 1 else 99)
        unit[1].context_cache.clear()
        original = forcinglab.names.evaluate
        tr = Tracer()
        tr.install()
        try:
            self.assertIs(forcinglab.projection.evaluate, forcinglab.names.evaluate)
            self.assertIsNot(forcinglab.names.evaluate, original)
            tr.unit = 0
            rep = worker.run_unit("lemmas-s3", unit, unit[1].caps, forcinglab)
        finally:
            tr.uninstall()
        self.assertIs(forcinglab.names.evaluate, original)
        self.assertTrue(rep.ok)
        # _attach imports canonicalize_condition at call time
        self.assertGreater(tr.call_count("iteration.canonicalize_condition"), 0)
        self.assertGreater(tr.call_count("projection.make_context"), 0)
        self.assertGreater(tr.counts["boolalg.BoolAlgebra.ops"], 0)


class HostSpeedTest(unittest.TestCase):
    def test_factor_averages_the_samples_in_the_interval(self):
        hs = hostspeed.HostSpeed()
        for at, times_ref in ((1.0, 2), (2.0, 4), (9.0, 8)):
            hs.at.append(at)
            hs.took.append(times_ref * hostspeed.REF_S)
        self.assertAlmostEqual(hs.factor(0.5, 2.5), 3.0)
        self.assertAlmostEqual(hs.factor(7.0, 7.5), 8.0)   # no sample inside: the nearest
        self.assertEqual(hostspeed.HostSpeed().factor(0.0, 1.0), 1.0)

    def test_sampler_runs_until_stopped(self):
        hs = hostspeed.HostSpeed().start()
        try:
            end = hostspeed.clock() + 0.3
            while hostspeed.clock() < end:
                pass
        finally:
            hs.stop()
        self.assertGreater(len(hs.at), 3)
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class TracerTest(unittest.TestCase):
    def test_self_time_recursion_and_counts(self):
        tr = Tracer()

        def leaf(x):
            return x + 1

        def rec(n):
            return leaf(n) if n == 0 else rec(n - 1)

        leaf_w = tr.counted("leaf.calls", leaf)
        leaf = leaf_w  # noqa: F841  (rec looks `leaf` up at call time)
        rec_w = tr.spanned("rec", rec)
        rec = rec_w  # noqa: F841
        outer = tr.spanned("outer", lambda: rec_w(3))
        tr.unit = 0
        outer()
        self.assertEqual(tr.call_count("rec"), 4)   # recursion is counted ...
        self.assertEqual(len(tr.start), 2)           # ... but folded into one span
        self.assertEqual(tr.counts["leaf.calls"], 1)
        self_s = tr.self_times()
        total = tr.end[0] - tr.start[0]
        self.assertAlmostEqual(self_s["outer"] + self_s["rec"], total, places=9)
        self.assertAlmostEqual(tr.root_seconds(), total, places=9)


if __name__ == "__main__":
    unittest.main()
