"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

They check that a seed fixes the inputs, that a tiny run of every workload
passes every oracle, that the traced run confirms the layers each workload
is designed to bypass, that set-up is probed throughout a run, that the
tracer restores the program afterwards, and that run.py refuses to run
without the program.  They take about half a minute.
"""

import json
import shutil
import subprocess
import sys
import time
import unittest

import run

run._load_program()
from workloads import WORKLOADS  # noqa: E402  (needs the program on sys.path)


class SeedTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                first = cls(run.ROOT, 7)
                self.assertEqual(first.inputs(), cls(run.ROOT, 7).inputs())
                self.assertNotEqual(first.inputs(), cls(run.ROOT, 8).inputs())

    def test_generators_reject_degenerate_inputs(self):
        wedge = WORKLOADS["wedge-certify"](run.ROOT, 7)
        self.assertGreater(wedge.rejected, 0)
        for rnd in wedge.pool:
            for kind, x, y, element in (rel for item in rnd for rel in item):
                self.assertNotEqual(x, y)
                self.assertFalse({x, y} & {0, 1})
        sweep = WORKLOADS["filling-sweep"](run.ROOT, 7)
        slopes = {slope for rnd in sweep.pool for slope in rnd}
        self.assertEqual(len(slopes), 84)
        self.assertFalse(slopes & {(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1),
                                   (-2, 1), (3, 1), (-3, 1), (4, 1), (-4, 1)})


class TinyRunTest(unittest.TestCase):
    def test_one_round_of_each_workload_is_correct(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                tally, metrics, extra = run.measure(cls(run.ROOT, 3), 0)
                self.assertEqual(extra["rounds"], 1)
                self.assertEqual(tally.failed / len(tally.times), 0,
                                 tally.failures)
                self.assertGreater(metrics["item_cost.mean"][0], 0)
                if name == "cli-cold":
                    reference = json.loads((run.HERE / "digests.json").read_text())
                    self.assertEqual(set(tally.digests), set(reference))

    def test_setup_is_probed_throughout_the_run(self):
        calls = []

        def probe():
            calls.append(time.perf_counter())
            return 0.5
        tally, metrics, extra = run.measure(
            WORKLOADS["filling-sweep"](run.ROOT, 3), 2, probe)
        self.assertEqual(len(calls), run.SETUP_PROBES)
        self.assertGreaterEqual(calls[-1] - calls[0], 2)
        self.assertGreater(calls[-2] - calls[1], 1)
        self.assertEqual(metrics["setup_s"][0], 0.5)
        self.assertEqual(len(extra["item_costs"]), len(tally.times))


class TracedRunTest(unittest.TestCase):
    def traced(self, name):
        workload = WORKLOADS[name](run.ROOT, 3)
        workload.trace_rounds = 1
        tally, metrics, extra, spans = run.measure_traced(workload)
        self.assertEqual(tally.failed, 0, tally.failures)
        ids = {span[0] for span in spans["spans"]}
        self.assertTrue(all(span[4] is None or span[4] in ids
                            for span in spans["spans"]))
        return {k: v for k, (v, _) in metrics.items()}

    def test_wedge_certify_bypasses_dilog(self):
        m = self.traced("wedge-certify")
        self.assertEqual(m["dilog.calls"], 0)
        self.assertGreater(m["lattice.lll_reduce.calls"], 0)
        self.assertGreater(m["numfield.field_op.calls"], 0)

    def test_filling_sweep_bypasses_lll(self):
        m = self.traced("filling-sweep")
        self.assertEqual(m["lattice.lll_reduce.calls"], 0)
        self.assertGreater(m["dilog.calls"], 0)
        self.assertGreater(m["surgery.newton_solve.steps"], 0)

    def test_tracer_restores_the_program(self):
        import blochinv
        from blochinv import borel, dilog, numfield, surgery
        import sympy
        from tracing import Tracer
        before = (dilog.li2, surgery.bloch_wigner, borel.bloch_wigner,
                  blochinv.bloch_wigner, numfield.FieldElement.__mul__,
                  numfield.FieldElement.__rmul__, sympy.factorint)
        expected = dilog.bloch_wigner(0.5 + 1j, 64)
        tracer = Tracer()
        with tracer:
            self.assertIs(surgery.bloch_wigner, borel.bloch_wigner)
            self.assertIs(surgery.bloch_wigner.__wrapped__, before[1])
            self.assertIs(numfield.FieldElement.__rmul__,
                          numfield.FieldElement.__mul__)
            self.assertEqual(dilog.bloch_wigner(0.5 + 1j, 64), expected)
        after = (dilog.li2, surgery.bloch_wigner, borel.bloch_wigner,
                 blochinv.bloch_wigner, numfield.FieldElement.__mul__,
                 numfield.FieldElement.__rmul__, sympy.factorint)
        for a, b in zip(before, after):
            self.assertIs(a, b)
        self.assertEqual(tracer.metrics()["dilog.li2.annulus.calls"][0], 1)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        try:
            for path in run.HERE.glob("*.py"):
                shutil.copy(path, bare / "bench" / path.name)
            shutil.copy(run.HERE / "digests.json", bare / "bench")
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "filling-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn(b'"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
