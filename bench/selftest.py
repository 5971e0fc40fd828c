"""Self-tests of the benchmark itself (not of welfareshare).

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

import run
from checks import DEFAULT_SEED, check_call, load_golden
from tracer import LAYERS, Tracer, self_times
from workloads import WORKLOADS, write_pool

sys.path.insert(0, run.SRC)


def _scratch():
    os.makedirs(run.OUT, exist_ok=True)
    return tempfile.mkdtemp(dir=run.OUT)


def _read(paths):
    out = []
    for path in paths:
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


class InstanceFiles(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        root = _scratch()
        try:
            for name, workload in WORKLOADS.items():
                a, _ = write_pool(workload, 7, os.path.join(root, name, "a"))
                b, _ = write_pool(workload, 7, os.path.join(root, name, "b"))
                c, _ = write_pool(workload, 8, os.path.join(root, name, "c"))
                self.assertEqual(_read(a), _read(b), name)
                self.assertNotEqual(_read(a), _read(c), name)
        finally:
            shutil.rmtree(root)


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.root = _scratch()
        cls.cli = run.import_cli()
        cls.golden = load_golden()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.root)

    def captured(self, name, index=0):
        workload = WORKLOADS[name]
        paths, docs = write_pool(workload, DEFAULT_SEED, os.path.join(self.root, name))
        argv = [workload.argv[0], paths[index], *workload.argv[1:]]
        _wall, rc, stdout, _err = run.call(self.cli, argv)
        return docs[index], list(workload.argv), rc, stdout, self.golden[name][index]

    def assert_perturbation_fails(self, name, perturb):
        doc, argv, rc, stdout, pin = self.captured(name)
        self.assertIsNone(check_call(doc, argv, rc, stdout, pin))
        self.assertIsNone(check_call(doc, argv, rc, stdout))
        out = json.loads(stdout)
        perturb(out[0] if isinstance(out, list) else out)
        bad = json.dumps(out, indent=2)
        self.assertIsNotNone(check_call(doc, argv, rc, bad, pin))
        return doc, argv, rc, bad

    def test_one_perturbed_utility_fails(self):
        def bump(sol):
            sol["utilities"][0] = str(Fraction(sol["utilities"][0]) + Fraction(1, 7))

        for name in ("solve-matching-ties", "compare-matching"):
            doc, argv, rc, bad = self.assert_perturbation_fails(name, bump)
            # the invariants catch it without the pin too
            self.assertIsNotNone(check_call(doc, argv, rc, bad))

    def test_balanced_perturbation_caught_by_pin(self):
        def shift(sol):
            # moves welfare between two agents: every invariant except
            # u >= d still holds, so only the pin can see it
            for key in ("utilities", "transfers"):
                sol[key][0] = str(Fraction(sol[key][0]) - Fraction(1, 10**6))
                sol[key][1] = str(Fraction(sol[key][1]) + Fraction(1, 10**6))

        self.assert_perturbation_fails("compare-matching", shift)

    def test_wrong_exit_code_fails(self):
        doc, argv, rc, stdout, pin = self.captured("solve-matching-ties")
        self.assertIsNotNone(check_call(doc, argv, 4, stdout, pin))
        self.assertIsNotNone(check_call(doc, argv, 4, stdout))


class Tracing(unittest.TestCase):
    def test_self_times_sum_to_traced_wall_time(self):
        root = _scratch()
        try:
            workload = WORKLOADS["compare-matching"]
            paths, _ = write_pool(workload, 3, root)
            cli = run.import_cli()
            tracer = Tracer()
            walls = []
            for k in range(4):
                tracer.call_id = k
                tracer.install()
                try:
                    wall, rc, _out, _err = run.call(cli, [workload.argv[0], paths[k], *workload.argv[1:]])
                finally:
                    tracer.uninstall()
                self.assertEqual(rc, 0)
                walls.append(wall)
            selfs = self_times(tracer.spans)
            self.assertTrue(all(s >= 0 for s in selfs))
            for k, wall in enumerate(walls):
                own = sum(s for s, span in zip(selfs, tracer.spans) if span[4] == k)
                top = sum(end - start for _f, start, end, parent, cid in tracer.spans if parent < 0 and cid == k)
                # self times partition the top-level spans exactly ...
                self.assertEqual(own, top)
                # ... and the top-level span covers the call but for the
                # wrapper's own entry and exit
                self.assertLessEqual(own / 1e9, wall)
                self.assertGreater(own / 1e9, 0.98 * wall - 1e-3)
            layers = {tracer.names[span[0]].split(".")[0] for span in tracer.spans}
            self.assertEqual(layers, set(LAYERS))
        finally:
            shutil.rmtree(root)

    def test_uninstall_restores_the_library(self):
        import welfareshare.cli as cli
        import welfareshare.core as core
        import welfareshare.welfare as welfare

        before = (cli.json, core.simplex_solve, welfare.SetFunctionOracle.wmax_mask, cli.water_filling)
        tracer = Tracer()
        tracer.install()
        during = (cli.json, core.simplex_solve, welfare.SetFunctionOracle.wmax_mask, cli.water_filling)
        tracer.uninstall()
        after = (cli.json, core.simplex_solve, welfare.SetFunctionOracle.wmax_mask, cli.water_filling)
        self.assertTrue(all(a is not b for a, b in zip(before, during)))
        self.assertEqual(before, after)


class Contract(unittest.TestCase):
    def test_fails_without_the_package(self):
        root = _scratch()
        try:
            shutil.copytree(run.HERE, os.path.join(root, "bench"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "compare-matching",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=120,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(root)


if __name__ == "__main__":
    unittest.main()
