"""Tests of the benchmark itself: the tracer's wiring and counts, the seeded
coordinate changes, the outcome checks and the host-speed sampling.

    python3 perfbench/selftest.py

Named so that pytest's default discovery leaves it out of the repository's
test run; it takes about 10 s.
"""
from __future__ import annotations

import copy
import os
import shutil
import signal
import tempfile
import unittest

import hostspeed
import run
import workloads
from tracer import LAYERS, Tracer, layer_modules, public_functions

cli = run.import_program()

from nefmirror.lattice import convex_hull  # noqa: E402
from nefmirror.toric import normal_fan  # noqa: E402


class Workdir(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.OUT, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=run.OUT, prefix="selftest-")
        self.addCleanup(shutil.rmtree, self.dir, True)

    def runner(self, workload, seed=0, ops=None, expected=None):
        inputs = workloads.Inputs(seed, self.dir, run.packaged_catalog())
        inputs.write()
        old = os.environ.get("NEFMIRROR_CATALOG")
        os.environ["NEFMIRROR_CATALOG"] = inputs.catalog_path
        self.addCleanup(_restore_env, old)
        runner = run.Runner(cli, inputs, workload,
                            expected or workloads.load_expected()["ops"])
        if ops is not None:
            runner.ops = [op for op in runner.ops if op[0] in ops]
        return runner


def _restore_env(old):
    if old is None:
        os.environ.pop("NEFMIRROR_CATALOG", None)
    else:
        os.environ["NEFMIRROR_CATALOG"] = old


class TracerWiring(unittest.TestCase):
    def test_every_public_function_is_rebound(self):
        tracer = Tracer()
        targets = tracer.targets()
        self.assertEqual({q.split(".")[0] for q in targets}, set(LAYERS))
        tracer.install()
        try:
            self.assertEqual(tracer.unwrapped_bindings(), [])
            for layer, module in layer_modules().items():
                for name in public_functions(module):
                    self.assertIn(f"{layer}.{name}", targets)
                wrapped = {name for name, fn in vars(module).items()
                           if hasattr(fn, "__wrapped__")}
                self.assertTrue(
                    {q.split(".", 1)[1] for q in targets
                     if q.startswith(layer + ".")} <= wrapped, layer)
        finally:
            tracer.uninstall()
        for module in layer_modules().values():
            self.assertFalse([name for name, fn in vars(module).items()
                              if hasattr(fn, "__wrapped__")])

    def test_scalar_helpers_are_not_wrapped(self):
        targets = Tracer().targets()
        self.assertNotIn("intlin.dot", targets)
        self.assertNotIn("intlin.primitivize", targets)
        self.assertIn("intlin.det", targets)
        self.assertIn("cli.cmd_catalog", targets)


class TracedCounts(Workdir):
    def traced_counts(self, runner):
        tracer = Tracer()
        tracer.install()
        try:
            runner.run_pass()
        finally:
            tracer.uninstall()
        return tracer

    def test_counts_repeat_exactly(self):
        runner = self.runner("catalog")
        first = self.traced_counts(runner)
        second = self.traced_counts(runner)
        self.assertEqual(first.counts(), second.counts())
        self.assertGreater(first.counts()["lattice.convex_hull.calls"], 0)
        self.assertEqual(runner.failed, 0)

    def test_self_times_add_up_to_the_pass(self):
        runner = self.runner("periods", ops={"taut-33-p4", "gkz-p4-2parts"})
        tracer = self.traced_counts(runner)
        total_self = sum(tracer.layer_self_s().values())
        total_cli = sum(s.incl_s for q, s in tracer.stats.items()
                        if q == "cli.main")
        self.assertAlmostEqual(total_self, total_cli, delta=1e-6 + 1e-3 * total_cli)
        self.assertTrue(all(s[1] == -1 or s[1] < i
                            for i, s in enumerate(tracer.spans)))


class OutcomeChecks(Workdir):
    def test_wrong_expected_value_raises_error_rate(self):
        expected = copy.deepcopy(workloads.load_expected()["ops"])
        expected["taut-11112-check"]["lines"] += 1
        runner = self.runner("periods", ops={"taut-11112-check", "taut-33-p4"},
                             expected=expected)
        runner.run_pass()
        self.assertEqual((runner.attempted, runner.failed, runner.wrong), (2, 1, 1))

    def test_wrong_gkz_golden_is_caught_at_another_seed(self):
        expected = copy.deepcopy(workloads.load_expected()["ops"])
        expected["gkz-p4-2parts"]["gkz"]["A"][-1][1] += 1
        runner = self.runner("periods", seed=3, ops={"gkz-p4-2parts"},
                             expected=expected)
        runner.run_pass()
        self.assertEqual(runner.wrong, 1)

    def test_every_op_passes_at_a_non_identity_seed(self):
        runner = self.runner("periods", seed=7)
        runner.run_pass()
        runner_catalog = self.runner("catalog", seed=7)
        runner_catalog.run_pass()
        self.assertEqual(runner.problems, {})
        self.assertEqual(runner_catalog.problems, {})


class Coordinates(unittest.TestCase):
    def test_simplex_rays_match_the_program(self):
        polys = [workloads.projective_delta(n) for n in (1, 2, 3, 4)]
        polys.append(workloads.NON_UNIMODULAR_4D)
        for verts in polys:
            program = list(normal_fan(convex_hull(verts)).rays)
            self.assertEqual(workloads.simplex_rays(verts), program)

    def test_changes_are_unimodular_and_seed_zero_is_identity(self):
        for seed in range(20):
            for n in (1, 2, 3, 4):
                coords = workloads.Coordinates.draw(n, seed, "x")
                for i in range(n):
                    e = tuple(int(i == j) for j in range(n))
                    # <g m, g^-T u> = <m, u>
                    for k in range(n):
                        f = tuple(int(k == j) for j in range(n))
                        lhs = sum(a * b for a, b in zip(coords.on_m(e),
                                                        coords.on_n(f)))
                        self.assertEqual(lhs, int(i == k))
        ident = workloads.Coordinates.draw(3, 0, "x")
        self.assertEqual(ident.on_m((1, 2, 3)), (1, 2, 3))

    def test_relabelled_parts_select_the_same_rays(self):
        verts = workloads.P4
        coords = workloads.Coordinates.draw(4, 5, "p4")
        moved = workloads.transform_nef_partition(verts, [[0, 1], [2, 3, 4]],
                                                  coords)
        rays = workloads.simplex_rays(verts)
        new_rays = workloads.simplex_rays(
            [tuple(v) for v in moved["delta_vertices"]])
        for old_part, new_part in zip([[0, 1], [2, 3, 4]], moved["parts"]):
            self.assertEqual(sorted(coords.on_n(rays[i]) for i in old_part),
                             sorted(new_rays[i] for i in new_part))


class Statistics(unittest.TestCase):
    def test_tail_has_ten_passes_beyond_it(self):
        samples = [float(i) for i in range(1, 26)]
        value, rank = run.tail(samples)
        self.assertEqual((value, rank), (15.0, 15))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 3))


class HostSpeed(Workdir):
    def test_sampler_runs_only_during_cli_calls_and_is_taken_off(self):
        before = signal.getsignal(signal.SIGALRM)
        runner = self.runner("periods", ops={"taut-33-p4"})
        runner.sampler = hostspeed.Sampler()
        wall, cpu = runner.run_pass()
        (samples,) = runner.pass_samples
        self.assertGreater(len(samples), 0)
        self.assertEqual(runner.sampler.take(), ([], 0.0, 0.0))
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreater(wall, 0)
        self.assertEqual(runner.failed, 0)

    def test_normalise_uses_own_samples_or_the_pooled_mean(self):
        nominal = hostspeed.NOMINAL_S
        own = [2 * nominal] * hostspeed.MIN_SAMPLES
        few = [4 * nominal]
        times = hostspeed.normalise([1.0, 1.0], [own, few])
        pooled = (sum(own) + sum(few)) / (len(own) + len(few))
        self.assertAlmostEqual(times[0], 0.5)
        self.assertAlmostEqual(times[1], nominal / pooled)
        with self.assertRaises(ValueError):
            hostspeed.normalise([1.0], [[]])

    def test_setup_probe_reports_the_childs_samples(self):
        elapsed, samples = run.setup_probe(0, os.path.join(self.dir, "setup"))
        self.assertGreater(elapsed, 0)
        self.assertGreater(len(samples), 0)


if __name__ == "__main__":
    unittest.main()
