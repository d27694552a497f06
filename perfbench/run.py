"""nefmirror benchmark: seeded workloads run through the public CLI entry
point ``nefmirror.cli.main(argv)``, one op at a time in one process (a
closed loop with one client), with every op's outcome checked exactly.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 60 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass.  The last line of standard output is one JSON
object; the run's raw samples go to ``perfbench/results/``.  See
``perfbench/README.md`` for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
MIN_PASSES = 2
# Set-up takes about 0.2 s, so its child samples the host more often.
SETUP_SAMPLE_INTERVAL_S = 0.01


def listed_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for this mode; the
    last line of output carries exactly these."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        doc = json.load(handle)
    return [(m["name"], m["unit"])
            for m in doc["per_layer" if trace else "end_to_end"]]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "nefmirror", "cli.py")):
        fail(f"no nefmirror sources under {SRC}")
    sys.path.insert(0, SRC)
    import nefmirror.cli
    if os.path.dirname(os.path.abspath(nefmirror.__file__)) != \
            os.path.join(SRC, "nefmirror"):
        fail(f"nefmirror was imported from {nefmirror.__file__}, not {SRC}")
    return nefmirror.cli


def packaged_catalog():
    return os.path.join(SRC, "nefmirror", "data", "catalog.json")


def prepare(seed, workdir):
    """What set-up costs a user: import the CLI and write the inputs.  The
    host speed is sampled meanwhile and printed for the parent."""
    sampler = hostspeed.Sampler(interval=SETUP_SAMPLE_INTERVAL_S)
    with sampler.sampling():
        import_program()
        workloads.Inputs(seed, workdir, packaged_catalog()).write()
    samples, spent_wall, _ = sampler.take()
    print(json.dumps({"samples": samples, "spent_s": spent_wall}))


def setup_probe(seed, workdir):
    """Wall time of one fresh process that imports the CLI and writes the
    seeded inputs, less the child's sampling time, and the host-speed
    samples the child took."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--prepare", workdir,
         "--seed", str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("set-up process failed")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    return elapsed - child["spent_s"], child["samples"]


class Runner:
    """Runs the ops of one workload and checks each outcome."""

    def __init__(self, cli, inputs, workload, expected, sampler=None):
        self.cli = cli
        self.sampler = sampler
        self.inputs = inputs
        self.ops = workloads.WORKLOADS[workload]
        self.expected = expected
        self.output = os.path.join(inputs.workdir, "op-output")
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = {}
        self.pass_samples = []

    def run_op(self, template):
        if os.path.exists(self.output):
            os.remove(self.output)
        argv = self.inputs.argv(template, self.output)
        err, out = io.StringIO(), io.StringIO()
        sampling = (self.sampler.sampling() if self.sampler
                    else contextlib.nullcontext())
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(out), sampling:
            code = self.cli.main(argv)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return code, err.getvalue(), wall, cpu

    def run_pass(self):
        """One pass over the ops; returns (wall, cpu) summed over the ops.
        Only the CLI calls are timed, not the checks, and the host-speed
        sampler's own time is taken off."""
        wall = cpu = 0.0
        for name, template in self.ops:
            code, stderr_text, op_wall, op_cpu = self.run_op(template)
            wall += op_wall
            cpu += op_cpu
            output = None
            if os.path.exists(self.output):
                with open(self.output, "rb") as handle:
                    output = handle.read()
            self.record(name, code, stderr_text, output)
        if self.sampler:
            samples, spent_wall, spent_cpu = self.sampler.take()
            self.pass_samples.append(samples)
            wall -= spent_wall
            cpu -= spent_cpu
        return wall, cpu

    def record(self, name, code, stderr_text, output):
        want = self.expected[name]
        problems = workloads.check_outcome(name, code, stderr_text, output,
                                           want, self.inputs)
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        # A refusal with a named input error, where an answer was expected,
        # is a failure but not a wrong answer.
        refused = want["exit"] == 0 and code in (2, 3) and problems == [
            f"exit {code}, expected 0"]
        if not refused:
            self.wrong += 1
        self.problems.setdefault(name, set()).update(problems)


def tail(samples):
    """The highest order statistic with 10 passes beyond it, or the maximum
    when there are no more than 10 passes.  Returns (value, rank)."""
    ordered = sorted(samples)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], rank


def timed_passes(runner, seconds, probe=None):
    """Passes until the next one would mostly fall past the time budget.
    Before each pass, outside its timing, run the optional set-up probe, so
    that it samples the same host phases as the passes do."""
    walls, cpus, probes = [], [], []
    start = time.perf_counter()
    while True:
        if probe is not None:
            probes.append(probe())
        wall, cpu = runner.run_pass()
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and \
                elapsed + statistics.fmean(walls) / 2 >= seconds:
            return walls, cpus, probes


def host_record(seed, workload, trace):
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "trace": trace,
            "commit": git_commit(), "nproc": os.cpu_count(),
            "cpu_model": model or platform.machine(),
            "python": platform.python_version(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def write_record(record, name):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True)
    return path


def end_to_end(args, cli, inputs, expected, record):
    setup_dir = inputs.workdir + "-setup"
    runner = Runner(cli, inputs, args.workload, expected, hostspeed.Sampler())
    try:
        raw_walls, raw_cpus, probes = timed_passes(
            runner, args.seconds, lambda: setup_probe(args.seed, setup_dir))
    finally:
        shutil.rmtree(setup_dir, ignore_errors=True)
    raw_setup = [elapsed for elapsed, _ in probes]
    setup = hostspeed.normalise(raw_setup, [samples for _, samples in probes])
    walls = hostspeed.normalise(raw_walls, runner.pass_samples)
    cpus = hostspeed.normalise(raw_cpus, runner.pass_samples)
    tail_value, tail_rank = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "wall_p10_s": statistics.quantiles(walls, n=10, method="inclusive")[0],
        "wall_tail_s": tail_value,
        "cpu_s": statistics.median(cpus),
        "setup_raw_s": statistics.median(raw_setup),
        "wall_raw_s": statistics.median(raw_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - runner.failed / runner.attempted,
    }
    record.update(setup_raw_s=raw_setup, setup_s=setup,
                  pass_wall_raw_s=raw_walls, pass_cpu_raw_s=raw_cpus,
                  pass_wall_s=walls, pass_cpu_s=cpus,
                  setup_reference_kernel_s=[samples for _, samples in probes],
                  pass_reference_kernel_s=runner.pass_samples,
                  nominal_reference_kernel_s=hostspeed.NOMINAL_S,
                  tail_rank=tail_rank)
    print(f"{len(walls)} passes of {len(runner.ops)} ops; "
          f"wall_tail_s is pass {tail_rank} of {len(walls)} by time; "
          f"error_rate {runner.failed}/{runner.attempted}; host speed "
          f"sampled {sum(map(len, runner.pass_samples))} times")
    return runner, metrics


def traced(args, cli, inputs, expected, record):
    from tracer import Tracer

    runner = Runner(cli, inputs, args.workload, expected)
    walls, _cpus, _ = timed_passes(runner, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, _cpu = runner.run_pass()
    finally:
        tracer.uninstall()
    metrics = {name: tracer.metric(name) for name, _ in listed_metrics(1)
               if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(walls)
    record.update(untraced_pass_wall_s=walls, traced_pass_wall_s=traced_wall,
                  functions=tracer.function_table(), counts=tracer.counts(),
                  spans=tracer.span_records())
    print(f"traced one pass of {len(runner.ops)} ops after {len(walls)} "
          f"untraced passes; {len(tracer.spans)} layer-boundary spans")
    return runner, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR",
                        help="only import the CLI and write the seeded inputs")
    args = parser.parse_args(argv)
    if args.prepare:
        prepare(args.seed, args.prepare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    cli = import_program()
    expected = workloads.load_expected()["ops"]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    inputs = workloads.Inputs(args.seed, workdir, packaged_catalog())
    inputs.write()
    os.environ["NEFMIRROR_CATALOG"] = inputs.catalog_path
    record = host_record(args.seed, args.workload, args.trace)
    try:
        measure = traced if args.trace else end_to_end
        runner, metrics = measure(args, cli, inputs, expected, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = listed_metrics(args.trace)
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in listed},
    }
    problems = {op: sorted(p) for op, p in runner.problems.items()}
    record.update(result=result, problems=problems)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = write_record(record, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}-{stamp}-{os.getpid()}.json")
    for op, found in problems.items():
        print(f"FAILED {op}: {'; '.join(found)}")
    units = dict(listed)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name, 's')}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
