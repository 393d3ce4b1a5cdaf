"""loopsmith benchmark: end-to-end CLI timings and outside-in layer tracing.

Run from the root of a checkout:

    python3 loopbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload from workloads.py, or "all" to run each in turn.  The
seed makes the workload's input files; the program receives only those.

--trace 0 times the CLI as a user runs it: every invocation is a fresh
``python -m loopsmith.cli`` with PYTHONPATH at the checkout's src,
LOOPSMITH_THREADS removed and PYTHONHASHSEED pinned.  It first runs
``loopsmith validate`` on the inputs SETUP_REPEATS times (set-up time),
then runs the workload's invocations in passes, each as often as it fits
in S seconds.  The run and its children keep to one CPU, and after each
invocation the benchmark times a fixed reference computation there.
wall_s is the sum over invocations of the mean of their samples, scaled
by REFERENCE_S over the mean reference time, so that a slow spell of the
shared CPU does not read as a slower program.  Every output is checked
against the golden values.

--trace 1 runs the pass twice inside fresh interpreters, once plain and
once with the layers wrapped (spans.py), and reports per-layer self times
and work counts; the difference of the two wall times is the tracing
overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spans  # noqa: E402  (benchmark modules live next to this file)
import workloads  # noqa: E402

SETUP_REPEATS = 9
RUN_LIMIT_S = 170  # a child still running then is killed and counts as failed

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# The reference work takes REFERENCE_S when the CPU runs at full speed.  After
# each invocation it runs for REFERENCE_SHARE of the invocation's wall time,
# at least once, so that its samples spread over a run in proportion to the
# time measured.  See README.md, "Steadiness".
REFERENCE_S = 0.016
REFERENCE_SHARE = 0.05
_REF_N = 32
_REF_ROWS = [[(3 * i + 5 * j + i * j) % _REF_N for j in range(_REF_N)] for i in range(_REF_N)]


def reference():
    """Time a fixed piece of table-walking Python, independent of loopsmith."""
    rows = _REF_ROWS
    start = time.perf_counter()
    seen = set()
    hits = 0
    for a in range(6 * _REF_N):
        row_a = rows[a % _REF_N]
        for b in range(_REF_N):
            row_ab = rows[row_a[b]]
            row_b = rows[b]
            for c in range(_REF_N):
                x = row_ab[c]
                if x == row_b[c]:
                    hits += 1
                seen.add((a ^ x) & 1023)
    return time.perf_counter() - start


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float


class Runner:
    """Starts child interpreters one at a time and waits for each."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("LOOPSMITH_THREADS", None)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def spawn(self, args):
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            proc.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,  # Linux reports KiB
        )

    def cli(self, argv):
        return self.spawn(["-m", "loopsmith.cli"] + argv)

    def inproc(self, mode, argvs):
        spec = self.workdir / ("%s-spec.json" % mode)
        result = self.workdir / ("%s-result.json" % mode)
        spec.write_text(json.dumps({"mode": mode, "argvs": argvs}), encoding="utf-8")
        outcome = self.spawn([str(HERE / "inproc.py"), str(spec), str(result)])
        if outcome.code != 0:
            raise RuntimeError("in-process %s run exited %d: %s" % (mode, outcome.code, outcome.stderr[-2000:]))
        return json.loads(result.read_text(encoding="utf-8"))


class Tally:
    """Invocations attempted and failed; a failure is never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, problems, code=0, stderr=""):
        self.attempted += 1
        if problems:
            self.failed += 1
            print("FAILED: %s" % "; ".join(problems[:5]), file=sys.stderr)
            if code != 0 and stderr:
                print(stderr[-1000:], file=sys.stderr)


def timed_run(runner, gold, name, inputs, seconds, tally):
    # one CPU for the run and its children, so the reference sees the same CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    refs = []

    def cli(argv):
        o = runner.cli(argv)
        spent = 0.0
        while True:
            refs.append(reference())
            spent += refs[-1]
            if spent >= REFERENCE_SHARE * o.wall:
                return o

    setup_argv = workloads.setup_argv(inputs)
    setup = []
    for _ in range(SETUP_REPEATS):
        o = cli(setup_argv)
        tally.add(workloads.check_setup(gold, inputs, o.code, o.stdout), o.code, o.stderr)
        setup.append(o.wall)
    setup_refs = len(refs)
    setup_speed = REFERENCE_S / statistics.fmean(refs)
    argvs = workloads.pass_argvs(name, inputs)
    samples = [[] for _ in argvs]
    order = range(len(argvs))  # the first pass runs every invocation once
    start = time.monotonic()
    while True:
        ran = False
        for k in order:
            if samples[k]:
                now = time.monotonic()
                if now - start + samples[k][-1].wall > seconds or now + samples[k][-1].wall > runner.deadline:
                    continue  # would end after the run; a shorter one may still fit
            o = cli(argvs[k])
            tally.add(workloads.check_invocation(gold, name, inputs[k], o.code, o.stdout), o.code, o.stderr)
            samples[k].append(o)
            ran = True
        if not ran:
            break
        # later passes run the longest invocations first, so each gets a second sample
        order = sorted(range(len(argvs)), key=lambda k: -samples[k][-1].wall)
    speed = REFERENCE_S / statistics.fmean(refs[setup_refs:])
    wall = sum(statistics.fmean(o.wall for o in runs) for runs in samples)
    values = {
        "wall_s": wall * speed,
        "cpu_s": sum(statistics.fmean(o.cpu for o in runs) for runs in samples) * speed,
        "setup_s": statistics.median(setup) * setup_speed,
        "peak_rss_mb": max(o.rss_mb for runs in samples for o in runs),
    }
    counts = [len(runs) for runs in samples]
    notes = "%d invocation(s) sampled %d to %d times, %d set-up runs; %.3f s measured, speed factor %.3f" % (
        len(argvs), min(counts), max(counts), len(setup), wall, speed)
    return {m: (values[m], unit) for m, unit in END_TO_END}, notes


def traced_run(runner, gold, name, inputs, tally):
    argvs = workloads.pass_argvs(name, inputs)
    plain = runner.inproc("plain", argvs)
    traced = runner.inproc("trace", argvs)
    for result in (plain, traced):
        outputs = [(o["code"], o["stdout"]) for o in result["outputs"]]
        for o, problems in zip(result["outputs"], workloads.check_pass(gold, name, inputs, outputs)):
            tally.add(problems, o["code"], o["stderr"])
    suite_checks = {}
    if argvs[0][0] == "checktheorem":
        for output in traced["outputs"]:
            try:
                for s in json.loads(output["stdout"])["suites"]:
                    suite_checks[s["name"]] = suite_checks.get(s["name"], 0) + s["checks"]
            except (ValueError, KeyError, TypeError):
                pass  # already counted as a failed invocation
    trace = traced["trace"]
    metrics = spans.layer_metrics(trace, len(inputs), suite_checks)
    values = {
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.unattributed_s": traced["wall_s"] - sum(spans.self_times(trace["spans"])),
        "trace.spans": len(trace["spans"]),
    }
    metrics.update({metric: (values[metric], unit) for metric, unit in spans.TRACE_METRICS})
    notes = "%d invocation(s) in process, %d spans" % (len(argvs), len(trace["spans"]))
    if trace["missing"]:
        notes += "; absent, reported as 0: %s" % ", ".join(trace["missing"])
    return metrics, notes


def run_workload(name, seed, seconds, trace):
    gold = workloads.golden()
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="%s-%d-" % (name, seed), dir=HERE / ".work"))
    tally = Tally()
    try:
        inputs = workloads.generate(name, seed, ROOT, workdir / "inputs")
        runner = Runner(workdir, time.monotonic() + RUN_LIMIT_S)
        if trace:
            metrics, notes = traced_run(runner, gold, name, inputs, tally)
        else:
            metrics, notes = timed_run(runner, gold, name, inputs, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%s seed=%d trace=%d: %s" % (name, seed, trace, notes))
    for metric, (value, unit) in sorted(metrics.items()):
        print("  %-48s %14.6f %s" % (metric, value, unit))
    print("  %-48s %14.6f (%d of %d invocations)" % (
        "fail_ratio", tally.failed / max(tally.attempted, 1), tally.failed, tally.attempted))
    return metrics, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "loopsmith" / "cli.py").is_file():
        print("no loopsmith sources at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(names) == 1:
        metrics, tally = results[names[0]]
    else:
        metrics = {"%s.%s" % (n, m): v for n, (ms, _) in results.items() for m, v in ms.items()}
        tally = Tally()
        tally.attempted = sum(t.attempted for _, t in results.values())
        tally.failed = sum(t.failed for _, t in results.values())
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
