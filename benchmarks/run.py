#!/usr/bin/env python3
"""Layered benchmark for postlie.

    python3 benchmarks/run.py --workload corpus|sweep --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ``src/`` and
writes only under ``.bench_tmp/`` (inputs, removed at exit) and
``.bench_out/`` (trace files).  One process, one thread, one client in a
closed loop: every op is a ``postlie`` command line run in-process through
``postlie.cli.main``, and the next op starts when the previous one returns.
Only set-up starts other processes: it times the package's import in fresh
interpreters, one after another, each waited for.

A run prepares seeded inputs and runs the workload's op list (a *round*) on
them, then repeats with fresh inputs while another round fits in ``--seconds``.
End-to-end metrics are medians over the rounds.  Every reported time is
rescaled to one host speed, because a shared host's speed drifts by tens of
percent within minutes: a fixed piece of pure-Python work in the benchmark's
own code (``_reference_seconds``) runs before and after every timed step, and
the step's wall time is multiplied by ``REFERENCE_S`` over the median of the
reference times around it, raised to ``REFERENCE_EXPONENT`` (``Timeline``).
The program's code never runs in the reference, so a change to the program
moves a rescaled time by the same share as its wall time.  With
``--trace 1`` the run makes one untraced round and one traced round instead,
and reports per-layer metrics (see ``tracing.py``).

The last line of standard output is the JSON result; the lines before it are
the environment record, the statistics of the first round's inputs and one
line per round.  See README.md.
"""

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.getcwd()
SETUP_REPEATS = 9      # the first round's inputs are prepared this many times
IMPORT_REPEATS = 5     # the package is imported this many times, each in a fresh interpreter
MAX_REDRAWS = 20       # attempts to draw a round whose inputs are all new
# A typical time of `_reference_seconds` on a 2-vCPU Intel Xeon VM with
# Python 3.11.  Every reported time is rescaled to the host speed at which the
# reference takes this long; see `Timeline`.
REFERENCE_S = 0.035
# How much of the reference's change of speed the package's ops follow, as the
# exponent of the rescaling factor: in the host's fast phases the reference
# ran up to 1.6 times faster while the ops ran about 1.25 times faster (an
# exponent of about 0.5), and in its small fluctuations the ops moved as much
# as the reference or more (about 1 or above).  See README.md.
REFERENCE_EXPONENT = 0.7
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("check_s", "s"), ("derive_s", "s"),
              ("key_op_s", "s"), ("peak_rss_mb", "MB"))


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _capture(fn, argv):
    """Run fn(argv) with stdout/stderr captured: (code, out, err, seconds, crash)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        try:
            code = fn(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failed op, never a crashed run
            code = None
            crash = traceback.format_exc(limit=3).strip().splitlines()[-1]
        seconds = time.perf_counter() - t
    return code, out.getvalue(), err.getvalue(), seconds, crash


def _environment(args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "commit": _commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _commit():
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_seconds(src):
    """Time to import the package's CLI in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import postlie.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout)


def _reference_inputs(n=7, cells=60000, reads=30000):
    """Two fixed n x n matrices over Z[i], and `cells` distinct int objects
    (about 2.5 MB with their list) with a fixed shuffled order of `reads` of
    them."""
    from exact import Q
    a = [[Q((3 * i + 5 * j) % 7 - 3, (i * j) % 3 - 1) for j in range(n)] for i in range(n)]
    b = [[Q(1 if i == j else (i + 2 * j) % 3 - 1, (i - j) % 2) for j in range(n)]
         for i in range(n)]
    values = [10 ** 9 + i for i in range(cells)]
    order = list(range(cells))
    random.Random(0).shuffle(order)
    return a, b, values, order[:reads]


_REFERENCE = []


def _reference_seconds():
    """Wall time of a fixed piece of pure-Python work in the benchmark's own
    code, never in the package: exact Gaussian-rational matrix products and
    inverses at dim 7 (``exact.py``), an integer and dict loop, and reads of
    int objects scattered over megabytes.  It runs between ops to measure how
    fast the host runs Python at that moment."""
    import exact
    if not _REFERENCE:
        _REFERENCE.extend(_reference_inputs())
    a, b, values, order = _REFERENCE
    t = time.perf_counter()
    for _ in range(5):
        exact.inverse(exact.matmul(a, b))
    table, acc = {}, 0
    for i in range(40000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1000003
    for k in order:
        acc += values[k]
    return time.perf_counter() - t


class Timeline:
    """Timed steps with a reference sample before the first and after each.

    A step of wall time w is rescaled by the median r of the reference
    samples taken from w before its start to w after its end, and always the
    two next to it (a short step by its neighbours, as the host's speed
    changes within seconds, and a long one by the speed around it): it is
    reported as w * (REFERENCE_S / r) ** REFERENCE_EXPONENT."""

    def __init__(self):
        self.samples = []   # (midpoint, reference seconds), in time order
        self.steps = []     # (start, wall seconds)
        self._sample()

    def _sample(self):
        reference = _reference_seconds()
        self.samples.append((time.perf_counter() - reference / 2, reference))

    def add(self, start, wall):
        self.steps.append((start, wall))
        self._sample()

    def rescaled(self):
        """Every step's wall seconds at the speed where the reference takes
        REFERENCE_S."""
        times = [t for t, _ in self.samples]
        out = []
        for i, (start, wall) in enumerate(self.steps):
            lo = min(i, bisect.bisect_left(times, start - wall))
            hi = max(i + 2, bisect.bisect_right(times, start + 2 * wall))
            reference = statistics.median(r for _, r in self.samples[lo:hi])
            out.append(wall * (REFERENCE_S / reference) ** REFERENCE_EXPONENT)
        return out

    def reference_s(self):
        return statistics.median(r for _, r in self.samples)


class Runner:
    """Prepares rounds and runs their ops, keeping every op's outcome."""

    def __init__(self, build, cli, seed, workdir):
        self.build = build
        self.cli_module = cli
        self.seed = seed
        self.workdir = workdir
        self.seen = set()          # (command, input digests) of every op run so far
        self.prep_seconds = []
        self.attempted = 0
        self.problems = []

    def cli_main(self, argv):
        # looked up on every call, so a tracer's wrapper of main is used
        return self.cli_module.main(argv)

    def cli(self, argv):
        code, out, err, _, crash = _capture(self.cli_main, argv)
        return code, out, err + (crash or "")

    def prepare(self, index):
        """Write round `index`'s inputs, redrawing while an op would repeat a
        command on input bytes already used in this run; None if every draw
        would."""
        for attempt in range(MAX_REDRAWS):
            directory = os.path.join(self.workdir, "round%d" % index)
            shutil.rmtree(directory, ignore_errors=True)
            os.makedirs(directory)
            rng = random.Random("%d:%d:%d" % (self.seed, index, attempt))
            t = time.perf_counter()
            ops, stats = self.build(rng, directory, self.cli)
            self.prep_seconds.append(time.perf_counter() - t)
            keys = [op.input_key() for op in ops]
            if not any(k is not None and k in self.seen for k in keys):
                return ops, stats
        return None

    def run_round(self, ops, problem, tracer=None):
        """Run ops in order; returns the per-round sums of op times, rescaled
        to the reference speed (`Timeline`), plus `wall_s`, the sum of the
        op wall times as measured, and `reference_s`, the median reference
        time."""
        timeline = Timeline()
        for op in ops:
            key = op.input_key()
            repeated = key is not None and key in self.seen
            self.seen.add(key)
            if tracer is not None:
                tracer.begin_op(op)
            start = time.perf_counter()
            code, out, err, wall, crash = _capture(self.cli_main, op.argv)
            if tracer is not None:
                tracer.end_op(wall)
            timeline.add(start, wall)
            self.attempted += 1
            why = ("repeats a command on identical input bytes" if repeated
                   else "raised " + crash if crash else problem(op, code, out, err))
            if why:
                self.problems.append("%s: %s" % (" ".join(map(os.path.basename, op.argv)), why))
        sums = {"run_s": 0.0, "check_s": 0.0, "derive_s": 0.0, "key_op_s": 0.0}
        by_dim = {}
        for op, seconds in zip(ops, timeline.rescaled()):
            sums["run_s"] += seconds
            if op.group in ("check", "derive"):
                sums[op.group + "_s"] += seconds
            if op.key:
                sums["key_op_s"] += seconds
            if op.group == "check":
                by_dim[op.dim] = by_dim.get(op.dim, 0.0) + seconds
        sums.update({"check_d%d_s" % d: s for d, s in sorted(by_dim.items())})
        sums["wall_s"] = sum(wall for _, wall in timeline.steps)
        sums["reference_s"] = timeline.reference_s()
        return sums


def main(argv=None):
    args = _parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "postlie", "cli.py")):
        print("error: no src/postlie here; run from the root of a postlie checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ.pop("POSTLIE_VERBOSE", None)   # the program's default witness count
    from postlie import cli
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    imports = Timeline()
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        imports.add(start, _import_seconds(src))

    print(json.dumps({"env": _environment(args)}))
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=tmp_root)
    try:
        runner = Runner(workloads.WORKLOADS[args.workload], cli, args.seed, workdir)
        preparations = Timeline()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ops, stats = runner.prepare(0)
            preparations.add(start, runner.prep_seconds[-1])
        setup_s = (statistics.median(imports.rescaled())
                   + statistics.median(preparations.rescaled()))
        print(json.dumps({"inputs": stats}))
        if args.trace:
            metrics = _traced(args, runner, ops, workloads)
        else:
            metrics = _untraced(args, runner, ops, workloads, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)
    for line in runner.problems[:20]:
        print("FAILED " + line, file=sys.stderr)
    failed = len(runner.problems)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _untraced(args, runner, ops, workloads, setup_s):
    rounds = []
    started = time.perf_counter()
    index = 0
    while True:
        t = time.perf_counter()
        sums = runner.run_round(ops, workloads.problem)
        rounds.append(sums)
        print(json.dumps({"round": index, **{k: round(v, 4) for k, v in sums.items()}}))
        elapsed = time.perf_counter() - started
        # the next round costs about what this one did, preparation included
        if elapsed + (time.perf_counter() - t) + runner.prep_seconds[-1] > args.seconds:
            break
        index += 1
        fresh = runner.prepare(index)
        if fresh is None:
            break
        ops = fresh[0]
    values = {name: statistics.median(r[name] for r in rounds) for name, _ in END_TO_END
              if name in rounds[0]}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _traced(args, runner, ops, workloads):
    import tracing
    baseline = runner.run_round(ops, workloads.problem)
    fresh = runner.prepare(1)
    if fresh is None:
        raise RuntimeError("no fresh inputs for the traced round")
    ops = fresh[0]
    tracer = tracing.Tracer()
    tracer.install()
    traced = runner.run_round(ops, workloads.problem, tracer)
    tracer.uninstall()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.write(path)
    metrics = tracer.metrics()
    # wall times, like the self times of the spans
    metrics["trace.overhead_s"] = traced["wall_s"] - baseline["wall_s"]
    print(json.dumps({"trace": os.path.relpath(path, ROOT), "untraced_wall_s": baseline["wall_s"],
                      "traced_wall_s": traced["wall_s"]}))
    return {name: {"value": value, "unit": tracing.UNITS[name]} for name, value in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
