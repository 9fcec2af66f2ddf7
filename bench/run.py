"""hillmono benchmark: one workload per process, from the root of a checkout.

    python3 bench/run.py --workload forward_map --seed 1 --seconds 15 --trace 0

The program is imported from src/ of the checkout, single threaded (BLAS
threads pinned to 1). The run repeats whole rounds of the workload's
operations while the next round still ends within --seconds, scales each
untraced operation's latency to a reference machine speed (speed.py),
checks the first round's outputs
against the independent references in oracles.py and the later rounds'
bytes against the first, and prints one JSON object as its last line of
output: end-to-end metrics with --trace 0, per-layer metrics from traced
rounds with --trace 1. A record of the run goes to bench/out/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Set-up samples per run, half taken before the timed rounds and half after,
# so that one slow or fast spell of the machine does not decide the median.
SETUP_SAMPLES = 8
CHILD_TIMEOUT = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(msg):
    print(f"benchmark error: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(args, what):
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"{what} took longer than {CHILD_TIMEOUT} s")
    if proc.returncode != 0:
        fail(f"{what} failed:\n{proc.stderr.strip()}")
    return proc.stdout


def measure_setup(workload, seed, samples):
    """Seconds taken, in fresh processes, to import hillmono and write inputs."""
    times = []
    for i in range(samples):
        work = os.path.join(OUT, f"setup-{os.getpid()}-{i}")
        try:
            out = run_child([os.path.join(HERE, "setup_probe.py"), workload,
                             str(seed), work], "set-up probe")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        times.append(float(out.split()[-1]))
    return times


class Runner:
    """Runs rounds of one workload's operations and keeps their results."""

    def __init__(self, wl, work, cli, tracer=None, probe=None):
        self.wl, self.cli = wl, cli
        self.ops = wl.ops(work)
        self.outputs = wl.outputs(work)
        self.tracer = tracer
        self.probe = probe
        self.first = None
        self.first_digest = None
        self.failed = 0
        self.attempted = 0
        self.mismatched_rounds = 0

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:                 # counted as a failed operation
                traceback.print_exc()
                rc = 1
        return {"rc": rc, "stderr": err.getvalue()}

    def round(self, traced):
        """One round; returns (wall seconds, per-op latencies, the same
        latencies at the reference speed, or None without a probe)."""
        results, lat, scaled = [], [], []
        tracer = self.tracer if traced else None
        t_round = time.perf_counter()
        for i, (label, arg) in enumerate(self.ops):
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.op = i
                with tracer.span(f"cli.{label}"):
                    res = self._cli(arg)
            else:
                res = self._cli(arg)
            lat.append(time.perf_counter() - t0)
            if self.probe is not None:
                scaled.append(lat[-1] * self.probe.scale(lat[-1]))
            results.append(res)
        wall = time.perf_counter() - t_round
        for (label, _), res in zip(self.ops, results):
            self.attempted += 1
            if res["rc"] != 0:
                self.failed += 1
                print(f"failed {label}: rc {res['rc']} {res.get('stderr', '').strip()}",
                      file=sys.stderr)
        digest = self._digest()
        if self.first is None:
            self.first, self.first_digest = results, digest
        elif digest != self.first_digest:
            self.mismatched_rounds += 1
        return wall, lat, scaled or None

    def _digest(self):
        h = hashlib.sha256()
        for path in self.outputs:
            try:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            except OSError:
                h.update(b"missing")
        return h.hexdigest()


def op_medians(lats):
    """Each operation's median latency over the rounds (lats[round][op]).

    The machine's speed changes in spells of seconds that hit different
    operations in different rounds; the per-operation median drops them,
    where the median of a few round totals would not.
    """
    return [statistics.median(op) for op in zip(*lats)]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hillmono")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hillmono", "__init__.py")):
        fail(f"no hillmono sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        fail("--seconds must be positive")
    os.makedirs(OUT, exist_ok=True)

    # A traced run reports no set-up time.
    setup_samples = 0 if args.trace else SETUP_SAMPLES
    setup_times = measure_setup(args.workload, args.seed, setup_samples // 2)

    import hillmono
    import hillmono.cli
    if not os.path.abspath(hillmono.__file__).startswith(SRC + os.sep):
        fail(f"hillmono imported from {hillmono.__file__}, not from {SRC}")
    import numpy
    import scipy
    import oracles
    import spans as layer_trace
    import speed

    wl = workloads.make(args.workload, args.seed)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    wl.write_inputs(work)
    problems = oracles.self_check()

    hm = {n: sys.modules[f"hillmono.{n}"] for n in (
        "integrate", "cover", "boundary", "spectral", "synthesis", "kepler", "cli")}
    tracer = layer_trace.Tracer() if args.trace else None
    probe = None if args.trace else speed.SpeedProbe()
    runner = Runner(wl, work, hm["cli"], tracer, probe)

    walls, traced_walls, lats, scaled_lats = [], [], [], []
    t_start = time.perf_counter()
    while True:
        wall, lat, scaled = runner.round(traced=False)
        walls.append(wall)
        lats.append(lat)
        scaled_lats.append(scaled)
        if tracer is not None:
            tracer.install(layer_trace.layer_targets(hm))
            tracer.install_method(hillmono.potentials.Potential, "__call__",
                                  "potentials.eval",
                                  lambda a, k, r: int(numpy.size(a[1])))
            try:
                wall, _, _ = runner.round(traced=True)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
        # Stop before a round that would end after --seconds; a run always
        # holds at least one whole round.
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times += measure_setup(args.workload, args.seed,
                                 setup_samples - setup_samples // 2)

    try:
        problems += wl.check(work, runner.first)
    except Exception:                         # a malformed output fails the check
        problems.append(traceback.format_exc())
    if runner.mismatched_rounds:
        problems.append(f"{runner.mismatched_rounds} later rounds changed the outputs")
    for line in problems:
        print(f"check: {line}", file=sys.stderr)
    correct = not problems

    if tracer is None:
        metrics = {
            # Set-up runs in fresh processes, before and after the rounds; a
            # kernel timed right after a process ends reads its cold caches,
            # so set-up is scaled by the mean speed over the whole run.
            "setup_s": (statistics.median(setup_times) * probe.run_scale(), "s"),
            "wall_s": (sum(op_medians(scaled_lats)), "s"),
            "op_p50_ms": (1e3 * statistics.median(op_medians(scaled_lats)), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_trace.layer_metrics(tracer.spans, len(traced_walls))
        metrics["trace.overhead_s"] = (
            len(tracer.spans) / len(traced_walls) * layer_trace.span_cost(), "s")
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, rounds=len(walls), round_walls=walls,
                  traced_round_walls=traced_walls,
                  traced_rounds=len(traced_walls), operations=len(runner.ops),
                  latencies=lats, scaled_latencies=scaled_lats,
                  unscaled_wall_s=sum(op_medians(lats)),
                  unscaled_op_p50_ms=1e3 * statistics.median(op_medians(lats)),
                  speed_blocks=probe.blocks if probe else 0,
                  speed_block_s=probe.seconds / probe.blocks if probe else None,
                  setup_times=setup_times,
                  steps=wl.steps, commit=git_commit(), source_digest=source_digest(),
                  python=platform.python_version(), numpy=numpy.__version__,
                  scipy=scipy.__version__, problems=problems[:50])
    with open(os.path.join(OUT, f"run-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
