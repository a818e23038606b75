"""qcfun benchmark: one closed-loop workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): classical, signature, cli,
geometry.  The code under test is the checkout's ``src/qcfun``.  A run

1. measures ``setup_s``: the median over fresh interpreters, launched
   before and after the timed phase, of the time from launch to the first
   timed operation (``import qcfun`` plus building the inputs); one extra
   launch first compiles the bytecode and is not counted;
2. builds the seeded round and repeats it, one operation at a time, until
   ``--seconds`` have passed and at least MIN_OPS operations are done,
   always finishing the round, and keeps each input's best time;
3. reads the peak resident memory of the process doing the work;
4. checks every distinct output against an independent computation
   (checks.py) and every repeat against the first;
5. prints one JSON line: the end-to-end metrics with ``--trace 0``, the
   per-layer metrics of a run with rebound functions (spans.py) with
   ``--trace 1``.

Single-threaded and closed-loop: the next operation starts when the last one
has returned.  Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
HERE = Path(__file__).resolve().parent

SETUP_LAUNCHES = 9
# the 90th percentile needs at least ten samples above it
MIN_OPS = 100

# Fresh-interpreter timings (set-up probes, cli commands) last a fifth of a
# second or more, too long for a best-of to find the host undisturbed; its
# speed drifts by up to 1.6x from one minute to the next.  They are scaled
# by REF_SECONDS over the median of this run's launches of REF_ARGV, which
# uses neither qcfun nor the benchmark: REF_SECONDS is that median on the
# undisturbed host (2 vCPU, Python 3.11.7, numpy 2.4.6).
REF_ARGV = [sys.executable, "-c", "import numpy"]
REF_SECONDS = 0.14


def require_sources():
    if not (SRC / "qcfun" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcfun sources under {SRC}")


def import_qcfun():
    require_sources()
    sys.path.insert(0, str(SRC))
    import qcfun

    if Path(qcfun.__file__).resolve().parent != SRC / "qcfun":
        raise SystemExit(f"error: imported qcfun from {qcfun.__file__}, not from {SRC}")
    return qcfun


def setup(workload, seed, workdir, tracer=None):
    """Everything before the first timed operation: import and inputs."""
    qc = import_qcfun()
    if tracer is not None:
        tracer.install()
    workdir.mkdir(parents=True, exist_ok=True)
    return qc, workloads.build(workload, seed, qc, workdir)


def spawn(argv, workdir, env=None):
    """Run argv to completion: (exit code, seconds, max RSS in KiB, stdout, stderr, start).

    posix_spawn and wait4 give the child's own resource usage; output goes
    through files so that no pipe can fill and stall the child.
    """
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ if env is None else env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss,
            out_path.read_text(), err_path.read_text(), start)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def probe_argv(workload, seed, *python_flags):
    return [sys.executable, *python_flags, str(HERE / "run.py"), "--probe",
            "--workload", workload, "--seed", str(seed)]


class LaunchScale:
    """Reference launches of this run; ``factor`` scales fresh-interpreter timings."""

    def __init__(self, workdir):
        self.workdir, self.samples = workdir, []

    def sample(self):
        self.samples.append(spawn(REF_ARGV, self.workdir)[1])

    @property
    def factor(self):
        return REF_SECONDS / statistics.median(self.samples)


def measure_setup(workload, seed, workdir, launches, scale):
    """Set-up seconds of fresh interpreters: launch to the first timed operation."""
    samples = []
    for _ in range(launches):
        scale.sample()
        code, _, _, stdout, stderr, start = spawn(probe_argv(workload, seed), workdir)
        if code != 0:
            raise RuntimeError(f"set-up probe failed ({code}): {stderr.strip()[-500:]}")
        samples.append(float(stdout.split()[-1]) - start)
    return samples


def parse_importtime(stderr):
    """Cumulative import milliseconds of qcfun and numpy from ``-X importtime``."""
    found = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line.split("|")
            name = name.strip()
            if name in ("qcfun", "numpy") and name not in found:
                found[name] = int(cumulative) / 1e3
    return found.get("qcfun", 0.0), found.get("numpy", 0.0)


def same(a, b):
    try:
        return bool(a == b)
    except ValueError:  # Polyline: array-valued fields
        return a.closed == b.closed and a.points.tobytes() == b.points.tobytes()


def timed_rounds(ops, call, seconds):
    """Repeat the round until `seconds` have passed and MIN_OPS operations are done.

    Keeps each input's best time over its repeats: other tenants of the host
    slow everything here by up to about 1.6x for seconds at a time, and the
    best of many repeats is what the code itself costs.
    """
    n = len(ops)
    outputs, mismatched, best = [None] * n, [0] * n, [math.inf] * n
    repeats = [op.repeat for op in ops]
    per_round = sum(repeats)
    rounds = 0
    start = time.perf_counter()
    while True:
        for i in range(n):
            for _ in range(repeats[i]):
                out, dt = call(i)
                if dt < best[i]:
                    best[i] = dt
                if outputs[i] is None:
                    outputs[i] = out
                elif not same(out, outputs[i]):
                    mismatched[i] += 1
        rounds += 1
        wall = time.perf_counter() - start
        if wall >= seconds and rounds * per_round >= MIN_OPS:
            return {"outputs": outputs, "mismatched": mismatched, "best": best, "rounds": rounds, "wall": wall}


def in_process_caller(qc, ops):
    fns = [getattr(qc, op.fn) for op in ops]
    args = [op.args for op in ops]
    perf = time.perf_counter

    def call(i):
        fn, a = fns[i], args[i]
        t0 = perf()
        try:
            out = fn(*a)
        except Exception as exc:  # noqa: BLE001 - an operation that raises is a failed operation
            out = exc
        return out, perf() - t0
    return call


class CliCaller:
    """Runs each command in a fresh interpreter; traced runs go through cli_shim.py."""

    def __init__(self, ops, workdir, traced, scale):
        self.ops, self.workdir, self.traced, self.scale = ops, workdir, traced, scale
        self.env = cli_env()
        self.max_rss_kib = 0
        self.snapshots, self.imports, self.compute_s = [], [], []

    def argv(self, i):
        if self.traced:
            return [sys.executable, "-X", "importtime", str(HERE / "cli_shim.py"),
                    str(self.workdir / "stats.json"), *self.ops[i].argv]
        return [sys.executable, "-m", "qcfun.cli", *self.ops[i].argv]

    def __call__(self, i):
        if i % 4 == 0:
            self.scale.sample()
        code, elapsed, rss, stdout, stderr, _ = spawn(self.argv(i), self.workdir, self.env)
        self.max_rss_kib = max(self.max_rss_kib, rss)
        if self.traced:
            snap = json.loads((self.workdir / "stats.json").read_text())
            self.compute_s.append(snap.pop("compute_s"))
            self.snapshots.append(snap)
            self.imports.append(parse_importtime(stderr))
        return (code, stdout), elapsed


def evaluate(ops, res, qc):
    """Check each distinct output once; count failures over every round."""
    import checks

    rounds, failed, unexpected, worst = res["rounds"], 0, [], {}
    for op, out, mism in zip(ops, res["outputs"], res["mismatched"]):
        try:
            err = checks.check(op, out, qc)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run fails its operation
            err = math.inf
            out = exc
        worst[op.kind] = max(worst.get(op.kind, 0.0), err)
        if err > 1.0:
            failed += rounds * op.repeat
            if not op.known_fault:
                unexpected.append(f"{op.kind} {op.args or op.argv}: error/tol {err:.3g} ({out!r:.200})")
        else:
            failed += mism
            if mism:
                unexpected.append(f"{op.kind} {op.args or op.argv}: {mism} repeat(s) differ from the first")
    return failed, unexpected, worst


def kind_latencies(ops, best):
    """Per kind: fastest and slowest best-of-repeats latency of its inputs, in microseconds."""
    per_kind = {}
    for op, t in zip(ops, best):
        lo, hi = per_kind.get(op.kind, (math.inf, 0.0))
        per_kind[op.kind] = (min(lo, t * 1e6), max(hi, t * 1e6))
    return dict(sorted(per_kind.items(), key=lambda kv: kv[1]))


def unit_of(name):
    for suffix, unit in (("_ms", "ms"), ("_us_per_op", "us"), ("_mb", "MB"), ("_share", "share")):
        if name.endswith(suffix):
            return unit
    return "count"


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args):
    require_sources()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    traced = bool(args.trace)
    scale = LaunchScale(workdir)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": traced,
               "python": sys.version.split()[0], "cpus": os.cpu_count()}
    if traced:
        code, _, _, _, stderr, _ = spawn(probe_argv(args.workload, args.seed, "-X", "importtime"), workdir)
        if code != 0:
            raise RuntimeError(f"set-up probe failed ({code}): {stderr.strip()[-500:]}")
        probe_imports = parse_importtime(stderr)
        from spans import Tracer, layer_metrics, merge
        tracer = Tracer()
    else:
        # the first launch compiles the bytecode and is not counted; the rest
        # are split around the timed phase so that they sample the whole run
        setup_samples = measure_setup(args.workload, args.seed, workdir, 1 + SETUP_LAUNCHES // 2, scale)[1:]
        tracer = None

    qc, ops = setup(args.workload, args.seed, workdir, tracer)
    if tracer is not None:
        tracer.reset()
    if args.workload == "cli":
        caller = CliCaller(ops, workdir, traced, scale)
    else:
        caller = in_process_caller(qc, ops)
    res = timed_rounds(ops, caller, args.seconds)
    if args.workload == "cli":
        peak_kib = caller.max_rss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    snap = tracer.snapshot() if traced else None
    if not traced:
        setup_samples += measure_setup(args.workload, args.seed, workdir, SETUP_LAUNCHES - len(setup_samples), scale)

    failed, unexpected, worst = evaluate(ops, res, qc)
    attempted = res["rounds"] * sum(op.repeat for op in ops)
    best = res["best"]
    if args.workload == "cli":
        best = [t * scale.factor for t in best]
    evals_per_s = len(best) / math.fsum(best)
    p50, p90 = (q * 1e6 for q in statistics.quantiles(best, n=10, method="inclusive")[4::4])
    details.update(rounds=res["rounds"], inputs=len(ops), ops_per_round=attempted // res["rounds"], wall_s=res["wall"],
                   wall_evals_per_s=attempted / res["wall"], kind_best_us=kind_latencies(ops, best),
                   worst_error_over_tol=worst, unexpected_failures=unexpected)

    if traced:
        if args.workload == "cli":
            snap = merge(caller.snapshots)
            import_ms = [statistics.fmean(v) for v in zip(*caller.imports)]
            compute_ms = 1e3 * statistics.fmean(caller.compute_s)
        else:
            import_ms, compute_ms = probe_imports, 0.0
        values = layer_metrics(snap, attempted)
        values.update({"cli.import_qcfun_ms": import_ms[0], "cli.import_numpy_ms": import_ms[1],
                       "cli.command_compute_ms": compute_ms})
        metrics = {name: metric(value, unit_of(name)) for name, value in values.items()}
        details.update(spans=snap, evals_per_s=evals_per_s)
        out_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    else:
        details.update(setup_samples_s=setup_samples, reference_launches_s=scale.samples, launch_scale=scale.factor)
        metrics = {
            "evals_per_s": metric(evals_per_s, "1/s"),
            "lat_p50_us": metric(p50, "us"),
            "lat_p90_us": metric(p90, "us"),
            "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
            "setup_s": metric(statistics.median(setup_samples) * scale.factor, "s"),
        }
        out_file = OUT / f"result-{args.workload}-seed{args.seed}.json"
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    details["result"] = result
    out_file.write_text(json.dumps(details, indent=1, default=repr))
    for line in unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        # a set-up probe: a fresh interpreter that stops at the first timed operation
        workdir = OUT / f"work-{os.getpid()}"
        try:
            setup(args.workload, args.seed, workdir)
            print(time.perf_counter())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
