"""Self-test of the benchmark itself (about two minutes):

    python3 perfbench/selftest.py

1. Every workload runs briefly through run.py; the printed line must have
   exactly the keys and metrics (names and units) that BENCHMARK.json
   declares, whole rounds, and failures only where the known fault is.
2. Two traced runs of the same seed must give identical count metrics.
3. Every operation of every round is run once and checked; then each output
   is perturbed by 1e-9 relative and every check must fail it, so a check
   that passes everything cannot slip in.  The box-dimension oracle is only
   good to 0.05, so its output is moved by 0.1 instead.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   must exit non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REL = 1e-9


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc


def check_form(workload, trace, problems):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace))
    if proc.returncode != 0:
        problems.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if set(res) != {"correct", "attempted", "failed", "metrics"} or got != declared:
        problems.append(f"{workload} trace={trace}: keys or metrics differ from BENCHMARK.json")
    if not all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in res["metrics"].values()):
        problems.append(f"{workload} trace={trace}: a metric value is not a finite number")
    details = json.loads((run.OUT / f"{'trace' if trace else 'result'}-{workload}-seed7.json").read_text())
    per_round = details["ops_per_round"]
    band = len(workloads.ELLINT_K_BAND) if workload == "classical" else 0
    if (not res["correct"] or res["attempted"] < run.MIN_OPS or res["attempted"] % per_round
            or res["failed"] != band * res["attempted"] // per_round):
        problems.append(f"{workload} trace={trace}: correct/attempted/failed wrong: {res}")
    return res


def perturb(op, out, qc):
    if op.kind.startswith("box_dimension."):
        return out + 0.1
    if op.argv:
        code, stdout = out
        kind = op.kind[4:]
        if kind.startswith("residuals."):
            return code, stdout.replace('"pass": true', '"pass": false', 1)
        if kind.startswith("geom."):
            return code, json.dumps({"ahlfors": json.loads(stdout)["ahlfors"] * (1 + REL)})
        if kind.startswith("table."):
            lines = stdout.splitlines()
            rows = [line.split(",") for line in lines[1:]]
            return code, "\n".join([lines[0]] + [f"{x},{float(v) * (1 + REL)!r}," for x, v, _ in rows])
        return code, repr(float(stdout) * (1 + REL))
    if isinstance(out, float):
        return out * (1 + REL)
    if isinstance(out, qc.UnitRadius):
        if out.r < out.comp:
            r = out.r * (1 + REL)
            return qc.UnitRadius(r, math.sqrt((1 - r) * (1 + r)))
        c = out.comp * (1 + REL)
        return qc.UnitRadius(math.sqrt((1 - c) * (1 + c)), c)
    if isinstance(out, qc.Polyline):
        return qc.Polyline(out.points * (1 + REL), out.closed)
    return dataclasses.replace(out, delta=out.delta * (1 + REL))


def check_sensitivity(workload, qc, problems):
    import checks

    workdir = run.OUT / f"selftest-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(workload, 3, qc, workdir)
        if workload == "cli":
            call = run.CliCaller(ops, workdir, False, run.LaunchScale(workdir))
        else:
            call = run.in_process_caller(qc, ops)
        for i, op in enumerate(ops):
            out, _ = call(i)
            err = checks.check(op, out, qc)
            if (err > 1.0) != op.known_fault:
                problems.append(f"{op.kind} {op.args or op.argv}: error/tol {err:.3g} on the real output")
            bad = checks.check(op, perturb(op, out, qc), qc)
            if not bad > 1.0:
                problems.append(f"{op.kind} {op.args or op.argv}: perturbed output passes (error/tol {bad:.3g})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return len(ops)


def check_bare_directory(problems):
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "classical", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or re.search(r'"correct"', proc.stdout):
        problems.append("without src/ the benchmark did not fail cleanly")


def main():
    problems = []
    for workload in workloads.WORKLOADS:
        check_form(workload, 0, problems)
    first, second = (check_form("classical", 1, problems) for _ in range(2))
    if first and second:
        for m in SPEC["per_layer"]:
            if m["unit"] in ("count", "share") and first["metrics"][m["name"]] != second["metrics"][m["name"]]:
                problems.append(f"count {m['name']} differs between two traced runs of one seed")
    qc = run.import_qcfun()
    for workload in workloads.WORKLOADS:
        n = check_sensitivity(workload, qc, problems)
        print(f"{workload}: {n} operations checked, and their perturbed outputs rejected", flush=True)
    check_bare_directory(problems)
    for line in problems:
        print("FAIL", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
