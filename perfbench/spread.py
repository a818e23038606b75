"""Run-to-run spread of the end-to-end metrics, as the acceptance check measures it.

    python3 perfbench/spread.py classical,signature,geometry,cli 501-510

runs every workload once per seed (``--trace 0``, ``run_seconds`` from
BENCHMARK.json) and prints, per metric, the median and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  It also prints the share
of failed operations, which must be the same in every run.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(workloads, seeds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        values, shares = {}, set()
        for seed in seeds:
            proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                  capture_output=True, text=True, cwd=ROOT, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, json.dumps(res), flush=True)
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            print(f"{workload} {name}: median {median:.6g} spread {(q3 - q1) / median:.4f} bound {bounds[name]}")
        print(f"{workload} failed share: {sorted(shares)}", flush=True)


if __name__ == "__main__":
    first, last = (int(s) for s in sys.argv[2].split("-"))
    main(sys.argv[1].split(","), range(first, last + 1))
