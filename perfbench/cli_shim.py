"""Run one ``qcfun`` command with the per-layer tracer installed.

Traced cli runs start every command as

    python3 -X importtime perfbench/cli_shim.py STATS_JSON <qcfun arguments>

with ``src`` on PYTHONPATH.  Stdout and the exit code are the command's own;
the span totals and the time spent in ``qcfun.cli.main`` go to STATS_JSON.
"""

import json
import sys
import time

from spans import Tracer


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import qcfun.cli

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = qcfun.cli.main(argv)
    finally:
        snap = tracer.snapshot()
        snap["compute_s"] = time.perf_counter() - t0
        with open(stats_path, "w") as fh:
            json.dump(snap, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
