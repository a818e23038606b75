"""Branch sweep: list the single-line ``if`` tests that no tier-1 test depends on.

For each ``if``/``elif`` whose test fits on one line in the named modules,
the sweep copies the repository to a temporary directory, replaces that test
with ``False``, and runs the tier-1 command there.  A mutant that still
passes every test is a *survivor*: its branch has no test that fails without
it.  The sweep prints each survivor as ``file:line: test`` and exits 1 if
there is any.

    python tools/branch_sweep.py src/qcfun/bounds.py src/qcfun/cli.py src/qcfun/means.py

Standard library only.  Each mutant is one full pytest run (stopped at the
first failure), so the sweep takes about 20 minutes for the seven
non-geometry modules on 2 vCPU; it is a manual check and stays out of CI.
A run that exceeds ``TIMEOUT_S`` counts as killed.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 600
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "*.egg-info", "perfbench/out")


def if_tests(source: str) -> list[tuple[int, int, int, str]]:
    """(line, start column, end column, text) of every single-line if/elif test.

    Columns are byte offsets into the UTF-8 encoded line, as ``ast`` reports them.
    """
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and node.test.lineno == node.test.end_lineno:
            line = lines[node.test.lineno - 1].encode()
            start, end = node.test.col_offset, node.test.end_col_offset
            found.append((node.test.lineno, start, end, line[start:end].decode()))
    return sorted(found)


def mutate(source: str, lineno: int, start: int, end: int) -> str:
    lines = source.splitlines(keepends=True)
    line = lines[lineno - 1].encode()
    lines[lineno - 1] = (line[:start] + b"False" + line[end:]).decode()
    return "".join(lines)


def passes(tree: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module paths relative to the repository root")
    args = parser.parse_args(argv)
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if not passes(tree):
            print("the unmutated tree fails its tests; nothing to sweep", file=sys.stderr)
            return 2
        for module in args.modules:
            target = tree / module
            original = target.read_text()
            tests = if_tests(original)
            print(f"{module}: {len(tests)} single-line if tests", file=sys.stderr)
            for lineno, start, end, text in tests:
                target.write_text(mutate(original, lineno, start, end))
                if passes(tree):
                    survivors.append(f"{module}:{lineno}: {text}")
                    print(f"  survivor {module}:{lineno}: {text}", file=sys.stderr)
            target.write_text(original)
    for line in survivors:
        print(line)
    print(f"{len(survivors)} survivor(s)", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
