"""Branch sweep: list the single-line branch tests, or the constants, that no tier-1 test depends on.

For each ``if``/``elif`` whose test fits on one line in the named modules,
the sweep copies the repository to a temporary directory, replaces that test
with ``False``, and runs the tier-1 command there; each conditional
expression ``x if test else y`` whose test fits on one line is replaced
once with ``True`` and once with ``False``.  With ``--constants`` it moves
instead each nonzero numeric literal that sits in a comparison or in the
value bound to a module-level name, once by x0.8 and once by x1.25 (an int
to the nearest int, where that differs).  A mutant that still passes every
test is a *survivor*: its branch or constant has no test that fails without
it.  The sweep prints each survivor as ``file:line:column: text -> replacement``
and exits 1 if there is any.

    python tools/branch_sweep.py src/qcfun/bounds.py src/qcfun/cli.py src/qcfun/means.py
    python tools/branch_sweep.py --constants src/qcfun/means.py src/qcfun/modulus.py

Standard library only.  Each mutant is one full pytest run (stopped at the
first failure), so the sweep takes about 20 minutes for the seven
non-geometry modules on 2 vCPU, and the constant sweep of ``means`` and
``modulus`` (120 mutants) about 30; it is a manual check and stays out of CI.
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
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info", "perfbench/out")


def branch_tests(source: str) -> list[tuple[int, int, int, str, str]]:
    """(line, start column, end column, text, replacement) of every mutant:
    each single-line if/elif test to ``False``, each single-line conditional
    expression test to ``True`` and to ``False``.

    Columns are byte offsets into the UTF-8 encoded line, as ``ast`` reports them.
    """
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.If, ast.IfExp)) and node.test.lineno == node.test.end_lineno:
            line = lines[node.test.lineno - 1].encode()
            start, end = node.test.col_offset, node.test.end_col_offset
            for replacement in ("True", "False") if isinstance(node, ast.IfExp) else ("False",):
                found.append((node.test.lineno, start, end, line[start:end].decode(), replacement))
    return sorted(found)


def constant_mutants(source: str) -> list[tuple[int, int, int, str, str]]:
    """(line, start column, end column, text, replacement) of every constant mutant: each
    nonzero int or float literal on one line inside a comparison, or inside the value of a
    module-level assignment, moved by x0.8 and by x1.25.

    An int moves to the nearest int, and a move that leaves it unchanged is dropped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    roots = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)]
    roots += [node.value for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value]
    found = set()
    for node in (n for root in roots for n in ast.walk(root)):
        if not (isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value
                and node.lineno == node.end_lineno):
            continue
        start, end = node.col_offset, node.end_col_offset
        text = lines[node.lineno - 1].encode()[start:end].decode()
        for factor in (0.8, 1.25):
            moved = node.value * factor
            moved = round(moved) if isinstance(node.value, int) else moved
            if moved != node.value:
                found.add((node.lineno, start, end, text, repr(moved)))
    return sorted(found)


def mutate(source: str, lineno: int, start: int, end: int, replacement: str) -> str:
    lines = source.splitlines(keepends=True)
    line = lines[lineno - 1].encode()
    lines[lineno - 1] = (line[:start] + replacement.encode() + line[end:]).decode()
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
    parser.add_argument("--constants", action="store_true",
                        help="move numeric literals in comparisons and module constants instead of branch tests")
    args = parser.parse_args(argv)
    mutants, kind = (constant_mutants, "constant") if args.constants else (branch_tests, "branch")
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
            tests = mutants(original)
            print(f"{module}: {len(tests)} {kind} mutants", file=sys.stderr)
            for lineno, start, end, text, replacement in tests:
                target.write_text(mutate(original, lineno, start, end, replacement))
                if passes(tree):
                    survivors.append(f"{module}:{lineno}:{start}: {text} -> {replacement}")
                    print(f"  survivor {survivors[-1]}", file=sys.stderr)
            target.write_text(original)
    for line in survivors:
        print(line)
    print(f"{len(survivors)} survivor(s)", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
