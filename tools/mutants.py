"""One-token mutation probe: do the tests notice when one operator or constant changes?

For each mutable token of a module under ``src/qimatch`` the probe writes the
module with that one token changed into a temporary copy of ``src/`` and runs
the module's test files (``TESTS``) with ``pytest -x -q`` against the copy.
A mutant the tests fail on, or time out on, is killed; one they pass
survives.  Hypothesis draws from a fixed seed, so a run's verdicts depend on
the code and the tests alone, and two checkouts can be compared mutant by
mutant.  The source tree is never written, so an interrupted run leaves
nothing behind.

The mutations are a comparison swapped for its neighbour (``<`` and ``<=``,
``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and
``not in``), ``+`` and ``-``, ``*`` and ``//``, ``and`` and ``or``, and an
int constant plus 1.  A mutant is written with ``ast.unparse``, so the
unmutated round trip must pass the tests first, or the run stops.

Usage, from the repository root::

    python tools/mutants.py src/qimatch/marking.py [more modules]

Test runs go one per CPU.  Each mutant prints one line, and each module a
summary ``killed K/T``.  A survivor that ``tools/equivalent_mutants.json``
lists as equivalent (a change the program's results cannot show, such as a
speed-only constant, each with its reason) is reported as such; any other
survivor makes the run exit 1.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = ROOT / "tools" / "equivalent_mutants.json"

# The test files that exercise each module, run for every mutant of it.
# Every module under src/qimatch has an entry.
TESTS = {
    "images.py": ["tests/test_images.py", "tests/test_pgm_properties.py", "tests/test_marking.py",
                  "tests/test_verify.py", "tests/test_pipeline.py"],
    "marking.py": ["tests/test_marking.py", "tests/test_pipeline.py", "tests/test_acceptance.py"],
    "verify.py": ["tests/test_verify.py", "tests/test_marking.py", "tests/test_acceptance.py",
                  "tests/test_grover.py", "tests/test_planning.py"],
    "grover.py": ["tests/test_grover.py", "tests/test_planning.py", "tests/test_pipeline.py",
                  "tests/test_acceptance.py", "tests/test_cli.py"],
    "pipeline.py": ["tests/test_pipeline.py", "tests/test_cli.py"],
    "cli.py": ["tests/test_cli.py", "tests/test_pipeline.py", "tests/test_cli_properties.py"],
    "sample.py": ["tests/test_cli.py", "tests/test_acceptance.py"],
    "__init__.py": ["tests/test_pipeline.py"],
    "__main__.py": ["tests/test_cli.py"],
}

SWAPS: dict[type, type] = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.Add: "+",
    ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.And: "and", ast.Or: "or",
}

# Each test run caps its own address space at CAP_MB, so a mutant that lifts
# a size check fails with MemoryError instead of exhausting the host.
CAP_MB = 2048
_CHILD = ("import resource, sys; cap = int(sys.argv[1]); "
          "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
          "import pytest; sys.exit(pytest.main(sys.argv[2:]))")


@dataclass(frozen=True)
class Mutant:
    """One changed token: where it is, what it became, and the module's new source.

    ``key`` names the mutant by its line's text rather than its number, so
    the list of accepted equivalents survives edits elsewhere in the module.
    """

    lineno: int
    col: int
    mutation: str
    key: str
    source: str


def _sites(tree: ast.Module) -> list[tuple[int, int, int, int]]:
    """(lineno, col, node index in ``ast.walk`` order, operator index) of each mutable token."""
    sites = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            sites += [(node.lineno, node.col_offset, i, j)
                      for j, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            sites.append((node.lineno, node.col_offset, i, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((node.lineno, node.col_offset, i, 0))
    return sorted(sites)


def _mutate(node: ast.AST, j: int) -> str:
    """Change one token of ``node`` in place and describe the change."""
    if isinstance(node, ast.Constant):
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    if isinstance(node, ast.Compare):
        old = type(node.ops[j])
        node.ops[j] = SWAPS[old]()
    else:
        old = type(node.op)
        node.op = SWAPS[old]()
    return f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"


def mutants(source: str) -> list[Mutant]:
    """Every one-token mutant of ``source``, in source order."""
    lines = source.splitlines()
    seen: dict[str, int] = {}
    out = []
    for lineno, col, i, j in _sites(ast.parse(source)):
        tree = ast.parse(source)
        mutation = _mutate(list(ast.walk(tree))[i], j)
        key = f"{lines[lineno - 1].strip()}: {mutation}"
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        out.append(Mutant(lineno, col, mutation, key, ast.unparse(tree)))
    return out


def _run_tests(src: Path, tests: list[str], timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for ``tests`` importing qimatch from ``src``."""
    with tempfile.TemporaryDirectory() as storage:
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=storage, OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1")
        argv = [sys.executable, "-c", _CHILD, str(CAP_MB << 20),
                "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout"


def probe(module: Path, jobs: int, accepted: dict[str, str]) -> list[str]:
    """Run and print every mutant of ``module``; return the survivors ``accepted`` does not list."""
    name = module.name
    tests = TESTS[name]
    source = module.read_text()
    found = mutants(source)
    with tempfile.TemporaryDirectory() as scratch:
        copies: Queue[Path] = Queue()
        for k in range(jobs):
            copy = Path(scratch) / f"src{k}"
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            copies.put(copy)
        target = module.resolve().relative_to(ROOT / "src")

        def run(text: str, timeout: float) -> str:
            copy = copies.get()
            try:
                (copy / target).write_text(text)
                return _run_tests(copy, tests, timeout)
            finally:
                (copy / target).write_text(source)
                copies.put(copy)

        start = time.monotonic()
        if run(ast.unparse(ast.parse(source)), 600) != "passed":
            raise SystemExit(f"{name}: {' '.join(tests)} fail on the unmutated round trip")
        timeout = 5 * (time.monotonic() - start) + 30
        with ThreadPoolExecutor(jobs) as pool:
            results = list(pool.map(lambda m: run(m.source, timeout), found))

    killed, survivors = 0, []
    for m, result in zip(found, results):
        status = "killed" if result != "passed" else "SURVIVED"
        if result == "timeout":
            status += " (timeout)"
        if result == "passed":
            if f"{name}: {m.key}" in accepted:
                status = "survived, equivalent: " + accepted[f"{name}: {m.key}"]
            else:
                survivors.append(m.key)
        killed += result != "passed"
        print(f"{name}:{m.lineno}:{m.col}  {m.mutation:<12} {status}  [{m.key}]", flush=True)
    print(f"{name}: killed {killed}/{len(found)} ({len(found) - killed} survived, "
          f"{len(survivors)} not listed as equivalent) with {len(tests)} test files", flush=True)
    return survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path, help="modules under src/qimatch")
    args = parser.parse_args(argv)
    unknown = [str(m) for m in args.modules if m.name not in TESTS]
    if unknown:
        parser.error(f"no test map for {', '.join(unknown)}; known: {', '.join(TESTS)}")
    jobs = os.cpu_count() or 1
    accepted = {f"{e['module']}: {e['mutant']}": e["reason"]
                for e in json.loads(EQUIVALENT.read_text())}
    failed = False
    for module in args.modules:
        failed |= bool(probe(module, jobs, accepted))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
