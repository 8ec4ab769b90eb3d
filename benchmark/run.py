"""End-to-end benchmark of qimatch through its command line entry point.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload match-1024x2 --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py                  # every workload, untraced and traced

One workload runs in one process, one op at a time.  An op is one or two
in-process calls to ``qimatch.cli.main(argv)`` on PGM files generated from
``--seed``; every op's output is checked outside the timed region.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced and
traced, and it holds the per-layer metrics taken from the traced rounds plus
the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# One op at a time and no worker threads, also inside numpy's libraries.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

import checks
from checks import Failure
from instances import Instance, make_instance, write_pair
from spans import Recorder

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SAMPLES = 1000
TABLE_MAX_A = 65536
SETUP_REPEATS = 5
# Imports are timed in fresh interpreters, so set-up can be repeated in a run.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import qimatch.cli\n"
    "print(time.perf_counter() - t0)\n"
)
# The multi-mark instance and its sampling seed do not depend on --seed, so
# its op fails the same way in every run while the planner ignores M.
MULTI_MARK_SEED = 4096
MULTI_MARK_FAULT = (
    "multi-mark: grover.plan_iterations plans rounds and predicts success for one "
    "marked position whatever marking.marked_set returns"
)

END_TO_END = {"op_s": "s", "op_cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    "images.load_s": "s", "images.load_bytes": "B", "images.encode_s": "s",
    "marking.mark_s": "s", "marking.branches": "count", "marking.state_mb": "MiB",
    "grover.plan_s": "s", "grover.plan_calls": "count",
    "grover.amplify_s": "s", "grover.rounds": "count", "grover.amp_ops": "count",
    "grover.sample_s": "s", "grover.samples": "count",
    "verify.scan_s": "s", "verify.comparisons": "count",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Op:
    """One timed unit of work: the argv of each ``cli.main`` call, and its check."""

    calls: list[list[str]]
    check: Callable[[list[int]], list[Failure]]
    outputs: list[Path]
    known_fault: frozenset[str] = frozenset()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known: int = 0
    correct: bool = True
    first_known: list[Failure] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)


def import_program():
    """Import qimatch from this checkout's ``src`` and nowhere else."""
    if not (SRC / "qimatch" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'qimatch'} not found; run from a qimatch checkout")
    sys.path.insert(0, str(SRC))
    import qimatch.cli

    if Path(qimatch.cli.__file__).resolve().parent != (SRC / "qimatch").resolve():
        raise SystemExit(f"error: imported qimatch from {qimatch.cli.__file__}, not {SRC}")
    return qimatch.cli


def import_seconds() -> float:
    """Time ``import qimatch.cli``, numpy included, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def match_op(stem: str, inst: Instance, seed: int, known_fault: frozenset[str] = frozenset(),
             verify: bool = False) -> Op:
    big, small, report = OUT / f"{stem}_big.pgm", OUT / f"{stem}_small.pgm", OUT / f"{stem}.json"
    write_pair(inst, big, small)
    argv = ["match", "--big", str(big), "--small", str(small), "--mode", "exact",
            "--samples", str(SAMPLES), "--seed", str(seed), "--json", str(report)]
    if verify:
        argv.append("--verify")

    def check(codes: list[int]) -> list[Failure]:
        data = json.loads(report.read_text(encoding="utf-8")) if report.exists() else {}
        out = checks.check_match(data, codes[0], inst, SAMPLES)
        return out + checks.check_verify(data, inst) if verify else out

    return Op([argv], check, [report], known_fault)


def build_match_1024x2(seed: int) -> list[Op]:
    inst = make_instance(np.random.default_rng(seed), 1024, 2, 8, anchors=1)
    return [match_op("match-1024x2", inst, seed)]


def build_match_256x16(seed: int) -> list[Op]:
    single = make_instance(np.random.default_rng(seed), 256, 16, 8, anchors=1)
    multi = make_instance(np.random.default_rng(MULTI_MARK_SEED), 256, 16, 8, anchors=4)
    return [
        match_op("match-256x16-single", single, seed),
        match_op("match-256x16-multi", multi, MULTI_MARK_SEED, checks.MULTI_MARK_CHECKS),
    ]


def build_audit_512(seed: int) -> list[Op]:
    inst = make_instance(np.random.default_rng(seed), 512, 2, 16, anchors=1)
    op = match_op("audit-512", inst, seed, verify=True)
    table = OUT / "audit-512-table1.csv"
    op.calls.append(["table1", "--max-a", str(TABLE_MAX_A), "--csv", str(table)])
    op.outputs.append(table)
    match_check = op.check

    def check(codes: list[int]) -> list[Failure]:
        text = table.read_text(encoding="utf-8") if table.exists() else ""
        return match_check(codes) + checks.check_table(text, codes[1], TABLE_MAX_A)

    op.check = check
    return [op]


# Why each workload is here: see README.md and BENCHMARK.json.
WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "match-1024x2": build_match_1024x2,
    "match-256x16": build_match_256x16,
    "audit-512": build_audit_512,
}


def run_op(cli, op: Op, tally: Tally, recorder: Recorder | None) -> None:
    """Run one op, check its output and add it to ``tally``."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    codes: list[int] = []
    crash = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with redirect_stdout(io.StringIO()), (recorder.op() if recorder else nullcontext()):
            for argv in op.calls:
                codes.append(cli.main(argv))
    except Exception as exc:  # a crashing op is a failed op with a wrong output
        crash = Failure("exception", repr(exc))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    tally.attempted += 1
    failures = [crash] if crash else op.check(codes)
    if failures:
        tally.failed += 1
        if {f.check for f in failures} <= op.known_fault:
            tally.known += 1
            tally.first_known = tally.first_known or failures
        else:
            tally.correct = False
            for f in failures:
                print(f"check failed: {f}", file=sys.stderr)
    if recorder is None:
        tally.walls.append(wall)
        tally.cpus.append(cpu)
    else:
        tally.traced_walls.append(wall)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    cli = import_program()
    OUT.mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = time.perf_counter()
        ops = WORKLOADS[name](seed)
        setups.append(imported + time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    tally = Tally()
    for op in ops:  # one checked, untimed round: the first op in a process pays for lazy set-up
        run_op(cli, op, tally, None)
    tally.walls.clear()
    tally.cpus.clear()

    recorder = Recorder() if trace else None
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            run_op(cli, op, tally, None)
        if recorder is not None:
            recorder.install()
            try:
                for op in ops:
                    run_op(cli, op, tally, recorder)
            finally:
                recorder.uninstall()
        if time.perf_counter() >= deadline:
            break

    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{tally.attempted} ops attempted, {tally.failed} failed, {len(tally.walls)} timed")
    if tally.known:
        print(f"known fault {MULTI_MARK_FAULT}; {tally.known} of {tally.attempted} ops fail it, "
              f"e.g. {'; '.join(str(f) for f in tally.first_known)}")

    if recorder is None:
        values = {
            "op_s": statistics.median(tally.walls),
            "op_cpu_s": statistics.median(tally.cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units = END_TO_END
    else:
        values = layer_medians(recorder)
        values["trace.overhead_s"] = statistics.median(tally.traced_walls) - statistics.median(tally.walls)
        for target in recorder.absent:
            print(f"absent: {target} no longer exists; its metrics read 0", file=sys.stderr)
        recorder.dump(OUT / f"{name}.trace.json")
        units = PER_LAYER

    for key, unit in units.items():
        print(f"  {key:<20} {values[key]:.6g} {unit}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def layer_medians(recorder: Recorder) -> dict[str, float]:
    ops = recorder.per_op()
    return {k: statistics.median(op.get(k, 0.0) for op in ops)
            for k in PER_LAYER if k != "trace.overhead_s"}


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced, each in a fresh process."""
    merged: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False, timeout=900)
            lines = proc.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            if trace == 0:
                attempted += result["attempted"]
                failed += result["failed"]
            for key, metric in result["metrics"].items():
                merged[f"{name}.{key}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=1, help="instance seed (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed rounds of one run last (default 10)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
