"""Command line front end.

Subcommands:

* ``match``    locate a small PGM inside a big PGM and report the result
* ``table1``   tabulate planned iteration counts across image sizes
* ``example``  run the built-in pair end to end with exact fractions
* ``analyze``  sweep the two-value recurrence for one image size

``match`` applies the rounds planned for the marked count it found; other
counts go through :mod:`qimatch.grover`.  Exit codes: 0 success, 1 I/O
error, 2 validation error (a bad PGM or pair, or an argument out of range),
3 no match found.  Commands raise OSError, PgmError and ValidationError;
:func:`main` alone turns those into an exit code and one ``error:`` stderr
line.  Every argument rule is the library's, message included
(``images.as_count``/``as_side``).  No command compares its
output against a frozen value or loads the test oracles in
:mod:`qimatch.verify`.

The argument parser is built once per process, on the first :func:`main`
call, and reused by every later call; parsing keeps no state between calls.
When ``argv[0]`` names a command, :func:`main` hands ``argv[1:]`` straight
to that command's parser, so the arguments are parsed once; any other argv
goes through the top-level parser, which prints the usage or the error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import grover, marking, pipeline
from .images import PgmError, ValidationError, as_side, load_pgm
from .sample import sample_pair

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NO_MATCH = 3

# analyze prints rounds 0..min(2*a, SWEEP_CAP), so its output stays bounded
# at every side it accepts.
SWEEP_CAP = 4096


def _locations(indices: np.ndarray, side: int) -> list[list[int]]:
    """Big-image indices as ``[x, y]`` pairs, in the indices' order."""
    ys, xs = np.divmod(indices, side)
    return np.stack((xs, ys), axis=1).tolist()


def _match_report(
    outcome: pipeline.Outcome,
    seed: int,
    verification: dict | None,
    timings_ms: dict[str, float] | None,
) -> dict:
    """The ``--json`` report of one match run, in fixed key order."""
    dims, final = outcome.dims, outcome.final
    top = final.top_index()
    report = {
        "dims": {"n": dims.n, "m": dims.m, "q": dims.bit_depth, "a": dims.side},
        "plan": {
            "mode": outcome.plan.mode.value,
            "iterations": outcome.plan.iterations,
            "predicted_success": final.probability,
            "lower_bound": outcome.plan.lower_bound,
        },
        "result": {
            "top_index": top,
            "x": None if top is None else top % dims.side,
            "y": None if top is None else top // dims.side,
            "marked_count": len(final.marked),
        },
    }
    if verification is not None:
        report["verify"] = verification
    # json writes the int keys as the decimal strings str() gives.
    report["samples"] = {"seed": seed, "counts": outcome.counts}
    if timings_ms is not None:
        report["timings_ms"] = timings_ms
    return report


def cmd_match(args: argparse.Namespace) -> int:
    # Checked before either image is read, so a bad flag never costs a load.
    pipeline.check_args(args.mode, args.seed, args.samples)

    timings: dict[str, float] = {}
    start = time.perf_counter()
    with open(args.big, "rb") as fh:
        big = load_pgm(fh.read())
    with open(args.small, "rb") as fh:
        small = load_pgm(fh.read())
    pipeline.lap(timings, "load", start)

    outcome = pipeline.match(big, small, mode=args.mode, seed=args.seed, samples=args.samples)
    timings.update(outcome.timings_ms)

    verification = None
    if args.verify:
        start = time.perf_counter()
        verification = {
            "full_block": _locations(marking.agreeing(big, small, small.array.size), big.width),
            "anchor": _locations(outcome.final.marked, big.width),
        }
        pipeline.lap(timings, "verify", start)

    report = _match_report(outcome, args.seed, verification, timings if args.timings else None)
    plan, result = report["plan"], report["result"]
    no_match = result["top_index"] is None

    print(f"instance: big {big.width}x{big.height}, small {small.width}x{small.height}, "
          f"bit depth {outcome.dims.bit_depth}")
    print(f"plan: mode={plan['mode']} iterations={plan['iterations']} "
          f"predicted_success={plan['predicted_success']:.6f} "
          f"lower_bound={plan['lower_bound']:.6f}")
    print(f"marked positions: {result['marked_count']}")
    if no_match:
        print("no match: no position was flagged; final state stays uniform")
    else:
        print(f"top position: index {result['top_index']} -> (x={result['x']}, y={result['y']})")
    shown = sorted(outcome.counts.items(), key=lambda kv: -kv[1])[:4]
    summary = ", ".join(f"{idx}:{c}" for idx, c in shown)
    print(f"sampled {args.samples} draw(s) with seed {args.seed}: {summary}")
    if verification is not None:
        print(f"full-block matches: {verification['full_block']}")
        print(f"anchor matches: {verification['anchor']}")
        if not no_match and [result["x"], result["y"]] not in verification["full_block"]:
            print("verification: top position is NOT a full-block match", file=sys.stderr)
    if args.timings:
        print("timings_ms: " + ", ".join(f"{k}={v}" for k, v in timings.items()))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report) + "\n")
    return EXIT_NO_MATCH if no_match else EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    a_max = as_side(args.max_a, "--max-a", 4, grover.MAX_PLAN_SIDE)

    # One column per rule, EXACT first; the success and bound are the exact plan's.
    modes = list(grover.PlanMode)
    header = ["a", *(f"i_{m.value}" for m in modes), "predicted_success", "lower_bound"]
    rows = []
    a = 4
    while a <= a_max:
        plans = [grover.plan_iterations(a, m) for m in modes]
        exact = plans[0]
        rows.append(
            [str(a)] + [str(p.iterations) for p in plans]
            + [repr(grover.success_probability(a, exact.iterations)), repr(exact.lower_bound)]
        )
        a *= 2

    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(v.rjust(w) for v, w in zip(r, widths)))

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("".join(",".join(r) + "\n" for r in [header] + rows))
    return EXIT_OK


def cmd_example(args: argparse.Namespace) -> int:
    big, small = sample_pair()
    outcome = pipeline.match(big, small)
    dims, plan = outcome.dims, outcome.plan

    print(f"demonstration pair: big {dims.side}x{dims.side}, small "
          f"{small.width}x{small.height}, bit depth {dims.bit_depth}")
    print(f"marked positions: {outcome.final.marked.tolist()}")
    print(f"planned rounds (exact): {plan.iterations}")

    uniform = Fraction(1, dims.side)
    pair = grover.AmplitudePair(unmarked=uniform, marked=uniform, iteration=0, side=dims.side)
    for _ in range(plan.iterations):
        pair = grover.recurrence_step(pair)
        print(f"round {pair.iteration}: unmarked {pair.unmarked}, marked {pair.marked}")

    overshoot = grover.recurrence_step(pair)
    print(f"one more round would give marked {overshoot.marked} < {pair.marked}")

    success = float(pair.marked) ** 2
    bound = grover.probability_lower_bound(dims.side)
    print(f"success probability ({pair.marked})^2 = {success:.4f}")
    print(f"other-pixel probability ({pair.unmarked})^2 = {float(pair.unmarked) ** 2:.6f}")
    print(f"guaranteed lower bound at side {dims.side}: {bound:.4f}")
    print(f"bound check: {success:.4f} >= {bound:.4f}")

    top = outcome.final.top_index()
    print(f"target location: index {top} -> (x={top % dims.side}, y={top // dims.side})")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    a = as_side(args.a, "--a", 2, grover.MAX_RECURRENCE_SIDE)
    sweep = min(2 * a, SWEEP_CAP)
    exact = grover.plan_iterations(a, grover.PlanMode.EXACT).iterations
    peak = grover.plan_iterations(a, grover.PlanMode.OPTIMAL).iterations

    print(f"{'i':>6}  {'unmarked':>22}  {'marked':>22}  {'marked^2':>22}  flags")
    p = grover.initial_pair(a)
    for i in range(sweep + 1):
        if i:
            p = grover.recurrence_step(p)
        flags = []
        if p.iteration == peak:
            flags.append("peak")
        if p.iteration == exact:
            flags.append("plan")
        print(f"{p.iteration:>6}  {p.unmarked:>22.16f}  {p.marked:>22.16f}  "
              f"{p.marked * p.marked:>22.16f}  {','.join(flags)}")
    print(f"first local maximum of marked^2: i={peak}")
    print(f"planned rounds (exact): i={exact}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qimatch",
        description="Locate a small grayscale image inside a big one with a "
        "simulated amplitude-amplification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its parser, for main

    p_match = sub.add_parser("match", help="match a small PGM inside a big PGM")
    p_match.add_argument("--big", required=True, help="path to the big image (PGM)")
    p_match.add_argument("--small", required=True, help="path to the small image (PGM)")
    p_match.add_argument("--mode", choices=[m.value for m in grover.PlanMode], default="exact",
                         help="planning rule for one marked position (default: exact); "
                         "other counts use optimal, and the report names the rule applied")
    p_match.add_argument("--samples", type=int, default=1,
                         help="number of measurement draws (default: 1)")
    p_match.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p_match.add_argument("--verify", action="store_true",
                         help="also list every full-block location, found by a search "
                         "of its own, and every anchor location, the marked set")
    p_match.add_argument("--json", metavar="PATH", default=None,
                         help="write a JSON report to PATH")
    p_match.add_argument("--timings", action="store_true",
                         help="include wall-clock stage timings in output")
    p_match.set_defaults(func=cmd_match)

    p_table = sub.add_parser("table1", help="tabulate planned iteration counts")
    p_table.add_argument("--max-a", type=int, default=65536,
                         help="largest side length (power of two, default 65536)")
    p_table.add_argument("--csv", metavar="PATH", default=None,
                         help="also write the table as CSV to PATH")
    p_table.set_defaults(func=cmd_table1)

    p_example = sub.add_parser("example", help="run the built-in pair with exact fractions")
    p_example.set_defaults(func=cmd_example)

    p_analyze = sub.add_parser("analyze", help="sweep the amplification recurrence")
    p_analyze.add_argument("--a", type=int, required=True,
                           help=f"side length (power of two); rounds 0 to min(2*a, {SWEEP_CAP}) "
                           "are printed")
    p_analyze.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; see the module docstring."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (OSError, PgmError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
