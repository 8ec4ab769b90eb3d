"""Command line front end.

Subcommands:

* ``match``    locate a small PGM inside a big PGM and report the result
* ``table1``   tabulate planned iteration counts across image sizes
* ``example``  run the built-in pair end to end with exact fractions
* ``analyze``  sweep the two-value recurrence for one image size

Exit codes: 0 success, 1 I/O error, 2 validation error (a bad PGM or pair, an
argument out of range, or an ``--iterations`` count whose phase float64 can no
longer resolve), 3 no match found.  Commands raise OSError, PgmError and
ValidationError; :func:`main` alone turns those into an exit code and one
``error:`` stderr line.  No command compares its output against a frozen value
or loads the test oracles in :mod:`qimatch.verify`.

The argument parser is built once per process, on the first :func:`main`
call, and reused by every later call; parsing keeps no state between calls.
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
from .images import PgmError, ValidationError, load_pgm
from .sample import sample_pair

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NO_MATCH = 3

# Without --sweep-i, analyze prints rounds 0..min(2*a, SWEEP_CAP), so its
# default output stays bounded at every side it accepts.
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
    # The plan's bound holds for the rounds it planned, not for an override.
    planned = final.rounds == outcome.plan.iterations
    report = {
        "dims": {"n": dims.n, "m": dims.m, "q": dims.bit_depth, "a": dims.side},
        "plan": {
            "mode": outcome.plan.mode.value,
            "iterations": final.rounds,
            "predicted_success": final.probability,
            "lower_bound": outcome.plan.lower_bound if planned else None,
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
    report["samples"] = {
        "seed": seed,
        "counts": {str(k): c for k, c in outcome.counts.items()},
    }
    if timings_ms is not None:
        report["timings_ms"] = timings_ms
    return report


def cmd_match(args: argparse.Namespace) -> int:
    # Checked before either image is read, so a bad flag never costs a load.
    if not 1 <= args.samples <= grover.MAX_SAMPLES:
        raise ValidationError("--samples must be in [1, 2^63 - 1]")
    if args.seed < 0:
        raise ValidationError("--seed must be non-negative")
    if args.iterations is not None and not 0 <= args.iterations <= grover.MAX_ROUNDS:
        raise ValidationError("--iterations must be in [0, 2^1023 - 2^969 - 1]")

    timings: dict[str, float] = {}
    start = time.perf_counter()
    with open(args.big, "rb") as fh:
        big = load_pgm(fh.read())
    with open(args.small, "rb") as fh:
        small = load_pgm(fh.read())
    pipeline.lap(timings, "load", start)

    outcome = pipeline.match(big, small, mode=args.mode,
                             iterations=args.iterations, seed=args.seed, samples=args.samples)
    timings.update(outcome.timings_ms)

    verification = None
    if args.verify:
        start = time.perf_counter()
        anchors = outcome.final.marked
        verification = {
            "full_block": _locations(marking.block_matches(big, small, anchors), big.width),
            "anchor": _locations(anchors, big.width),
        }
        pipeline.lap(timings, "verify", start)

    report = _match_report(outcome, args.seed, verification, timings if args.timings else None)
    plan, result = report["plan"], report["result"]
    no_match = result["top_index"] is None
    bound = "n/a" if plan["lower_bound"] is None else f"{plan['lower_bound']:.6f}"

    print(f"instance: big {big.width}x{big.height}, small {small.width}x{small.height}, "
          f"bit depth {outcome.dims.bit_depth}")
    print(f"plan: mode={plan['mode']} iterations={plan['iterations']} "
          f"predicted_success={plan['predicted_success']:.6f} "
          f"lower_bound={bound}")
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
            fh.write(json.dumps(report, indent=2) + "\n")
    return EXIT_NO_MATCH if no_match else EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    modes = []
    for name in args.modes.split(","):
        name = name.strip()
        if name in (m.value for m in modes):
            raise ValidationError(f"repeated mode {name!r}")
        try:
            modes.append(grover.PlanMode(name))
        except ValueError:
            raise ValidationError(f"unknown mode {name!r}") from None
    a_max = args.max_a
    if a_max < 4 or a_max & (a_max - 1):
        raise ValidationError(f"--max-a must be a power of two >= 4, got {a_max}")
    if a_max > grover.MAX_PLAN_SIDE:
        raise ValidationError(f"--max-a 2^{a_max.bit_length() - 1} is past the float64 limit 2^537")

    header = ["a"] + [f"i_{m.value}" for m in modes] + ["predicted_success", "lower_bound"]
    rows = []
    a = 4
    while a <= a_max:
        plans = [grover.plan_iterations(a, m) for m in modes]
        lead = plans[0]
        rows.append(
            [str(a)] + [str(p.iterations) for p in plans]
            + [repr(grover.success_probability(a, lead.iterations)), repr(lead.lower_bound)]
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
    a = args.a
    if a < 2 or a & (a - 1):
        raise ValidationError(f"--a must be a power of two >= 2, got {a}")
    if a > grover.MAX_RECURRENCE_SIDE:
        raise ValidationError(f"--a 2^{a.bit_length() - 1} is past the float64 limit 2^511")
    sweep = args.sweep_i if args.sweep_i is not None else min(2 * a, SWEEP_CAP)
    if sweep < 0:
        raise ValidationError(f"--sweep-i must be non-negative, got {sweep}")
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

    p_match = sub.add_parser("match", help="match a small PGM inside a big PGM")
    p_match.add_argument("--big", required=True, help="path to the big image (PGM)")
    p_match.add_argument("--small", required=True, help="path to the small image (PGM)")
    p_match.add_argument("--mode", choices=[m.value for m in grover.PlanMode], default="exact",
                         help="planning rule for one marked position (default: exact); "
                         "other counts use optimal, and the report names the rule applied")
    p_match.add_argument("--iterations", type=int, default=None,
                         help="override the planned iteration count")
    p_match.add_argument("--samples", type=int, default=1,
                         help="number of measurement draws (default: 1)")
    p_match.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p_match.add_argument("--verify", action="store_true",
                         help="also list every full-block and every anchor location, "
                         "found from the marked set")
    p_match.add_argument("--json", metavar="PATH", default=None,
                         help="write a JSON report to PATH")
    p_match.add_argument("--timings", action="store_true",
                         help="include wall-clock stage timings in output")
    p_match.set_defaults(func=cmd_match)

    p_table = sub.add_parser("table1", help="tabulate planned iteration counts")
    p_table.add_argument("--max-a", type=int, default=65536,
                         help="largest side length (power of two, default 65536)")
    p_table.add_argument("--modes", default="exact,fit,optimal",
                         help="comma-separated planning modes to include")
    p_table.add_argument("--csv", metavar="PATH", default=None,
                         help="also write the table as CSV to PATH")
    p_table.set_defaults(func=cmd_table1)

    p_example = sub.add_parser("example", help="run the built-in pair with exact fractions")
    p_example.set_defaults(func=cmd_example)

    p_analyze = sub.add_parser("analyze", help="sweep the amplification recurrence")
    p_analyze.add_argument("--a", type=int, required=True, help="side length (power of two)")
    p_analyze.add_argument("--sweep-i", type=int, default=None,
                           help=f"largest round index to print (default: 2*a, at most {SWEEP_CAP})")
    p_analyze.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; see the module docstring."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, PgmError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
