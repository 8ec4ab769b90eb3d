"""Command line front end.

Subcommands:

* ``match``    locate a small PGM inside a big PGM and report the result
* ``table1``   tabulate planned iteration counts across image sizes
* ``example``  run the built-in pair end to end with exact fractions
* ``analyze``  sweep the two-value recurrence for one image size

Exit codes: 0 success, 1 I/O error, 2 validation error, 3 no match found.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import grover, marking, verify
from .images import Image, PgmError, ValidationError, encode_gqir, load_pgm, validate_pair
from .sample import sample_pair

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NO_MATCH = 3

_MODES = {m.value: m for m in grover.PlanMode}


@dataclass
class MatchReport:
    """Everything one match run produced, serializable in fixed key order."""

    dims: dict
    plan: dict
    top_index: int | None
    x: int | None
    y: int | None
    marked_count: int
    verification: dict | None = None
    seed: int = 0
    counts: dict[int, int] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)

    def to_dict(self, with_timings: bool = False) -> dict:
        out = {
            "dims": self.dims,
            "plan": self.plan,
            "result": {
                "top_index": self.top_index,
                "x": self.x,
                "y": self.y,
                "marked_count": self.marked_count,
            },
        }
        if self.verification is not None:
            out["verify"] = self.verification
        out["samples"] = {
            "seed": self.seed,
            "counts": {str(k): self.counts[k] for k in sorted(self.counts)},
        }
        if with_timings:
            out["timings_ms"] = self.timings_ms
        return out


class _StageTimer:
    def __init__(self) -> None:
        self.timings_ms: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def lap(self, name: str) -> None:
        t = time.perf_counter()
        self.timings_ms[name] = round((t - self._t0) * 1000.0, 3)
        self._t0 = t


def _read_images(big_path: str, small_path: str) -> tuple[Image, Image]:
    with open(big_path, "rb") as fh:
        big = load_pgm(fh.read())
    with open(small_path, "rb") as fh:
        small = load_pgm(fh.read())
    return big, small


def cmd_match(args: argparse.Namespace) -> int:
    if args.samples < 1:
        print("error: --samples must be at least 1", file=sys.stderr)
        return EXIT_VALIDATION
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return EXIT_VALIDATION
    if args.iterations is not None and args.iterations < 0:
        print("error: --iterations must be non-negative", file=sys.stderr)
        return EXIT_VALIDATION

    timer = _StageTimer()
    try:
        big, small = _read_images(args.big, args.small)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PgmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    timer.lap("load")

    try:
        dims = validate_pair(big, small)
        big_enc = encode_gqir(big, dims)
        small_enc = encode_gqir(small, dims)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    timer.lap("encode")

    state = marking.apply_marking(marking.apply_comparison(marking.prepare_initial(big_enc, small_enc)))
    marked = marking.marked_set(state)
    timer.lap("mark")

    mode = _MODES[args.mode]
    plan = grover.plan_iterations(dims.side, mode, marked=len(marked))
    iterations = plan.iterations
    predicted = plan.predicted_success
    if args.iterations is not None:
        iterations = args.iterations
        predicted = grover.success_probability(dims.side, iterations, len(marked))
    timer.lap("plan")

    final = grover.amplify(dims.n, marked, iterations)
    timer.lap("amplify")

    counts = grover.sample_groups(final, seed=args.seed, samples=args.samples)
    timer.lap("sample")

    top = final.top_index()
    no_match = top is None
    x, y = (None, None) if no_match else (top % dims.side, top // dims.side)

    verification = None
    if args.verify:
        full = verify.classical_match(big, small, verify.MatchMode.FULL_BLOCK)
        anchor = verify.classical_match(big, small, verify.MatchMode.ANCHOR_PIXEL)
        verification = {
            "full_block": [list(loc) for loc in full.locations],
            "anchor": [list(loc) for loc in anchor.locations],
        }
        timer.lap("verify")

    report = MatchReport(
        dims={"n": dims.n, "m": dims.m, "q": dims.bit_depth, "a": dims.side},
        plan={
            "mode": mode.value,
            "iterations": iterations,
            "predicted_success": predicted,
            "lower_bound": plan.lower_bound,
        },
        top_index=top,
        x=x,
        y=y,
        marked_count=len(marked),
        verification=verification,
        seed=args.seed,
        counts=counts,
        timings_ms=timer.timings_ms,
    )

    print(f"instance: big {big.width}x{big.height}, small {small.width}x{small.height}, "
          f"bit depth {dims.bit_depth}")
    print(f"plan: mode={mode.value} iterations={iterations} "
          f"predicted_success={predicted:.6f} lower_bound={plan.lower_bound:.6f}")
    print(f"marked positions: {len(marked)}")
    if no_match:
        print("no match: no position was flagged; final state stays uniform")
    else:
        print(f"top position: index {top} -> (x={x}, y={y})")
    shown = sorted(counts.items(), key=lambda kv: -kv[1])[:4]
    summary = ", ".join(f"{idx}:{c}" for idx, c in shown)
    print(f"sampled {args.samples} draw(s) with seed {args.seed}: {summary}")
    if verification is not None:
        print(f"classical full-block matches: {verification['full_block']}")
        print(f"classical anchor matches: {verification['anchor']}")
        if not no_match and [x, y] not in verification["full_block"]:
            print("verification: top position is NOT a full-block match", file=sys.stderr)
    if args.timings:
        print("timings_ms: " + ", ".join(f"{k}={v}" for k, v in timer.timings_ms.items()))

    if args.json:
        payload = json.dumps(report.to_dict(with_timings=args.timings), indent=2) + "\n"
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO

    return EXIT_NO_MATCH if no_match else EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    modes = []
    for name in args.modes.split(","):
        name = name.strip()
        if name not in _MODES:
            print(f"error: unknown mode {name!r}", file=sys.stderr)
            return EXIT_VALIDATION
        modes.append(_MODES[name])
    a_max = args.max_a
    if a_max < 4 or a_max & (a_max - 1):
        print(f"error: --max-a must be a power of two >= 4, got {a_max}", file=sys.stderr)
        return EXIT_VALIDATION

    header = ["a"] + [f"i_{m.value}" for m in modes] + ["predicted_success", "lower_bound"]
    rows = []
    a = 4
    while a <= a_max:
        plans = {m: grover.plan_iterations(a, m) for m in modes}
        lead = plans[modes[0]]
        rows.append(
            [str(a)]
            + [str(plans[m].iterations) for m in modes]
            + [repr(lead.predicted_success), repr(lead.lower_bound)]
        )
        a *= 2

    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(v.rjust(w) for v, w in zip(r, widths)))

    if args.csv:
        text = ",".join(header) + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def cmd_example(args: argparse.Namespace) -> int:
    big, small = sample_pair()
    dims = validate_pair(big, small)
    state = marking.apply_marking(
        marking.apply_comparison(
            marking.prepare_initial(encode_gqir(big, dims), encode_gqir(small, dims))
        )
    )
    marked = marking.marked_set(state)
    plan = grover.plan_iterations(dims.side, grover.PlanMode.EXACT)

    print(f"demonstration pair: big {dims.side}x{dims.side}, small "
          f"{small.width}x{small.height}, bit depth {dims.bit_depth}")
    print(f"marked positions: {sorted(marked)}")
    print(f"planned rounds (exact): {plan.iterations}")

    failures = []
    if marked != {5}:
        failures.append(f"marked set {sorted(marked)} != [5]")
    if plan.iterations != 3:
        failures.append(f"planned rounds {plan.iterations} != 3")

    expected = [
        (Fraction(3, 16), Fraction(11, 16)),
        (Fraction(5, 64), Fraction(61, 64)),
        (Fraction(-13, 256), Fraction(251, 256)),
    ]
    pair = grover.AmplitudePair(
        unmarked=Fraction(1, 4), marked=Fraction(1, 4), iteration=0, side=4
    )
    for want_unmarked, want_marked in expected:
        pair = grover.recurrence_step(pair)
        print(f"round {pair.iteration}: unmarked {pair.unmarked}, marked {pair.marked}")
        if (pair.unmarked, pair.marked) != (want_unmarked, want_marked):
            failures.append(
                f"round {pair.iteration}: got ({pair.unmarked}, {pair.marked}), "
                f"want ({want_unmarked}, {want_marked})"
            )

    overshoot = grover.recurrence_step(pair)
    print(f"one more round would give marked {overshoot.marked} < {pair.marked}")
    if overshoot.marked != Fraction(781, 1024):
        failures.append(f"overshoot {overshoot.marked} != 781/1024")

    success = float(pair.marked) ** 2
    other = float(pair.unmarked) ** 2
    bound = grover.probability_lower_bound(dims.side)
    print(f"success probability ({pair.marked})^2 = {success:.4f}")
    print(f"other-pixel probability ({pair.unmarked})^2 = {other:.6f}")
    print(f"guaranteed lower bound at side {dims.side}: {bound:.4f}")
    print(f"bound check: {success:.4f} >= {bound:.4f}")
    if abs(success - 0.9613) > 1e-4:
        failures.append(f"success probability {success} not within 1e-4 of 0.9613")
    if abs(other - 0.002579) > 1e-6:
        failures.append(f"other-pixel probability {other} not within 1e-6 of 0.002579")
    if not success >= bound:
        failures.append(f"success probability {success} below bound {bound}")

    final = grover.run_grover(grover.init_subspace(dims.n, marked), plan.iterations)
    if float(final.amplitudes[5]) != float(Fraction(251, 256)):
        failures.append("vector engine disagrees with the exact recurrence")
    top = int(np.argmax(final.probabilities()))
    print(f"target location: index {top} -> (x={top % dims.side}, y={top // dims.side})")

    if failures:
        for f in failures:
            print(f"MISMATCH: {f}", file=sys.stderr)
        return EXIT_IO
    print("all checks passed")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    a = args.a
    if a < 2 or a & (a - 1):
        print(f"error: --a must be a power of two >= 2, got {a}", file=sys.stderr)
        return EXIT_VALIDATION
    sweep = args.sweep_i if args.sweep_i is not None else 2 * a
    plan_exact = grover.plan_iterations(a, grover.PlanMode.EXACT)
    plan_opt = grover.plan_iterations(a, grover.PlanMode.OPTIMAL)

    pair = grover.initial_pair(a)
    values = [pair]
    for _ in range(sweep):
        pair = grover.recurrence_step(pair)
        values.append(pair)

    print(f"{'i':>6}  {'unmarked':>22}  {'marked':>22}  {'marked^2':>22}  flags")
    for p in values:
        flags = []
        if p.iteration == plan_opt.iterations:
            flags.append("peak")
        if p.iteration == plan_exact.iterations:
            flags.append("plan")
        print(f"{p.iteration:>6}  {p.unmarked:>22.16f}  {p.marked:>22.16f}  "
              f"{p.marked * p.marked:>22.16f}  {','.join(flags)}")
    print(f"first local maximum of marked^2: i={plan_opt.iterations}")
    print(f"planned rounds (exact): i={plan_exact.iterations}")
    return EXIT_OK


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
    p_match.add_argument("--mode", choices=sorted(_MODES), default="exact",
                         help="iteration planning mode (default: exact)")
    p_match.add_argument("--iterations", type=int, default=None,
                         help="override the planned iteration count")
    p_match.add_argument("--samples", type=int, default=1,
                         help="number of measurement draws (default: 1)")
    p_match.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p_match.add_argument("--verify", action="store_true",
                         help="run the exhaustive classical matcher alongside")
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
                           help="largest round index to print (default: 2*a)")
    p_analyze.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
