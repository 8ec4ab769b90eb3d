"""Independent checks of ``qimatch`` outputs.

Every expected value is computed here from the instance and the paper's
formulas, without calling into ``qimatch``.  Each check function returns a
list of :class:`Failure`; an empty list means the output is right.

Planned rounds: for one marked position the paper's rule applies, the first
i >= 1 with i**4 + 4i**3 + (2-3a**2)i**2 + (-1-6a**2)i + 1.5a**4 - 1.5a**2 < 0,
evaluated here in exact integers (the quartic times two).  For M > 1 marked
positions among N = 4**n the rule is the one of Boyer, Brassard, Hoyer and
Tapp, round(pi/(4*theta) - 1/2) with theta = asin(sqrt(M/N)), and 0 rounds
once M >= N/2.  The success probability after r rounds is
sin((2r+1)*theta)**2 in both cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from instances import Instance, anchor_positions

SUCCESS_TOL = 1e-9
MIN_TARGET_SHARE = 0.99

# Checks a known program fault is allowed to fail: the planner ignores the
# number of marked positions, so a multi-mark instance gets the single-mark
# round count, a wrong predicted success and a top position off the marked set.
MULTI_MARK_CHECKS = frozenset({"plan.iterations", "plan.predicted_success", "result.top_index"})


@dataclass(frozen=True)
class Failure:
    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


def quartic_doubled(i: int, a: int) -> int:
    """Twice the planning quartic at (i, a), in exact integers."""
    a2 = a * a
    return 2 * i**4 + 8 * i**3 + (4 - 6 * a2) * i * i - (2 + 12 * a2) * i + 3 * a2 * a2 - 3 * a2


def first_sign_change(a: int) -> int:
    """Smallest i >= 1 at which the planning quartic is negative.

    The quartic falls monotonically over [1, a], so the walk starts from the
    linear estimate 0.7962*a and steps to the boundary, which it then checks
    from both sides.
    """
    i = max(1, round(0.7962 * a))
    while i > 1 and quartic_doubled(i - 1, a) < 0:
        i -= 1
    while quartic_doubled(i, a) >= 0:
        i += 1
    if quartic_doubled(i, a) >= 0 or (i > 1 and quartic_doubled(i - 1, a) < 0):
        raise ArithmeticError(f"no clean sign change of the quartic at side {a}")
    return i


def angle(marked: int, positions: int) -> float:
    return math.asin(math.sqrt(marked / positions))


def expected_rounds(side: int, marked: int) -> int:
    """Rounds the planner should choose for ``marked`` positions at width ``side``."""
    positions = side * side
    if marked == 1:
        return first_sign_change(side)
    if 2 * marked >= positions:
        return 0
    # round(pi/(4*theta) - 1/2), halves rounded up
    return math.floor(math.pi / (4 * angle(marked, positions)))


def success_probability(rounds: int, marked: int, positions: int) -> float:
    return math.sin((2 * rounds + 1) * angle(marked, positions)) ** 2


def fit_rounds(a: int) -> int:
    return max(1, math.floor(0.7962 * a - 0.6057 + 0.5))


def check_match(report: dict, exit_code: int, inst: Instance, samples: int) -> list[Failure]:
    """Check one ``qimatch match --json`` report against the instance."""
    out: list[Failure] = []
    if exit_code != 0:
        out.append(Failure("exit_code", f"{exit_code} != 0"))
    side = inst.side
    positions = side * side
    marked = [y * side + x for x, y in anchor_positions(inst.big, inst.small)]
    result, plan = report.get("result", {}), report.get("plan", {})

    if result.get("marked_count") != len(marked):
        out.append(Failure("result.marked_count", f"{result.get('marked_count')} != {len(marked)}"))
    rounds = plan.get("iterations")
    want = expected_rounds(side, len(marked))
    if rounds != want:
        out.append(Failure("plan.iterations", f"{rounds} != {want} for {len(marked)} mark(s)"))
    if isinstance(rounds, int) and rounds >= 0:
        p = success_probability(rounds, len(marked), positions)
        got = plan.get("predicted_success")
        if not isinstance(got, float) or abs(got - p) > SUCCESS_TOL:
            out.append(Failure("plan.predicted_success", f"{got!r} != {p!r} after {rounds} rounds"))

    top = result.get("top_index")
    if top not in marked:
        out.append(Failure("result.top_index", f"{top} is not one of the {len(marked)} marked positions"))
    elif len(marked) == 1 and top != inst.plant_index:
        out.append(Failure("result.top_index", f"{top} != planted {inst.plant_index}"))

    counts = report.get("samples", {}).get("counts", {})
    drawn = sum(counts.values())
    if drawn != samples:
        out.append(Failure("samples.counts", f"counts sum to {drawn}, not {samples}"))
    if len(marked) == 1:
        hits = counts.get(str(inst.plant_index), 0)
        if hits < MIN_TARGET_SHARE * samples:
            out.append(Failure("samples.target_share", f"{hits} of {samples} draws on the target"))
    return out


def check_verify(report: dict, inst: Instance) -> list[Failure]:
    """Check the ``verify`` block of a ``match --verify`` report."""
    out: list[Failure] = []
    block = report.get("verify", {})
    # make_instance has checked with numpy that the plant is the only full-block match.
    full = [list(inst.plant)]
    if block.get("full_block") != full:
        out.append(Failure("verify.full_block", f"{block.get('full_block')} != {full}"))
    anchors = anchor_positions(inst.big, inst.small)
    if block.get("anchor") != anchors:
        out.append(Failure("verify.anchor", f"{block.get('anchor')} != {anchors}"))
    return out


def check_table(csv_text: str, exit_code: int, max_a: int) -> list[Failure]:
    """Check every row of ``qimatch table1 --csv`` output up to side ``max_a``."""
    out: list[Failure] = []
    if exit_code != 0:
        out.append(Failure("exit_code", f"{exit_code} != 0"))
    lines = csv_text.strip().splitlines()
    header = "a,i_exact,i_fit,i_optimal,predicted_success,lower_bound"
    if not lines or lines[0] != header:
        return out + [Failure("table.header", f"{lines[:1]} != [{header!r}]")]
    sides = [1 << k for k in range(2, max_a.bit_length())]
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 6 for r in rows):
        return out + [Failure("table.columns", "a row does not have 6 fields")]
    if [r[0] for r in rows] != [str(a) for a in sides]:
        return out + [Failure("table.sides", f"rows {[r[0] for r in rows]} != {sides}")]

    for (_, exact, fit, optimal, success, bound), a in zip(rows, sides):
        theta = angle(1, a * a)

        def p(i: int) -> float:
            return math.sin((2 * i + 1) * theta) ** 2

        want = first_sign_change(a)
        if int(exact) != want:
            out.append(Failure("table.i_exact", f"a={a}: {exact} != {want}"))
        if int(fit) != fit_rounds(a):
            out.append(Failure("table.i_fit", f"a={a}: {fit} != {fit_rounds(a)}"))
        i = int(optimal)
        if not p(i - 1) <= p(i) > p(i + 1):
            out.append(Failure("table.i_optimal", f"a={a}: {i} is not a local maximum of p(i)"))
        if abs(float(success) - p(int(exact))) > SUCCESS_TOL:
            out.append(Failure("table.predicted_success", f"a={a}: {success} != {p(int(exact))!r}"))
        if not float(bound) <= float(success):
            out.append(Failure("table.lower_bound", f"a={a}: {bound} > {success}"))
    return out
