"""One match run: validate the pair, find the anchors (agreement at B[0]), plan, amplify and sample.

:func:`match` is the only place this chain is written out; the ``match`` and
``example`` commands and the end-to-end demo call it.  Each refusal on the
way is a ValidationError raised where its rule lives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import grover, marking
from .images import Image, MatchDims, ValidationError, as_count, validate_pair


@dataclass(frozen=True)
class Outcome:
    """What one run produced; ``timings_ms`` gives each stage's wall time in run order.

    ``plan`` holds the rule, rounds and bound planned for the marked count,
    and ``final`` the state those rounds give: the marked indices
    (``final.marked``, sorted) and the success they predict
    (``final.probability``).  The rounds run are ``plan.iterations``, stored
    there alone.
    """

    dims: MatchDims
    plan: grover.IterationPlan
    final: grover.TwoValueState
    counts: dict[int, int]
    timings_ms: dict[str, float]


def lap(timings_ms: dict[str, float], stage: str, start: float) -> float:
    """Record the milliseconds since ``start`` under ``stage``; return the time now."""
    now = time.perf_counter()
    timings_ms[stage] = round((now - start) * 1000.0, 3)
    return now


def check_args(mode: grover.PlanMode | str, seed: int,
               samples: int) -> tuple[grover.PlanMode, int, int]:
    """:func:`match`'s run arguments, checked (ValidationError) and with each count as a Python int."""
    try:
        mode = grover.PlanMode(mode)
    except ValueError:
        raise ValidationError(f"mode must be a PlanMode or one of its values, got {mode!r}") from None
    seed = as_count(seed, "seed", 0)
    samples = as_count(samples, "samples", 1, grover.MAX_SAMPLES, "2^63 - 1")
    return mode, seed, samples


def match(big: Image, small: Image, *, mode: grover.PlanMode | str = grover.PlanMode.EXACT,
          seed: int = 0, samples: int = 1) -> Outcome:
    """Locate ``small`` inside ``big``; the ``encode`` lap validates the pair.

    The plan is made for the marked count, and its rounds are the ones
    applied; another round count goes through :func:`grover.amplify` and
    :func:`grover.sample_groups` directly.  The predicted success is the
    final state's marked probability, the one the samples are drawn with.
    ``mode`` is a PlanMode or its value.  Raises ValidationError for a bad
    argument (:func:`check_args`, run before the pair is read) and a bad pair.
    """
    mode, seed, samples = check_args(mode, seed, samples)
    timings: dict[str, float] = {}
    start = time.perf_counter()
    dims = validate_pair(big, small)
    start = lap(timings, "encode", start)

    marked = marking.agreeing(big, small, 1)
    start = lap(timings, "mark", start)

    plan = grover.plan_iterations(dims.side, mode, marked=len(marked))
    start = lap(timings, "plan", start)

    final = grover.amplify(dims.n, marked, plan.iterations)
    start = lap(timings, "amplify", start)
    counts = grover.sample_groups(final, seed=seed, samples=samples)
    lap(timings, "sample", start)
    return Outcome(dims, plan, final, counts, timings)
