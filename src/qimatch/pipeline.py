"""One match run: validate the pair, find the anchors, plan, amplify and sample.

:func:`match` is the only place this chain is written out; the ``match`` and
``example`` commands and the end-to-end demo call it.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass

from . import grover, marking
from .images import Image, MatchDims, ValidationError, validate_pair


@dataclass(frozen=True)
class Outcome:
    """What one run produced; ``timings_ms`` gives each stage's wall time in run order.

    ``plan`` holds what was planned and ``final`` what was applied: the
    marked indices (``final.marked``, sorted), the rounds run
    (``final.rounds``) and the success they predict (``final.probability``).
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


def match(big: Image, small: Image, *, mode: grover.PlanMode | str = grover.PlanMode.EXACT,
          iterations: int | None = None, seed: int = 0, samples: int = 1) -> Outcome:
    """Locate ``small`` inside ``big``; the ``encode`` lap validates the pair.

    The plan is made for the marked count, and ``iterations`` overrides its
    rounds.  The predicted success is the final state's marked probability,
    the one the samples are drawn with.  ``mode`` is a PlanMode or its value.
    Raises ValidationError for a bad pair, for an ``iterations`` outside
    [0, MAX_ROUNDS] or past the float64 precision of its phase, for a
    ``samples`` outside [1, MAX_SAMPLES], for a ``seed`` that is not a
    non-negative integer and for an unknown ``mode``.  Every flag check but
    the phase precision's, which depends on the marked count, runs before
    the pair is read.
    """
    try:
        mode = grover.PlanMode(mode)
    except ValueError:
        raise ValidationError(f"mode must be a PlanMode or one of its values, got {mode!r}") from None
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(samples, numbers.Integral) or not 1 <= samples <= grover.MAX_SAMPLES:
        raise ValidationError(f"samples must be an integer in [1, MAX_SAMPLES], got {samples!r}")
    if iterations is not None and not (isinstance(iterations, numbers.Integral)
                                       and 0 <= iterations <= grover.MAX_ROUNDS):
        raise ValidationError(f"iterations must be None or an integer in [0, MAX_ROUNDS], got {iterations!r}")
    timings: dict[str, float] = {}
    start = time.perf_counter()
    dims = validate_pair(big, small)
    start = lap(timings, "encode", start)

    marked = marking.anchors(big, small)
    start = lap(timings, "mark", start)

    plan = grover.plan_iterations(dims.side, mode, marked=len(marked))
    rounds = plan.iterations if iterations is None else iterations
    start = lap(timings, "plan", start)

    try:
        final = grover.amplify(dims.n, marked, rounds)
        start = lap(timings, "amplify", start)
        counts = grover.sample_groups(final, seed=seed, samples=samples)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    lap(timings, "sample", start)
    return Outcome(dims, plan, final, counts, timings)
