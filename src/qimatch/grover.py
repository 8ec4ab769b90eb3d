"""Amplitude amplification over the big-image position register: the
two-value engine, its recurrence and iteration planning.

One amplification round is a phase flip of the marked indices followed by
inversion about the mean (the diffusion operator D = 2P - I, with P the
rank-one projector onto the uniform state) on the 4**n position states.

**Hot path: the two-value closed form.**  The state starts uniform, so after
r rounds it holds one amplitude on every marked index and one on every other,
for any marked set of size M among N = 4**n positions.  Boyer, Brassard, Hoyer
and Tapp ("Tight bounds on quantum searching", quant-ph/9605034) give both in
closed form:

    marked   = sin((2r+1)*theta) / sqrt(M)
    unmarked = cos((2r+1)*theta) / sqrt(N-M),   theta = asin(sqrt(M/N))

:func:`amplify` evaluates them in O(1) after an O(M) pass over the marked
set, and :func:`sample_groups` draws a measurement histogram by group: a
binomial count of marked hits, then uniform picks inside each group.  Neither
touches a 4**n vector.

**Cross-checks.**  The full-vector engine (:class:`SubspaceState`,
:func:`run_grover`, :func:`sample_measurement`, ...), O(rounds * 4**n), lives
in :mod:`qimatch.verify`, and only there, as the oracle the closed form is
tested against (to 1e-12; the two are not bit-identical).  For a single
marked index the evolution is also the two-term recurrence

    marked'   = -2*marked/a**2 - 2*unmarked/a**2 + 2*unmarked + marked
    unmarked' = -2*marked/a**2 - 2*unmarked/a**2 + unmarked

with a = 2**n.  :func:`recurrence_step` implements it with plain Python
arithmetic so it runs exactly on :class:`fractions.Fraction` inputs as well as
on floats; every denominator reachable from 1/a is a power of two, so float64
results are bit-exact too for moderate iteration counts.  With sin(theta) =
x = 1/a, its values after i rounds are Chebyshev polynomials in x: marked
(-1)**i * T_2i+1(x) and unmarked (-1)**i * x * U_2i(x), which the oracle
:func:`qimatch.verify.closed_form_pair` evaluates for every i >= 1.

Iteration planning is one call, :func:`plan_iterations`, which returns the
rule it ran, the rounds and the success the rule guarantees.  It offers three
rules for a single marked index:

* ``EXACT``: smallest integer i >= 1 with
  i**4 + 4i**3 + (2-3a**2)i**2 + (-1-6a**2)i + 1.5a**4 - 1.5a**2 < 0,
  located in exact integer arithmetic.  A seed from integer square roots,
  right at every power-of-two side up to 2**537, is confirmed by the signs
  at i and i - 1; a seed they refute raises ArithmeticError rather than
  give an unconfirmed count.  The closed radical form of the same quartic's
  root, :func:`qimatch.verify.closed_form_iterations`, is a float oracle
  that tests compare against; planning never evaluates it.
* ``FIT``: round(0.7962*a - 0.6057), a published linear fit of the exact
  mode.  It sits within +/-1 of the exact count up to side 32768 and 2 below
  it at 65536 (52179 vs 52181); it sits within +/-1 of the frozen reference
  table of acceptance criterion 02 at every tabulated side.
* ``OPTIMAL``: the peak of the success probability sin**2((2r+1)*theta),
  floor(pi/(4*theta)) rounds, which can undershoot the quartic-derived count
  at large a.

The quartic is the paper's rule for one marked index only.  With M != 1 marks
every mode runs the OPTIMAL rule, floor(pi/(4*theta)) rounds (0 with no marks
and once 2M >= N), and the plan's ``mode`` says so.  The plan holds no
success: :func:`success_probability` alone computes it, sin**2((2r+1)*theta)
(exactly M/N at 0 rounds, 1 for M = N), and :func:`amplify` stores it in the
state as the marked-set probability that :func:`sample_groups` draws with.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

Amplitude = float | Fraction

# Past MAX_SAMPLES numpy's binomial draw of the marked hits overflows int64,
# and past MAX_ROUNDS float(2r+1) overflows.  Long before MAX_ROUNDS the phase
# (2r+1)*theta stops resolving its angle: _phase rejects a phase whose float64
# spacing exceeds PHASE_ULP_TOL radians, which keeps the six printed decimals
# of a success probability meaningful, and a phase that overflows outright.
MAX_SAMPLES, MAX_ROUNDS = (1 << 63) - 1, (1 << 1023) - (1 << 969) - 1
PHASE_ULP_TOL = 2.0**-20


def as_count(value: object, name: str, low: int, high: float = math.inf, shown: str = "") -> int:
    """``value`` as a Python int if its type is int or a numpy integer (no bool) in [low, high]."""
    if (type(value) is int or isinstance(value, np.integer)) and low <= (count := int(value)) <= high:
        return count
    raise ValueError(f"{name} must be an integer in [{low}, {shown or high}], got {value!r}")


# ---------------------------------------------------------------------------
# Two-value closed form (the hot path)
# ---------------------------------------------------------------------------


def _phase(marked: int, positions: int, rounds: int) -> float:
    """(2r+1)*theta after ``rounds``, theta = asin(sqrt(M/N)).

    ValueError when the phase overflows float64 or its spacing there exceeds
    PHASE_ULP_TOL, so that its sine would be noise.
    """
    theta = math.asin(math.sqrt(marked / positions))
    turn = (2 * rounds + 1) * theta
    if math.isinf(turn):
        raise ValueError(f"phase (2r+1)*theta overflows float64 at theta = {theta:.6f} "
                         f"({marked} of {positions} positions marked)")
    if math.ulp(turn) > PHASE_ULP_TOL:
        raise ValueError(f"phase (2r+1)*theta = {turn:.6g} rad after {rounds} rounds has lost "
                         f"its precision: float64 spacing {math.ulp(turn):.3g} rad > 2^-20")
    return turn


@dataclass(frozen=True)
class TwoValueState:
    """State amplified from uniform: one amplitude on the marked set, one elsewhere.

    ``marked`` holds the distinct marked indices in increasing order (a
    read-only int64 array), ``rounds`` the rounds applied and ``probability``
    the marked set's probability after them, which :func:`sample_groups`
    draws with.  With no marks ``marked_amplitude`` has no position, and with
    every position marked ``unmarked_amplitude`` has none; both then keep the
    value the vector engine would give such positions if they existed.
    """

    n: int
    marked: np.ndarray
    rounds: int
    marked_amplitude: float
    unmarked_amplitude: float
    probability: float

    @property
    def size(self) -> int:
        return 1 << (2 * self.n)

    def unmarked_index(self, ranks: np.ndarray) -> np.ndarray:
        """Map ranks among the unmarked indices (0-based, increasing) to indices.

        Rank u sits after every marked index k_j with k_j - j <= u, since
        k_j - j counts the unmarked indices below k_j.
        """
        if len(ranks) == 0:
            return ranks
        below = np.arange(len(self.marked), dtype=np.int64)
        np.subtract(self.marked, below, out=below)
        return ranks + np.searchsorted(below, ranks, side="right")

    def top_index(self) -> int | None:
        """Smallest index of highest probability; a marked index wins ties.

        None when nothing is marked: the state is uniform and points nowhere.
        """
        if len(self.marked) == 0:
            return None
        if self.marked_amplitude**2 >= self.unmarked_amplitude**2:
            return int(self.marked[0])
        return int(self.unmarked_index(np.zeros(1, dtype=np.int64))[0])


def amplify(n: int, marked: np.ndarray, rounds: int) -> TwoValueState:
    """The state after ``rounds`` of (phase flip, diffuse) from uniform over 4**n.

    O(1) in ``rounds`` and 4**n.  ``marked`` must be a strictly increasing
    1-D int64 array, the form :func:`qimatch.marking.anchors` gives; anything
    else raises ValueError.  The order is checked once, in O(M).  A read-only
    array is shared, and a writable one is copied read-only.  Zero rounds
    return the uniform state exactly.
    """
    n = as_count(n, "n", 0)
    rounds = as_count(rounds, "iteration count", 0, MAX_ROUNDS, "MAX_ROUNDS")
    size = 1 << (2 * n)
    if not (isinstance(marked, np.ndarray) and marked.dtype == np.int64 and marked.ndim == 1
            and np.all(marked[1:] > marked[:-1])):
        raise ValueError("marked indices must be a strictly increasing 1-D int64 array")
    if marked.flags.writeable:
        marked = marked.copy()
        marked.flags.writeable = False
    if len(marked) and not (0 <= marked[0] and marked[-1] < size):
        bad = marked[0] if marked[0] < 0 else marked[-1]
        raise ValueError(f"marked index {bad} out of range [0, {size})")
    count = len(marked)
    probability = success_probability(1 << n, rounds, count)
    uniform = 1.0 / (1 << n)
    if rounds == 0 or count == 0:
        marked_amp = unmarked_amp = uniform
    elif count == size:
        # theta = pi/2: every round only flips the global sign
        marked_amp, unmarked_amp = (-uniform if rounds % 2 else uniform), 0.0
    else:
        turn = _phase(count, size, rounds)
        marked_amp = math.sin(turn) / math.sqrt(count)
        unmarked_amp = math.cos(turn) / math.sqrt(size - count)
    return TwoValueState(n, marked, rounds, marked_amp, unmarked_amp, probability)


def _spread(rng: np.random.Generator, draws: int, members: int) -> tuple[np.ndarray, np.ndarray]:
    """Spread ``draws`` uniform picks over ranks 0..members-1: (ranks hit, counts).

    Memory is O(min(draws, members)): one pick per draw while draws are
    fewer than members, one multinomial cell per member otherwise.
    """
    if draws == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if draws < members:
        return np.unique(rng.integers(0, members, size=draws), return_counts=True)
    counts = rng.multinomial(draws, np.full(members, 1.0 / members))
    ranks = np.flatnonzero(counts)
    return ranks, counts[ranks]


def sample_groups(state: TwoValueState, seed: int, samples: int) -> dict[int, int]:
    """Draw position indices i.i.d. from ``state``, group by group.

    The number of marked hits is binomial in ``samples`` with the marked-set
    probability; the hits and the misses then spread uniformly over their
    group.  That is the same distribution as a draw from the full vector.
    Deterministic for a fixed seed; time and memory are
    O(min(samples, 4**n)).  Returns a sparse histogram in index order.
    """
    samples = as_count(samples, "sample count", 1, MAX_SAMPLES, "MAX_SAMPLES")
    rng = np.random.default_rng(seed)
    count = len(state.marked)
    hits = int(rng.binomial(samples, state.probability))
    hit_ranks, hit_counts = _spread(rng, hits, count)
    miss_ranks, miss_counts = _spread(rng, samples - hits, state.size - count)
    indices = np.concatenate([state.marked[hit_ranks], state.unmarked_index(miss_ranks)])
    counts = np.concatenate([hit_counts, miss_counts])
    order = np.argsort(indices)
    return {int(i): int(c) for i, c in zip(indices[order], counts[order])}


# ---------------------------------------------------------------------------
# Two-value recurrence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmplitudePair:
    """The two amplitude values of a single-marked state after ``iteration`` rounds.

    Fields are plain numbers; pass :class:`fractions.Fraction` values to run
    the recurrence exactly.  Invariant: (side**2 - 1)*unmarked**2 + marked**2
    stays 1.
    """

    unmarked: Amplitude
    marked: Amplitude
    iteration: int
    side: int


def initial_pair(side: int) -> AmplitudePair:
    """Uniform starting point: both values 1/side, iteration 0 (float)."""
    return AmplitudePair(unmarked=1.0 / side, marked=1.0 / side, iteration=0, side=side)


def recurrence_step(pair: AmplitudePair) -> AmplitudePair:
    """One amplification round (flip + diffuse) on the two-value state."""
    a2 = pair.side * pair.side
    t, t0 = pair.unmarked, pair.marked
    shift = -2 * t0 / a2 - 2 * t / a2
    return AmplitudePair(
        unmarked=shift + t,
        marked=shift + 2 * t + t0,
        iteration=pair.iteration + 1,
        side=pair.side,
    )


# ---------------------------------------------------------------------------
# Iteration planning
# ---------------------------------------------------------------------------


# Float64 limits on the side: from 2**512 recurrence_step's division by side**2
# overflows, and from 2**538 1/side**2 underflows to 0, and asin(1/side) with it.
MAX_RECURRENCE_SIDE, MAX_PLAN_SIDE = 1 << 511, 1 << 537


class PlanMode(enum.Enum):
    EXACT = "exact"
    FIT = "fit"
    OPTIMAL = "optimal"


@dataclass(frozen=True)
class IterationPlan:
    """A planned round count; ``mode`` is the rule that chose ``iterations``.

    ``lower_bound`` is the success the rule guarantees; the success itself is
    :func:`success_probability`, carried by the amplified state.
    """

    mode: PlanMode
    iterations: int
    lower_bound: float


def _quartic_doubled(i: int, a: int) -> int:
    # Twice the planning quartic, so every coefficient is an exact integer.
    return (
        2 * i**4
        + 8 * i**3
        + 2 * (2 - 3 * a * a) * i * i
        + 2 * (-1 - 6 * a * a) * i
        + 3 * a**4
        - 3 * a * a
    )


def _root_seed(a: int) -> int:
    """The planning quartic's first negative integer, from integer square roots: about floor(x*a).

    x = sqrt((3 - sqrt(3))/2) makes x*a the root to leading order
    (x**4 - 3x**2 + 3/2 = 0), and the next order moves it to x*a - 1 + O(1/a),
    so the first integer past it is usually ceil(x*a) - 1 = floor(x*a).  In
    integer square roots the seed is that count at every power-of-two side
    from 2 to 2**537, and among widths 2..2048 it is one too high at 5, 54
    and 265 only; a float x*a drifts by a * 2**-53.
    """
    a2 = a * a
    return math.isqrt((3 * a2 - math.isqrt(3 * a2 * a2)) // 2)


def _scan_exact(a: int) -> int:
    """Smallest integer i >= 1 making the planning quartic negative.

    The quartic is positive at 0 (3a**4 - 3a**2), negative at a
    (-a**4 - 4a**3 + a**2 - 2a) and decreasing in between, so it changes sign
    once on [0, a].  The count is i = max(1, :func:`_root_seed`), confirmed by
    the exact integer signs at i and i - 1: at most two evaluations.  Where
    the signs refute the seed, ArithmeticError; that happens at no side
    :func:`plan_iterations` accepts, and no count is returned unconfirmed.
    """
    i = max(1, _root_seed(a))
    if _quartic_doubled(i, a) < 0 and (i == 1 or _quartic_doubled(i - 1, a) >= 0):
        return i
    raise ArithmeticError(f"seed {i} is not the planning quartic's first negative integer at side {a}")


def _peak_rounds(marked: int, positions: int) -> int:
    """Rounds that bring (2r+1)*theta closest to pi/2: round(pi/(4*theta) - 1/2).

    Written as floor(pi/(4*theta)) so halves round up.  Zero with no marks
    and once 2M >= N, where no round raises the marked probability above its
    start.
    """
    if marked == 0 or 2 * marked >= positions:
        return 0
    return math.floor(math.pi / (4 * _phase(marked, positions, 0)))


def probability_lower_bound(a: int) -> float:
    """Closed-form floor under the success probability at the exact-mode count.

    Only a true bound from side 4 upward (at side 2 the expression exceeds 1
    while the actual success probability is exactly 1 after one round), so
    :func:`plan_iterations` bounds side 2 by 1 - M/N instead.
    """
    x = 1 / as_count(a, "side", 2)  # a**3 as a float would overflow from side 2**342
    return (0.9194 + 0.0567 * x + 0.2302 * x * x - 0.0336 * x**3) ** 2


def success_probability(side: int, rounds: int, marked: int = 1) -> float:
    """Probability of the whole marked set after ``rounds`` at width ``side``.

    sin**2((2r+1)*theta) with theta = asin(sqrt(M/side**2)), but exactly M/N
    at 0 rounds or with M in {0, side**2}.  ValueError for a count out of its
    range (:func:`as_count`: side >= 1, rounds <= MAX_ROUNDS, M <= side**2)
    or where :func:`_phase` fails.
    """
    positions = as_count(side, "side", 1) ** 2
    rounds = as_count(rounds, "iteration count", 0, MAX_ROUNDS, "MAX_ROUNDS")
    marked = as_count(marked, "marked count", 0, positions)
    if rounds == 0 or marked in (0, positions):
        return marked / positions
    return math.sin(_phase(marked, positions, rounds)) ** 2


def plan_iterations(side: int, mode: PlanMode | str = PlanMode.EXACT, marked: int = 1) -> IterationPlan:
    """The rule, rounds and bound for ``marked`` positions at width ``side`` <= MAX_PLAN_SIDE.

    ``mode`` picks the rule for one marked position, given as a PlanMode or
    its value (ValueError for anything else).  Any other count runs the
    OPTIMAL rule, the peak of sin**2((2r+1)*theta) (0 rounds with none), and
    the returned mode names it.  The lower bound is the closed-form guarantee
    of the paper for one mark from side 4 on, cos**2(theta) = 1 - M/N (which
    the peak count always reaches) for more marks or side 2, and 0 for none.
    """
    mode = PlanMode(mode)
    side = as_count(side, "side", 2)
    if side & (side - 1):
        raise ValueError(f"side must be a power of two >= 2, got {side!r}")
    if side > MAX_PLAN_SIDE:
        raise ValueError(f"side 2^{side.bit_length() - 1} is past the float64 limit 2^537")
    positions = side * side
    marked = as_count(marked, "marked count", 0, positions)
    if marked == 1 and side >= 4:
        bound = probability_lower_bound(side)
    else:
        bound = 1.0 - marked / positions if marked else 0.0
    if marked == 1 and mode is PlanMode.EXACT:
        rounds = _scan_exact(side)
    elif marked == 1 and mode is PlanMode.FIT:
        rounds = max(1, math.floor(0.7962 * side - 0.6057 + 0.5))
    else:
        mode, rounds = PlanMode.OPTIMAL, _peak_rounds(marked, positions)
    return IterationPlan(mode, rounds, bound)
