"""End-to-end acceptance suite.

One test per criterion; the conftest reporter prints a PASS/FAIL line for each
at the end of the run.  Every tolerance is pinned here.

Criterion 02 keeps its frozen reference iteration table verbatim.  Two of
its rows (sides 16384 and 65536) contradict the quartic sign-change rule that
defines exact mode: in exact integer arithmetic the quartic is still positive
at the quoted counts 13044 and 52180 (the relevant roots are 13044.354 and
52180.416), so the first sign change lands one step later, at 13045 and
52181.  The test proves this itself from the quartic and checks the planner
against the proven count at those two rows and against the table everywhere
else.  The linear fit stays within one of the exact count up to side 32768
and falls 2 below it at 65536 (52179 vs 52181); it stays within one of the
table at every row.
"""

import random
import time
from fractions import Fraction

import numpy as np

from qimatch import grover, marking, verify
from qimatch.grover import PlanMode
from qimatch.images import load_pgm, validate_pair
from qimatch.sample import SAMPLE_BIG_PGM, SAMPLE_SMALL_PGM

from conftest import classical_anchors, planted_instance, quartic_doubled, random_instance

REFERENCE_ITERATIONS = {
    4: 3, 8: 6, 16: 12, 32: 25, 64: 50, 128: 101, 256: 203, 512: 407,
    1024: 815, 2048: 1630, 4096: 3261, 8192: 6522, 16384: 13044,
    32768: 26090, 65536: 52180,
}

# Rows of REFERENCE_ITERATIONS at which the planning quartic is still positive
# at the quoted count; criterion 02 proves the set rather than assuming it.
TABLE_ROWS_REFUTED_BY_QUARTIC = {16384, 65536}


def first_sign_change(i, a):
    """True when i is the smallest i >= 1 at which the quartic is negative,
    judged from the boundary: negative at i and non-negative at i - 1."""
    return quartic_doubled(i, a) < 0 and (i == 1 or quartic_doubled(i - 1, a) >= 0)


def recurrence_success(side, rounds):
    pair = grover.initial_pair(side)
    for _ in range(rounds):
        pair = grover.recurrence_step(pair)
    return pair.marked * pair.marked


def test_criterion_01_worked_example_reproduction():
    """Built-in pair: marked {5}, 3 rounds, exact amplitudes and probabilities."""
    t0 = time.perf_counter()
    big, small = load_pgm(SAMPLE_BIG_PGM), load_pgm(SAMPLE_SMALL_PGM)
    dims, marked = validate_pair(big, small), classical_anchors(big, small)
    assert marked == {5}

    plan = grover.plan_iterations(dims.side, PlanMode.EXACT)
    assert plan.iterations == 3

    pair = grover.AmplitudePair(
        unmarked=Fraction(1, 4), marked=Fraction(1, 4), iteration=0, side=4
    )
    history = []
    for _ in range(4):
        pair = grover.recurrence_step(pair)
        history.append((pair.unmarked, pair.marked))
    assert history[0] == (Fraction(3, 16), Fraction(11, 16))
    assert history[1] == (Fraction(5, 64), Fraction(61, 64))
    assert history[2] == (Fraction(-13, 256), Fraction(251, 256))
    assert history[3][1] == Fraction(781, 1024)

    success = float(history[2][1]) ** 2
    other = float(history[2][0]) ** 2
    assert abs(success - 0.9613) <= 1e-4
    assert success == float(Fraction(251, 256) ** 2)  # exact in rational form
    assert abs(other - 0.002579) <= 1e-6

    final = verify.run_grover(verify.init_subspace(dims.n, marked), 3)
    assert final.amplitudes[5] == 251 / 256
    assert int(np.argmax(final.probabilities())) == 5

    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_iteration_table_reproduction():
    """Exact mode equals the frozen table except at the two rows the quartic
    refutes; fit stays within one of exact up to 32768 and of the table."""
    t0 = time.perf_counter()
    failures = []

    inconsistent = {
        a for a, quoted in REFERENCE_ITERATIONS.items() if not first_sign_change(quoted, a)
    }
    if inconsistent != TABLE_ROWS_REFUTED_BY_QUARTIC:
        failures.append(
            f"rows inconsistent with the quartic rule: {sorted(inconsistent)}, "
            f"expected {sorted(TABLE_ROWS_REFUTED_BY_QUARTIC)}"
        )

    exact = {a: grover.plan_iterations(a, PlanMode.EXACT).iterations for a in REFERENCE_ITERATIONS}
    for a, quoted in REFERENCE_ITERATIONS.items():
        if a in TABLE_ROWS_REFUTED_BY_QUARTIC:
            # the quartic is still positive at the quoted count, so the first
            # sign change is one step later; prove that here, then require it
            expected = quoted + 1
            if not first_sign_change(expected, a):
                failures.append(f"side {a}: quartic does not change sign at {expected}")
        else:
            expected = quoted
        if exact[a] != expected:
            failures.append(
                f"side {a}: exact scan stops at {exact[a]}, expected {expected} "
                f"(reference table says {quoted})"
            )

    fit = {a: grover.plan_iterations(a, PlanMode.FIT).iterations for a in REFERENCE_ITERATIONS}
    for a, quoted in REFERENCE_ITERATIONS.items():
        if abs(fit[a] - quoted) > 1:
            failures.append(f"side {a}: fit {fit[a]} differs from reference {quoted} by more than 1")
        if a <= 32768 and abs(fit[a] - exact[a]) > 1:
            failures.append(f"side {a}: fit {fit[a]} differs from exact {exact[a]} by more than 1")
    if exact[65536] - fit[65536] != 2:
        failures.append(
            f"side 65536: fit {fit[65536]} is not exactly 2 below exact {exact[65536]}"
        )

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert not failures, "\n" + "\n".join(failures)


def test_criterion_03_probability_lower_bound():
    """Success probability at the planned count dominates the closed-form bound."""
    t0 = time.perf_counter()
    assert abs(grover.probability_lower_bound(4) - 0.8976) <= 5e-4
    a = 4
    while a <= 4096:
        plan = grover.plan_iterations(a, PlanMode.EXACT)
        success = recurrence_success(a, plan.iterations)
        assert success >= grover.probability_lower_bound(a), a
        a *= 2
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_recurrence_vector_equivalence():
    """Two-value recurrence equals the full vector engine for every round."""
    for side in (2, 4, 8, 16):
        n = side.bit_length() - 1
        state = verify.init_subspace(n, {1})
        pair = grover.initial_pair(side)
        for _ in range(2 * side):
            state = verify.run_grover(state, 1)
            pair = grover.recurrence_step(pair)
            assert abs(state.amplitudes[1] - pair.marked) < 1e-12
            unmarked = np.delete(state.amplitudes, 1)
            assert np.max(np.abs(unmarked - pair.unmarked)) < 1e-12


def test_criterion_05_closed_form_equivalence():
    """Tabulated polynomials match the recurrence for rounds 1..4."""
    for side in (4, 8, 16, 32, 64):
        pair = grover.initial_pair(side)
        for i in range(1, 5):
            pair = grover.recurrence_step(pair)
            closed = verify.closed_form_pair(i, side)
            assert abs(closed.marked - pair.marked) < 1e-12
            assert abs(closed.unmarked - pair.unmarked) < 1e-12


def test_criterion_06_diffusion_identities():
    """Inversion about the mean equals both explicit matrix forms."""
    rng = np.random.default_rng(2718)
    for n in (1, 2):
        size = 1 << (2 * n)
        w = np.empty((size, size))
        for i in range(size):
            for j in range(size):
                w[i, j] = (-1.0) ** int(bin(i & j).count("1")) / (1 << n)
        r = np.diag([1.0] + [-1.0] * (size - 1))
        wrw = w @ r @ w
        proj = 2 * np.full((size, size), 1.0 / size) - np.eye(size)
        for _ in range(25):
            vec = rng.normal(size=size)
            vec /= np.linalg.norm(vec)
            frozen = vec.copy()
            frozen.flags.writeable = False
            state = verify.SubspaceState(n=n, amplitudes=frozen, marked=frozenset())
            got = verify.diffuse(state).amplitudes
            assert np.max(np.abs(got - wrw @ vec)) < 1e-10
            assert np.max(np.abs(got - proj @ vec)) < 1e-10


def three_routes(big, small):
    """The marked set from dense gates, the classical anchor scan and the hot
    path's anchor pass, in that order."""
    dense = verify.dense_marked_set(verify.dense_simulate_marking(big, small))
    hot = set(marking.agreeing(big, small, 1).tolist())
    return dense, classical_anchors(big, small), hot


def test_criterion_07_oracle_agreement():
    """Dense gates, the classical scan and the hot path mark identically."""
    rng = random.Random(31415)
    for _ in range(100):
        n = rng.randint(1, 2)
        m = rng.randint(0, n - 1)
        q = rng.randint(1, 3)
        big, small = random_instance(rng, n, m, q)
        dense, anchor_set, hot = three_routes(big, small)
        assert dense == anchor_set == hot

    # instances built so the anchor match is unique and is a full-block match
    for _ in range(10):
        big, small, (x, y) = planted_instance(rng, 2, 1, 3)
        dims = validate_pair(big, small)
        dense, anchor_set, hot = three_routes(big, small)
        assert dense == anchor_set == hot
        full = verify.classical_match(big, small, verify.MatchMode.FULL_BLOCK)
        anchor = verify.classical_match(big, small, verify.MatchMode.ANCHOR_PIXEL)
        assert full.locations == anchor.locations == ((x, y),)
        plan = grover.plan_iterations(dims.side, PlanMode.EXACT)
        final = verify.run_grover(verify.init_subspace(dims.n, anchor_set), plan.iterations)
        top = int(np.argmax(final.probabilities()))
        assert (top % dims.side, top // dims.side) == (x, y)


def test_criterion_08_degenerate_marking():
    """No marks: amplification is a no-op.  Multiple marks: symmetric outcome."""
    uniform = verify.init_subspace(2, set())
    for iterations in (0, 1, 3, 10, 25):
        out = verify.run_grover(uniform, iterations)
        assert np.max(np.abs(out.amplitudes - 0.25)) < 1e-12

    for marks in ({3, 9}, {0, 7, 12}):
        state = verify.run_grover(verify.init_subspace(2, marks), 2)
        marked_amps = state.amplitudes[sorted(marks)]
        unmarked_amps = np.delete(state.amplitudes, sorted(marks))
        assert np.max(np.abs(marked_amps - marked_amps[0])) < 1e-12
        assert np.max(np.abs(unmarked_amps - unmarked_amps[0])) < 1e-12

        p_marked = float(np.sum(marked_amps**2))
        counts = verify.sample_measurement(state, seed=1234, samples=10000)
        hits = sum(counts.get(k, 0) for k in marks)
        sigma = (10000 * p_marked * (1 - p_marked)) ** 0.5
        assert abs(hits - 10000 * p_marked) <= 3 * sigma


def test_criterion_09_sampling_calibration():
    """Final state of the worked example: target frequency in [0.95, 0.97]."""
    state = verify.run_grover(verify.init_subspace(2, {5}), 3)
    counts = verify.sample_measurement(state, seed=7, samples=10000)
    frequency = counts[5] / 10000
    assert 0.95 <= frequency <= 0.97


def test_criterion_10_work_counters():
    """Operation counters reproduce the claimed complexity separation."""
    rng = random.Random(4242)
    # classical counters equal their closed forms
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(0, n - 1)
        big, small = random_instance(rng, n, m, 2)
        side, bside = 1 << n, 1 << m
        full = verify.classical_match(big, small, verify.MatchMode.FULL_BLOCK)
        anchor = verify.classical_match(big, small, verify.MatchMode.ANCHOR_PIXEL)
        assert full.comparisons == (bside * bside) * (side - bside + 1) ** 2
        assert anchor.comparisons == side * side

    # engine work grows linearly in rounds * 4**n
    for n, marks, iters in ((2, {5}, 3), (3, {1}, 6), (4, {9}, 12)):
        state = verify.run_grover(verify.init_subspace(n, marks), iters)
        assert state.ops == iters * (2 * (1 << (2 * n)) + len(marks))

    # doubling the side doubles the planned rounds but quadruples (or more)
    # the classical comparison counts, for n = 2, 3, 4 at m = 1
    plans, fulls, anchors = [], [], []
    for n in (2, 3, 4):
        side = 1 << n
        plans.append(grover.plan_iterations(side, PlanMode.EXACT).iterations)
        fulls.append(4 * (side - 2 + 1) ** 2)
        anchors.append(side * side)
    assert plans == [3, 6, 12]
    for i in (1, 2):
        assert plans[i] == 2 * plans[i - 1]
        assert anchors[i] == 4 * anchors[i - 1]
        assert fulls[i] / fulls[i - 1] > 4
