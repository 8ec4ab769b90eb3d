"""Amplification engine: vector operations, recurrence, closed forms, sampling."""

import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qimatch import pipeline
from qimatch.grover import (
    MAX_ROUNDS,
    MAX_SAMPLES,
    PHASE_ULP_TOL,
    AmplitudePair,
    PlanMode,
    amplify,
    initial_pair,
    plan_iterations,
    recurrence_step,
    sample_groups,
    success_probability,
)
from qimatch.images import ValidationError
from qimatch.sample import sample_pair
from qimatch.verify import (
    SubspaceState,
    closed_form_pair,
    diffuse,
    init_subspace,
    phase_flip,
    run_grover,
    sample_measurement,
)


def exact_pair(side):
    return AmplitudePair(
        unmarked=Fraction(1, side), marked=Fraction(1, side), iteration=0, side=side
    )


def state_from_vector(n, values, marked):
    vec = np.asarray(values, dtype=float)
    vec.flags.writeable = False
    return SubspaceState(n=n, amplitudes=vec, marked=frozenset(marked))


def walsh_matrix(n):
    """Hadamard transform over 2n qubits, scaled 1/2**n, from the bit dot product."""
    size = 1 << (2 * n)
    w = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            w[i, j] = (-1.0) ** int(bin(i & j).count("1")) / (1 << n)
    return w


class TestInitSubspace:
    def test_uniform_sixteen(self):
        state = init_subspace(2, {5})
        assert state.size == 16
        assert np.all(state.amplitudes == 0.25)
        assert state.marked == {5}

    def test_no_marks(self):
        state = init_subspace(1, set())
        assert np.all(state.amplitudes == 0.5)

    def test_two_marks_same_amplitude(self):
        state = init_subspace(3, {0, 63})
        assert np.all(state.amplitudes == 0.125)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            init_subspace(1, {4})


class TestPhaseFlip:
    def test_negates_marked_entry(self):
        state = phase_flip(init_subspace(2, {5}))
        assert state.amplitudes[5] == -0.25
        assert np.sum(state.amplitudes == 0.25) == 15

    def test_empty_marked_is_identity(self):
        state = init_subspace(2, set())
        assert np.array_equal(phase_flip(state).amplitudes, state.amplitudes)

    def test_double_flip_is_identity(self):
        state = init_subspace(2, {3, 9})
        twice = phase_flip(phase_flip(state))
        assert np.array_equal(twice.amplitudes, state.amplitudes)


class TestDiffuse:
    def test_first_round_values(self):
        flipped = phase_flip(init_subspace(2, {5}))
        out = diffuse(flipped)
        assert out.amplitudes[5] == 11 / 16
        others = np.delete(out.amplitudes, 5)
        assert np.all(others == 3 / 16)

    def test_uniform_fixed_point(self):
        state = init_subspace(2, set())
        out = diffuse(state)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-15

    def test_matches_walsh_reflect_walsh_product(self):
        rng = np.random.default_rng(11)
        for n in (1, 2):
            size = 1 << (2 * n)
            w = walsh_matrix(n)
            r = np.diag([1.0] + [-1.0] * (size - 1))
            d = w @ r @ w
            for _ in range(10):
                vec = rng.normal(size=size)
                vec /= np.linalg.norm(vec)
                got = diffuse(state_from_vector(n, vec, set())).amplitudes
                assert np.max(np.abs(got - d @ vec)) < 1e-10

    def test_matches_projector_form(self):
        rng = np.random.default_rng(12)
        for n in (1, 2):
            size = 1 << (2 * n)
            proj = np.full((size, size), 1.0 / size)
            d = 2 * proj - np.eye(size)
            for _ in range(10):
                vec = rng.normal(size=size)
                vec /= np.linalg.norm(vec)
                got = diffuse(state_from_vector(n, vec, set())).amplitudes
                assert np.max(np.abs(got - d @ vec)) < 1e-10


class TestRunGrover:
    def test_three_rounds_hit_golden_amplitude(self):
        final = run_grover(init_subspace(2, {5}), 3)
        assert final.amplitudes[5] == 251 / 256
        assert np.all(np.delete(final.amplitudes, 5) == -13 / 256)

    def test_zero_rounds_identity(self):
        state = init_subspace(2, {5})
        assert np.array_equal(run_grover(state, 0).amplitudes, state.amplitudes)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            run_grover(init_subspace(1, {0}), -1)

    def test_two_marks_stay_symmetric(self):
        state = run_grover(init_subspace(2, {3, 9}), 2)
        marked = state.amplitudes[[3, 9]]
        unmarked = np.delete(state.amplitudes, [3, 9])
        assert np.max(np.abs(marked - marked[0])) < 1e-12
        assert np.max(np.abs(unmarked - unmarked[0])) < 1e-12

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(13)
        for n in (1, 2):
            size = 1 << (2 * n)
            vec = rng.normal(size=size)
            vec /= np.linalg.norm(vec)
            state = state_from_vector(n, vec, {1})
            for op in (phase_flip, diffuse):
                state = op(state)
                assert abs(state.norm_squared() - 1.0) < 1e-12

    def test_no_marks_uniform_invariant(self):
        state = init_subspace(2, set())
        for iterations in (1, 3, 10, 50):
            out = run_grover(state, iterations)
            assert np.max(np.abs(out.amplitudes - 0.25)) < 1e-12

    def test_ops_counter_formula(self):
        for n, marks, iters in ((1, {0}, 5), (2, {3, 9}, 7), (3, {0}, 11)):
            state = run_grover(init_subspace(n, marks), iters)
            size = 1 << (2 * n)
            assert state.ops == iters * (2 * size + len(marks))


class TestRecurrence:
    def test_golden_sequence_exact(self):
        pair = exact_pair(4)
        seq = []
        for _ in range(4):
            pair = recurrence_step(pair)
            seq.append((pair.unmarked, pair.marked))
        assert seq[0] == (Fraction(3, 16), Fraction(11, 16))
        assert seq[1] == (Fraction(5, 64), Fraction(61, 64))
        assert seq[2] == (Fraction(-13, 256), Fraction(251, 256))
        assert seq[3][1] == Fraction(781, 1024)
        assert seq[3][1] < seq[2][1]

    def test_flipped_input_convention(self):
        # feeding the post-flip signs directly reproduces the fourth round
        pair = AmplitudePair(
            unmarked=Fraction(-13, 256), marked=Fraction(251, 256), iteration=3, side=4
        )
        nxt = recurrence_step(pair)
        assert nxt.marked == Fraction(781, 1024)
        assert nxt.iteration == 4

    def test_initial_pair_values(self):
        pair = initial_pair(8)
        assert pair.unmarked == pair.marked == 0.125
        assert pair.iteration == 0

    def test_norm_invariant_along_recurrence(self):
        for side in (2, 4, 8, 16):
            pair = exact_pair(side)
            for _ in range(2 * side):
                pair = recurrence_step(pair)
                total = (side * side - 1) * pair.unmarked**2 + pair.marked**2
                assert total == 1  # exact in rational arithmetic

    def test_matches_vector_engine(self):
        for side in (2, 4, 8, 16):
            n = side.bit_length() - 1
            state = init_subspace(n, {1})
            pair = initial_pair(side)
            for _ in range(2 * side):
                state = diffuse(phase_flip(state))
                pair = recurrence_step(pair)
                assert abs(state.amplitudes[1] - pair.marked) < 1e-12
                assert abs(state.amplitudes[0] - pair.unmarked) < 1e-12

    def test_two_distinct_values_single_mark(self):
        state = init_subspace(3, {17})
        for _ in range(12):
            state = diffuse(phase_flip(state))
            rounded = np.round(state.amplitudes, 12)
            assert len(np.unique(rounded)) <= 2


class TestClosedForm:
    def test_third_round_golden(self):
        pair = closed_form_pair(3, Fraction(4))
        assert pair.marked == Fraction(251, 256)

    def test_second_round_golden(self):
        pair = closed_form_pair(2, Fraction(4))
        assert pair.marked == Fraction(61, 64)

    def test_fourth_round_matches_recurrence(self):
        want = exact_pair(16)
        for _ in range(4):
            want = recurrence_step(want)
        got = closed_form_pair(4, Fraction(16))
        assert (got.unmarked, got.marked) == (want.unmarked, want.marked)

    def test_all_tabulated_rounds_match_recurrence(self):
        for side in (4, 8, 16, 32, 64):
            pair = initial_pair(side)
            for i in range(1, 5):
                pair = recurrence_step(pair)
                closed = closed_form_pair(i, side)
                assert abs(closed.marked - pair.marked) < 1e-12
                assert abs(closed.unmarked - pair.unmarked) < 1e-12

    def test_every_round_is_exact_on_fractions(self):
        for side in range(2, 65, 2):
            pair = exact_pair(side)
            for i in range(1, 65):
                pair = recurrence_step(pair)
                closed = closed_form_pair(i, Fraction(side))
                assert (closed.unmarked, closed.marked) == (pair.unmarked, pair.marked), (side, i)

    def test_floats_are_exact_at_power_of_two_sides(self):
        # there every value of the first four rounds is a float64 number
        for side in (4, 8, 16, 32, 64):
            for i in range(1, 5):
                got, want = closed_form_pair(i, side), closed_form_pair(i, Fraction(side))
                assert (got.unmarked, got.marked) == (float(want.unmarked), float(want.marked))

    @pytest.mark.parametrize("i", [0, -1])
    def test_out_of_range_rejected(self, i):
        with pytest.raises(ValueError):
            closed_form_pair(i, 4)


class TestSampling:
    def test_basis_state_always_hits(self):
        vec = np.zeros(16)
        vec[5] = 1.0
        state = state_from_vector(2, vec, {5})
        assert sample_measurement(state, seed=1, samples=500) == {5: 500}

    def test_uniform_within_three_sigma(self):
        state = init_subspace(1, set())
        counts = sample_measurement(state, seed=99, samples=40000)
        sigma = (40000 * 0.25 * 0.75) ** 0.5
        for idx in range(4):
            assert abs(counts[idx] - 10000) <= 3 * sigma

    def test_deterministic_for_fixed_seed(self):
        state = run_grover(init_subspace(2, {5}), 3)
        a = sample_measurement(state, seed=4, samples=1000)
        b = sample_measurement(state, seed=4, samples=1000)
        assert a == b

    def test_final_state_frequency_window(self):
        state = run_grover(init_subspace(2, {5}), 3)
        counts = sample_measurement(state, seed=7, samples=10000)
        assert 0.95 <= counts[5] / 10000 <= 0.97

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            sample_measurement(init_subspace(1, set()), seed=0, samples=0)


# ---------------------------------------------------------------------------
# Two-value closed form, checked against the vector engine
# ---------------------------------------------------------------------------


def marks_for(n, count, seed=0):
    """A fixed pseudo-random marked set of ``count`` indices out of 4**n."""
    size = 1 << (2 * n)
    return set(np.random.default_rng(seed + count).choice(size, size=count, replace=False).tolist())


def mark_counts(n):
    size = 1 << (2 * n)
    return sorted(m for m in {0, 1, 2, 4, 16, size // 2, size} if m <= size)


def vector_probability(state, marks):
    return float(np.sum(state.probabilities()[sorted(marks)]))


def as_marks(values):
    """Distinct indices in the form amplify takes, as marking.anchors gives it:
    a strictly increasing read-only int64 array."""
    marks = np.array(sorted(values), dtype=np.int64)
    marks.flags.writeable = False
    return marks


class TestTwoValueAgainstVector:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_values_match_vector_engine(self, n):
        side = 1 << n
        for count in mark_counts(n):
            marks = marks_for(n, count)
            is_marked = np.zeros(side * side, dtype=bool)
            is_marked[sorted(marks)] = True
            plan = plan_iterations(side, PlanMode.OPTIMAL, marked=count).iterations
            state = init_subspace(n, marks)
            for rounds in range(3 * max(plan, 1) + 1):
                two = amplify(n, as_marks(marks), rounds)
                if count:
                    got = state.amplitudes[is_marked] - two.marked_amplitude
                    assert np.max(np.abs(got)) < 1e-12, (n, count, rounds)
                if count < side * side:
                    got = state.amplitudes[~is_marked] - two.unmarked_amplitude
                    assert np.max(np.abs(got)) < 1e-12, (n, count, rounds)
                assert abs(two.probability - vector_probability(state, marks)) < 1e-12
                state = diffuse(phase_flip(state))

    def test_zero_rounds_is_exactly_uniform(self):
        for n in (2, 3, 10):
            for marks in (set(), {0}, {1, 5, 7}):
                state = amplify(n, as_marks(marks), 0)
                assert state.marked_amplitude == state.unmarked_amplitude == 1.0 / (1 << n)

    def test_no_marks_stay_uniform(self):
        for rounds in (0, 1, 7, 10**9):
            state = amplify(3, as_marks(set()), rounds)
            assert state.unmarked_amplitude == 1.0 / 8
            assert state.probability == 0.0
            assert state.top_index() is None

    def test_all_marked_only_flips_sign(self):
        for rounds in range(6):
            state = amplify(2, as_marks(range(16)), rounds)
            assert state.marked_amplitude == (-1) ** rounds / 4
            assert state.probability == 1.0
            assert state.top_index() == 0

    def test_worked_example_golden_value(self):
        state = amplify(2, as_marks({5}), 3)
        assert abs(state.marked_amplitude - 251 / 256) < 1e-15
        assert abs(state.unmarked_amplitude - (-13 / 256)) < 1e-15

    def test_input_checks(self):
        with pytest.raises(ValueError, match=r"^marked index 4 out of range \[0, 4\)$"):
            amplify(1, as_marks({4}), 1)
        with pytest.raises(ValueError, match=r"^marked index -1 out of range \[0, 4\)$"):
            amplify(1, as_marks({-1}), 1)
        with pytest.raises(ValueError):
            amplify(1, as_marks({0}), -1)
        with pytest.raises(ValueError, match="strictly increasing 1-D int64 array"):
            amplify(2, np.array([9, 3, 9, 3], dtype=np.int64), 1)

    def test_marks_in_any_other_form_are_refused(self):
        rng = np.random.default_rng(11)
        for size, draws in [(1, 5), (16, 40), (4096, 3000), (1 << 20, 10**5)]:
            n = (size.bit_length() - 1) // 2
            raw = rng.integers(0, size, size=draws)
            want = np.unique(raw)
            for marks in (raw, raw.tolist(), want.tolist(), set(want.tolist()), range(len(want)),
                          want.astype(np.int32), want.astype(">i8"), want[None, :]):
                with pytest.raises(ValueError, match="strictly increasing 1-D int64 array"):
                    amplify(n, marks, 1)
            assert raw.flags.writeable  # the caller's array is neither frozen...
        assert not np.all(raw[1:] >= raw[:-1])  # ...nor sorted in place

    def test_sorted_read_only_marks_are_shared(self):
        marks = np.array([2, 5, 11], dtype=np.int64)
        copied = amplify(2, marks, 1).marked
        assert copied is not marks and copied.tolist() == [2, 5, 11]
        assert not copied.flags.writeable and marks.flags.writeable
        marks.flags.writeable = False
        assert amplify(2, marks, 1).marked is marks
        repeated = np.array([2, 5, 5, 11], dtype=np.int64)
        repeated.flags.writeable = False
        with pytest.raises(ValueError, match="strictly increasing 1-D int64 array"):
            amplify(2, repeated, 1)


class TestTopIndex:
    def test_matches_vector_argmax_or_prefers_marks_on_ties(self):
        for count in (1, 2, 3, 5):
            marks = marks_for(2, count)
            state = init_subspace(2, marks)
            for rounds in range(12):
                two = amplify(2, as_marks(marks), rounds)
                probs = state.probabilities()
                p_marked = probs[min(marks)]
                p_other = np.delete(probs, sorted(marks)).max()
                if abs(p_marked - p_other) < 1e-12:
                    assert two.top_index() == min(marks)
                else:
                    assert two.top_index() == int(np.argmax(probs)), (count, rounds)
                state = diffuse(phase_flip(state))

    def test_unmarked_winner_is_smallest_unmarked_index(self):
        # two marks on 16 positions: after 4 rounds (2r+1)*theta = 3.25 rad is
        # past pi, so each mark holds 0.006 of the probability against 0.071 for
        # every other index, and the smallest unmarked index wins
        state = amplify(2, as_marks({0, 1}), 4)
        assert state.marked_amplitude**2 < state.unmarked_amplitude**2
        assert state.top_index() == 2


class TestGroupSampling:
    def test_rank_map_covers_exactly_the_unmarked_indices(self):
        everything = set(range(16))
        sets = [set()] + [{k} for k in range(16)] + [
            {j, k} for j in range(16) for k in range(j + 1, 16)
        ]
        for marks in sets:
            state = amplify(2, as_marks(marks), 1)
            ranks = np.arange(16 - len(marks), dtype=np.int64)
            assert state.unmarked_index(ranks).tolist() == sorted(everything - marks)
            # the uniform state with enough draws reaches every index
            counts = sample_groups(amplify(2, as_marks(marks), 0), seed=len(marks), samples=3200)
            assert set(counts) == everything, sorted(marks)
            assert sum(counts.values()) == 3200

    def test_every_rank_of_a_group_can_be_drawn_by_single_picks(self):
        # 4 draws per seed stay fewer than the 8 marked and 56 unmarked
        # members, so each group is drawn one pick at a time, never by multinomial cells
        marks = set(range(1, 64, 8))
        state = amplify(3, as_marks(marks), 0)
        seen = set()
        for seed in range(400):
            counts = sample_groups(state, seed=seed, samples=4)
            assert len(counts) <= 4
            seen.update(counts)
        assert seen == set(range(64))

    def test_marked_hits_within_three_sigma(self):
        samples = 10000
        for n, count, rounds in ((2, 1, 3), (3, 3, 2), (3, 16, 1), (4, 2, 5), (5, 1, 7)):
            marks = marks_for(n, count)
            state = amplify(n, as_marks(marks), rounds)
            p = state.probability
            counts = sample_groups(state, seed=101 + n, samples=samples)
            hits = sum(counts.get(k, 0) for k in marks)
            sigma = (samples * p * (1 - p)) ** 0.5
            assert abs(hits - samples * p) <= 3 * sigma, (n, count, rounds)
            assert sum(counts.values()) == samples

    def test_uniform_within_three_sigma(self):
        counts = sample_groups(amplify(1, as_marks({2}), 0), seed=99, samples=40000)
        sigma = (40000 * 0.25 * 0.75) ** 0.5
        for idx in range(4):
            assert abs(counts[idx] - 10000) <= 3 * sigma

    def test_fixed_seed_gives_same_histogram(self):
        for samples in (1, 50, 100000):
            state = amplify(4, as_marks({3, 77, 200}), 4)
            a = sample_groups(state, seed=4, samples=samples)
            b = sample_groups(state, seed=4, samples=samples)
            assert a == b
            assert list(a) == sorted(a)

    def test_worked_example_concentrates_on_target(self):
        counts = sample_groups(amplify(2, as_marks({5}), 3), seed=7, samples=10000)
        p = (251 / 256) ** 2
        sigma = (10000 * p * (1 - p)) ** 0.5
        assert abs(counts[5] - 10000 * p) <= 3 * sigma

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            sample_groups(amplify(1, as_marks(set()), 0), seed=0, samples=0)

    def test_sample_limit(self):
        state = amplify(2, as_marks({5}), 3)
        assert sum(sample_groups(state, seed=0, samples=MAX_SAMPLES).values()) == MAX_SAMPLES
        with pytest.raises(ValueError):
            sample_groups(state, seed=0, samples=MAX_SAMPLES + 1)

    def test_round_limit(self):
        # one mark in 16: at MAX_ROUNDS the phase is far past its float64 precision
        with pytest.raises(ValueError, match="lost its precision"):
            amplify(2, as_marks({5}), MAX_ROUNDS)
        with pytest.raises(ValueError, match="lost its precision"):
            success_probability(4, MAX_ROUNDS)
        with pytest.raises(ValueError):
            amplify(2, as_marks({5}), MAX_ROUNDS + 1)
        with pytest.raises(ValueError):
            success_probability(4, MAX_ROUNDS + 1)

    @pytest.mark.parametrize("n, count", [(2, 1), (2, 13), (5, 3), (10, 1)])
    def test_phase_precision_edge(self, n, count):
        # The last round count whose phase (2r+1)*theta is spaced at most
        # PHASE_ULP_TOL apart in float64 is served; the next one is refused.
        size = 1 << (2 * n)
        theta = math.asin(math.sqrt(count / size))
        top = PHASE_ULP_TOL * 2.0**53  # the first float64 spaced wider than the tolerance
        assert math.ulp(math.nextafter(top, 0)) <= PHASE_ULP_TOL < math.ulp(top)
        edge = math.floor((top / theta - 1) / 2)
        while math.ulp((2 * edge + 1) * theta) > PHASE_ULP_TOL:
            edge -= 1
        state = amplify(n, as_marks(range(count)), edge)
        assert state.rounds == edge
        assert state.probability == success_probability(1 << n, edge, count)
        assert state.probability == math.sin((2 * edge + 1) * theta) ** 2
        with pytest.raises(ValueError, match="lost its precision"):
            amplify(n, as_marks(range(count)), edge + 1)
        with pytest.raises(ValueError, match="lost its precision"):
            success_probability(1 << n, edge + 1, count)

    def test_uniform_and_all_marked_never_reach_the_phase(self):
        for marks in ((), range(16)):
            state = amplify(2, as_marks(marks), MAX_ROUNDS)
            assert state.rounds == MAX_ROUNDS
            assert state.probability == len(marks) / 16

    def test_phase_overflow_names_the_phase(self):
        # 13 of 16 marked: theta = asin(sqrt(13/16)) > 1, so at MAX_ROUNDS the
        # phase (2r+1)*theta overflows float64 while 2r+1 itself does not.
        with pytest.raises(ValueError, match=r"phase \(2r\+1\)\*theta overflows float64"):
            amplify(2, as_marks(range(13)), MAX_ROUNDS)
        with pytest.raises(ValueError, match=r"phase \(2r\+1\)\*theta overflows float64"):
            success_probability(4, MAX_ROUNDS, 13)
        state = amplify(2, as_marks(range(16)), MAX_ROUNDS)
        assert state.probability == success_probability(4, MAX_ROUNDS, 16) == 1.0

    def test_memory_bounded_by_positions_not_samples(self):
        state = amplify(6, as_marks({5, 77}), 0)
        tracemalloc.start()
        try:
            counts = sample_groups(state, seed=3, samples=10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(counts.values()) == 10**7
        assert peak < 4 * 2**20

    def test_memory_for_many_marks_is_one_copy_of_them(self):
        # half of 4**11 positions marked: one round leaves half the draws on misses
        marks = np.arange(0, 1 << 22, 2, dtype=np.int64)
        marks.flags.writeable = False
        state = amplify(11, marks, 1)
        tracemalloc.start()
        try:
            counts = sample_groups(state, seed=3, samples=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < sum(c for i, c in counts.items() if i % 2) < 1000
        assert peak < 1.5 * marks.nbytes


class TestMultiMarkPlanning:
    @pytest.mark.parametrize("count", [2, 4, 16])
    def test_matches_vector_argmax(self, count):
        for n in (3, 4, 5):
            side = 1 << n
            marks = marks_for(n, count)
            want_rounds = plan_iterations(side, PlanMode.OPTIMAL, marked=count).iterations
            state = init_subspace(n, marks)
            probs = []
            for _ in range(2 * want_rounds + 2):
                probs.append(vector_probability(state, marks))
                state = diffuse(phase_flip(state))
            best = max(range(len(probs)), key=lambda i: (probs[i], -i))
            for mode in PlanMode:
                plan = plan_iterations(side, mode, marked=count)
                success = success_probability(side, plan.iterations, count)
                assert plan.iterations == best, (n, count, mode)
                assert abs(success - probs[best]) < 1e-12
                assert plan.lower_bound <= success

    def test_half_or_more_marked_plans_no_rounds(self):
        for count in (8, 9, 15, 16):
            plan = plan_iterations(4, PlanMode.OPTIMAL, marked=count)
            success = success_probability(4, plan.iterations, count)
            assert plan.iterations == 0
            assert success == pytest.approx(count / 16, abs=1e-15)
            assert plan.lower_bound <= success

    def test_a_third_to_a_half_marked_plans_a_round_that_helps(self):
        # N/3 <= M < N/2: theta is in [pi/6, pi/4), so one round still raises the success
        for count in range(86, 128):
            plan = plan_iterations(16, PlanMode.OPTIMAL, marked=count)
            assert plan.iterations >= 1, count
            assert success_probability(16, plan.iterations, count) > count / 256, count

    def test_no_marks_plan_no_rounds(self):
        for mode in PlanMode:
            plan = plan_iterations(8, mode, marked=0)
            success = success_probability(8, plan.iterations, 0)
            assert (plan.iterations, success, plan.lower_bound) == (0, 0.0, 0.0)

    def test_plan_names_the_rule_it_ran(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in PlanMode:
                for count in (0, 4):
                    assert plan_iterations(64, mode, marked=count).mode is PlanMode.OPTIMAL
                assert plan_iterations(64, mode, marked=1).mode is mode

    def test_single_mark_default_unchanged(self):
        for a in (2, 4, 128, 1024):
            for mode in PlanMode:
                assert plan_iterations(a, mode, marked=1) == plan_iterations(a, mode)

    @pytest.mark.parametrize("count", [-1, 17])
    def test_marked_count_out_of_range_rejected(self, count):
        with pytest.raises(ValueError):
            plan_iterations(4, PlanMode.EXACT, marked=count)
        with pytest.raises(ValueError, match=rf"^marked count must be an integer in \[0, 16\], got {count}$"):
            success_probability(4, 1, count)

    def test_success_probability_matches_state(self):
        for count, rounds in ((1, 3), (2, 4), (5, 0), (5, 9)):
            marks = marks_for(3, count)
            got = success_probability(8, rounds, count)
            assert abs(got - amplify(3, as_marks(marks), rounds).probability) < 1e-12


NOT_COUNTS = {
    "success_probability rounds 2.5": lambda: success_probability(4, 2.5),
    "amplify rounds 2.5": lambda: amplify(2, as_marks([1]), 2.5),
    "plan_iterations marked 1.5": lambda: plan_iterations(4, marked=1.5),
    "plan_iterations marked True": lambda: plan_iterations(4, marked=True),
    "plan_iterations side 4.0": lambda: plan_iterations(4.0),
    "sample_groups samples 2.5": lambda: sample_groups(amplify(2, as_marks([1]), 2), 0, 2.5),
    "success_probability marked 2.5": lambda: success_probability(4, 1, 2.5),
    "success_probability side 4.0": lambda: success_probability(4.0, 1, 1),
    "amplify n 2.0": lambda: amplify(2.0, as_marks([1]), 1),
    "match iterations True": lambda: pipeline.match(*sample_pair(), iterations=True),
    "match samples True": lambda: pipeline.match(*sample_pair(), samples=True),
    "match seed True": lambda: pipeline.match(*sample_pair(), seed=True),
}


@pytest.mark.parametrize("call", NOT_COUNTS.values(), ids=NOT_COUNTS.keys())
def test_counts_must_be_integers(call):
    # a float or a bool is refused by the range check it would have passed
    with pytest.raises(ValueError, match="integer|power of two"):
        call()


def test_numpy_integers_are_counts():
    four, three, one = np.int64(4), np.int64(3), np.int64(1)
    assert plan_iterations(four, marked=one) == plan_iterations(4)
    assert success_probability(4, three) == success_probability(4, 3)
    state = amplify(2, as_marks([1]), three)
    assert sample_groups(state, 0, np.int32(10)) == sample_groups(state, 0, 10)


@pytest.mark.parametrize("kind", [int, np.int64], ids=["int", "int64"])
def test_a_count_runs_python_arithmetic_whatever_its_type(kind):
    # numpy counts are converted once, so no side * side or 2r+1 wraps in int64
    for k in (32, 62):
        side = 1 << k
        assert plan_iterations(kind(side)) == plan_iterations(side)
        assert success_probability(kind(side), kind(3)) == success_probability(side, 3)
    state = amplify(kind(32), as_marks([1]), kind(1))
    want = amplify(32, as_marks([1]), 1)
    assert type(state.n) is type(state.rounds) is int
    assert (state.n, state.rounds, state.probability) == (want.n, want.rounds, want.probability)
    assert (state.marked_amplitude, state.unmarked_amplitude) == (want.marked_amplitude,
                                                                  want.unmarked_amplitude)
    with pytest.raises(ValidationError, match="lost its precision"):
        pipeline.match(*sample_pair(), iterations=kind(2**63 - 1))
