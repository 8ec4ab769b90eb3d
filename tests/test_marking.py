"""Compare-and-mark pipeline against frozen golden listings and random oracles."""

import random
import tracemalloc

import numpy as np
import pytest

from qimatch.images import ValidationError, encode_gqir, validate_pair
from qimatch.marking import (
    Stage,
    StageError,
    apply_comparison,
    apply_marking,
    dump_branches,
    marked_set,
    prepare_initial,
)
from qimatch.sample import sample_pair

from conftest import make_image, random_instance

# Frozen register listings for the built-in 4x4/2x2 pair, written as bit
# strings: one intensity per big position (prepared), the per-branch XOR
# values after comparison, and the lone flagged branch after marking.
BIG_BITS = [
    "10100010", "10011100", "10100001", "10100101",
    "10100001", "10100000", "10100100", "10100110",
    "10100001", "10100100", "10100101", "10100111",
    "10101000", "10100101", "10100110", "10100110",
]
SMALL_BITS = ["10100000", "10100100", "10100100", "10100101"]
XOR_BITS = [
    ["00000010", "00000110", "00000110", "00000111"],
    ["00111100", "00111000", "00111000", "00111001"],
    ["00000001", "00000101", "00000101", "00000100"],
    ["00000101", "00000001", "00000001", "00000000"],
    ["00000001", "00000101", "00000101", "00000100"],
    ["00000000", "00000100", "00000100", "00000101"],
    ["00000100", "00000000", "00000000", "00000001"],
    ["00000110", "00000010", "00000010", "00000011"],
    ["00000001", "00000101", "00000101", "00000100"],
    ["00000100", "00000000", "00000000", "00000001"],
    ["00000101", "00000001", "00000001", "00000000"],
    ["00000111", "00000011", "00000011", "00000010"],
    ["00001000", "00001100", "00001100", "00001101"],
    ["00000101", "00000001", "00000001", "00000000"],
    ["00000110", "00000010", "00000010", "00000011"],
    ["00000110", "00000010", "00000010", "00000011"],
]
FLAGGED_BRANCH = (5, 0)  # (pos_a, pos_b) of the lone raised flag


def sample_state(stage=Stage.MARKED):
    big, small = sample_pair()
    dims = validate_pair(big, small)
    state = prepare_initial(encode_gqir(big, dims), encode_gqir(small, dims))
    if stage is Stage.PREPARED:
        return state
    state = apply_comparison(state)
    if stage is Stage.COMPARED:
        return state
    return apply_marking(state)


def expected_dump(rows, flagged=None):
    lines = []
    for pos_a in range(16):
        for pos_b in range(4):
            flag = 1 if flagged == (pos_a, pos_b) else 0
            val_a = int(rows[pos_a][pos_b], 2) if isinstance(rows[pos_a], list) else int(rows[pos_a], 2)
            val_b = int(SMALL_BITS[pos_b], 2)
            lines.append(f"{flag} {val_a} {pos_a} {val_b} {pos_b} 0.125")
    return "\n".join(lines) + "\n"


class TestPrepare:
    def test_branch_count_and_amplitude(self):
        state = sample_state(Stage.PREPARED)
        assert state.branch_count == 64
        assert np.all(state.amplitude == 0.125)
        b = state.branch(0, 0)
        assert (b.flag, b.val_a, b.val_b, b.amplitude) == (0, 162, 160, 0.125)

    def test_prepared_dump_matches_golden(self):
        assert dump_branches(sample_state(Stage.PREPARED)) == expected_dump(BIG_BITS)

    def test_two_by_two_over_single_pixel(self):
        big = make_image([1, 2, 3, 0], 2, 2)
        small = make_image([3], 1, 2)
        dims = validate_pair(big, small)
        state = prepare_initial(encode_gqir(big, dims), encode_gqir(small, dims))
        assert state.branch_count == 4
        assert np.all(state.amplitude == 0.5)

    def test_same_size_rejected(self):
        big, small = sample_pair()
        dims = validate_pair(big, small)
        enc = encode_gqir(big, dims)
        with pytest.raises(ValidationError):
            prepare_initial(enc, enc)


class TestComparison:
    def test_example_branch_xor(self):
        state = apply_comparison(sample_state(Stage.PREPARED))
        assert state.branch(0, 0).val_a == 2  # 162 ^ 160

    def test_equal_pixels_zero_out(self):
        state = sample_state(Stage.COMPARED)
        b = state.branch(*FLAGGED_BRANCH)
        assert b.val_a == 0

    def test_compared_dump_matches_golden(self):
        state = sample_state(Stage.COMPARED)
        assert dump_branches(state) == expected_dump(XOR_BITS)

    def test_xor_is_involution(self):
        prepared = sample_state(Stage.PREPARED)
        compared = apply_comparison(prepared)
        # applying the same XOR again must restore every original value
        restored = compared.val_a ^ compared.val_b
        assert np.array_equal(restored, prepared.val_a)

    def test_amplitudes_untouched(self):
        prepared = sample_state(Stage.PREPARED)
        compared = apply_comparison(prepared)
        assert np.array_equal(compared.amplitude, prepared.amplitude)


class TestMarking:
    def test_flag_conditions(self):
        state = sample_state(Stage.MARKED)
        for b in state.branches():
            expected = 1 if (b.val_a == 0 and b.pos_b == 0) else 0
            assert b.flag == expected, (b.pos_a, b.pos_b)

    def test_boxed_branch_flagged(self):
        state = sample_state(Stage.MARKED)
        assert state.branch(5, 0).flag == 1

    def test_zero_difference_off_origin_not_flagged(self):
        state = sample_state(Stage.MARKED)
        b = state.branch(3, 3)
        assert b.val_a == 0 and b.flag == 0

    def test_marked_dump_matches_golden(self):
        state = sample_state(Stage.MARKED)
        assert dump_branches(state) == expected_dump(XOR_BITS, flagged=FLAGGED_BRANCH)

    def test_only_flag_field_changes(self):
        compared = sample_state(Stage.COMPARED)
        marked = apply_marking(compared)
        assert np.array_equal(marked.val_a, compared.val_a)
        assert np.array_equal(marked.val_b, compared.val_b)
        assert np.array_equal(marked.pos_a, compared.pos_a)
        assert np.array_equal(marked.pos_b, compared.pos_b)
        assert np.array_equal(marked.amplitude, compared.amplitude)

    def test_no_match_flags_nothing(self):
        big = make_image([1, 2, 3, 1], 2, 2)
        small = make_image([0], 1, 2)  # value 0 never occurs in big
        dims = validate_pair(big, small)
        state = apply_marking(
            apply_comparison(prepare_initial(encode_gqir(big, dims), encode_gqir(small, dims)))
        )
        assert marked_set(state) == set()


class TestMarkedSet:
    def test_sample_pair_marks_position_five(self):
        assert marked_set(sample_state()) == {5}

    def test_multiplicity(self):
        big = make_image([7, 1, 7, 2, 7, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1], 4, 3)
        small = make_image([7, 1, 2, 3], 2, 3)
        dims = validate_pair(big, small)
        state = apply_marking(
            apply_comparison(prepare_initial(encode_gqir(big, dims), encode_gqir(small, dims)))
        )
        assert marked_set(state) == {0, 2, 4}

    def test_random_instance_matches_linear_scan(self):
        rng = random.Random(2024)
        big, small = random_instance(rng, 3, 1, 3)
        dims = validate_pair(big, small)
        state = apply_marking(
            apply_comparison(prepare_initial(encode_gqir(big, dims), encode_gqir(small, dims)))
        )
        expected = {k for k, v in enumerate(big.pixels) if v == small.pixels[0]}
        assert marked_set(state) == expected

    def test_property_marked_equals_anchor_scan(self):
        rng = random.Random(505)
        for _ in range(200):
            n = rng.randint(1, 3)
            m = rng.randint(0, n - 1)
            q = rng.randint(1, 4)
            big, small = random_instance(rng, n, m, q)
            dims = validate_pair(big, small)
            state = apply_marking(
                apply_comparison(
                    prepare_initial(encode_gqir(big, dims), encode_gqir(small, dims))
                )
            )
            expected = {k for k, v in enumerate(big.pixels) if v == small.pixels[0]}
            assert marked_set(state) == expected


class TestInvariants:
    def test_norm_and_branch_count_preserved(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 3)
            m = rng.randint(0, n - 1)
            big, small = random_instance(rng, n, m, 3)
            dims = validate_pair(big, small)
            state = prepare_initial(encode_gqir(big, dims), encode_gqir(small, dims))
            count = 1 << (2 * n + 2 * m)
            for step in (apply_comparison, apply_marking):
                assert state.branch_count == count
                assert abs(state.norm_squared() - 1.0) < 1e-12
                state = step(state)
            assert state.branch_count == count
            assert abs(state.norm_squared() - 1.0) < 1e-12

    def test_stage_machine_rejects_out_of_order(self):
        prepared = sample_state(Stage.PREPARED)
        compared = apply_comparison(prepared)
        marked = apply_marking(compared)
        with pytest.raises(StageError):
            apply_marking(prepared)
        with pytest.raises(StageError):
            apply_comparison(compared)
        with pytest.raises(StageError):
            apply_comparison(marked)
        with pytest.raises(StageError):
            marked_set(prepared)
        with pytest.raises(StageError):
            marked_set(compared)


class TestFactoredState:
    def test_branch_index_out_of_range_rejected(self):
        for stage in Stage:
            state = sample_state(stage)
            for pos_a, pos_b in [(0, 4), (0, -1), (16, 0), (-1, 0), (16, 4)]:
                with pytest.raises(IndexError):
                    state.branch(pos_a, pos_b)
            assert state.branch(15, 3).pos_a == 15

    def test_branch_agrees_with_array_views(self):
        rng = random.Random(606)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = rng.randint(0, n - 1)
            big, small = random_instance(rng, n, m, rng.randint(1, 4))
            dims = validate_pair(big, small)
            state = prepare_initial(encode_gqir(big, dims), encode_gqir(small, dims))
            nb = 1 << (2 * m)
            for step in (apply_comparison, apply_marking, None):
                views = (state.pos_a, state.val_a, state.pos_b, state.val_b, state.amplitude)
                assert all(len(v) == state.branch_count for v in views)
                assert all(not v.flags.writeable for v in views)
                for i in range(1 << (2 * n)):
                    for j in range(nb):
                        b = state.branch(i, j)
                        k = i * nb + j
                        assert (b.pos_a, b.val_a, b.pos_b, b.val_b, b.amplitude) == tuple(
                            v[k] for v in views
                        )
                        raised = state.stage is Stage.MARKED and b.val_a == 0 and j == 0
                        assert b.flag == int(raised)
                if step is not None:
                    state = step(state)

    def test_marking_memory_is_linear_in_the_images(self):
        rng = random.Random(707)
        big, small = random_instance(rng, 6, 4, 8)
        dims = validate_pair(big, small)
        enc_big, enc_small = encode_gqir(big, dims), encode_gqir(small, dims)
        tracemalloc.start()
        try:
            state = apply_marking(apply_comparison(prepare_initial(enc_big, enc_small)))
            marks = marked_set(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert state.branch_count == 1 << 20
        assert marks == {k for k, v in enumerate(big.pixels) if v == small.pixels[0]}
