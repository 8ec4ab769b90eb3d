"""Compare-and-mark pipeline against frozen golden listings and random oracles."""

import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qimatch.images import Image, ValidationError, validate_pair
from qimatch.marking import anchors, block_matches
from qimatch.sample import sample_pair
from qimatch.verify import (
    MatchMode,
    Stage,
    StageError,
    apply_comparison,
    apply_marking,
    classical_match,
    dump_branches,
    marked_set,
    prepare_initial,
)

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
    state = prepare_initial(big, small)
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
        assert all(b.amplitude == 0.125 for b in state.branches())
        b = state.branch(0, 0)
        assert (b.flag, b.val_a, b.val_b, b.amplitude) == (0, 162, 160, 0.125)

    def test_prepared_dump_matches_golden(self):
        assert dump_branches(sample_state(Stage.PREPARED)) == expected_dump(BIG_BITS)

    def test_two_by_two_over_single_pixel(self):
        big = make_image([1, 2, 3, 0], 2, 2)
        small = make_image([3], 1, 2)
        state = prepare_initial(big, small)
        assert state.branch_count == 4
        assert [b.amplitude for b in state.branches()] == [0.5] * 4

    def test_same_size_rejected(self):
        big, small = sample_pair()
        with pytest.raises(ValidationError):
            prepare_initial(big, big)


class TestPrepareFromImages:
    def test_raw_images_equal_the_encoded_route(self):
        rng = random.Random(31)
        for big_depth, small_depth in ((8, 8), (4, 8), (8, 4), (8, 16), (16, 3)):
            big = make_image([rng.randrange(1 << big_depth) for _ in range(16)], 4, big_depth)
            small = make_image([rng.randrange(1 << small_depth) for _ in range(4)], 2, small_depth)
            dims = validate_pair(big, small)
            raw = prepare_initial(big, small)
            enc = prepare_initial(big, small)
            assert raw.dims == enc.dims == dims
            assert raw.big is big.array and raw.small is small.array
            assert np.array_equal(raw.big, enc.big) and np.array_equal(raw.small, enc.small)
            for step in (lambda s: s, apply_comparison, lambda s: apply_marking(apply_comparison(s))):
                assert dump_branches(step(raw)) == dump_branches(step(enc))
            marked = anchors(big, small)
            assert np.array_equal(marked, anchors(big, small))

    @pytest.mark.parametrize("pair", [
        ([0] * 16, 4, [0] * 16, 4),   # same side
        ([0] * 4, 2, [0] * 16, 4),    # small side larger
        ([0] * 16, 4, [0] * 9, 3),    # small side not a power of two
    ])
    def test_bad_pair_raises_validate_pairs_message(self, pair):
        big_px, big_side, small_px, small_side = pair
        big, small = make_image(big_px, big_side, 8), make_image(small_px, small_side, 8)
        with pytest.raises(ValidationError) as want:
            validate_pair(big, small)
        with pytest.raises(ValidationError) as got:
            prepare_initial(big, small)
        assert str(got.value) == str(want.value)


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
        restored = [b.val_a ^ b.val_b for b in compared.branches()]
        assert restored == [b.val_a for b in prepared.branches()]

    def test_amplitudes_untouched(self):
        prepared = sample_state(Stage.PREPARED)
        compared = apply_comparison(prepared)
        amplitudes = [b.amplitude for b in compared.branches()]
        assert amplitudes == [b.amplitude for b in prepared.branches()]


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
        for after, before in zip(marked.branches(), compared.branches(), strict=True):
            assert replace(after, flag=0) == replace(before, flag=0)

    def test_no_match_flags_nothing(self):
        big = make_image([1, 2, 3, 1], 2, 2)
        small = make_image([0], 1, 2)  # value 0 never occurs in big
        state = apply_marking(apply_comparison(prepare_initial(big, small)))
        assert marked_set(state) == set()


class TestMarkedSet:
    def test_sample_pair_marks_position_five(self):
        assert marked_set(sample_state()) == {5}

    def test_multiplicity(self):
        big = make_image([7, 1, 7, 2, 7, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1], 4, 3)
        small = make_image([7, 1, 2, 3], 2, 3)
        state = apply_marking(apply_comparison(prepare_initial(big, small)))
        assert marked_set(state) == {0, 2, 4}

    def test_random_instance_matches_linear_scan(self):
        rng = random.Random(2024)
        big, small = random_instance(rng, 3, 1, 3)
        state = apply_marking(apply_comparison(prepare_initial(big, small)))
        expected = {k for k, v in enumerate(big.pixels) if v == small.pixels[0]}
        assert marked_set(state) == expected

    def test_property_marked_equals_anchor_scan(self):
        rng = random.Random(505)
        for _ in range(200):
            n = rng.randint(1, 3)
            m = rng.randint(0, n - 1)
            q = rng.randint(1, 4)
            big, small = random_instance(rng, n, m, q)
            state = apply_marking(apply_comparison(prepare_initial(big, small)))
            expected = {k for k, v in enumerate(big.pixels) if v == small.pixels[0]}
            assert marked_set(state) == expected


class TestMarkedIndices:
    def test_sorted_read_only_int64_equal_to_the_set(self):
        rng = random.Random(808)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = rng.randint(0, n - 1)
            big, small = random_instance(rng, n, m, rng.choice([1, 2, 12]))
            state = apply_marking(apply_comparison(prepare_initial(big, small)))
            got = anchors(big, small)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == sorted(marked_set(state))
            assert got.tolist() == [k for k, v in enumerate(big.pixels) if v == small.pixels[0]]

    def test_state_reads_the_image_arrays(self):
        big, small = sample_pair()
        state = prepare_initial(big, small)
        assert state.big is big.array and state.small is small.array

    def test_mixed_depths_compare_at_full_width(self):
        # 16-bit small image against an 8-bit big one: 0x0105 must not match 5
        big = make_image([5, 1, 5, 2], 2, 8)
        for anchor, want in ((0x0105, []), (5, [0, 2])):
            small = make_image([anchor], 1, 16)
            state = apply_marking(apply_comparison(prepare_initial(big, small)))
            assert anchors(big, small).tolist() == want
            assert sorted(marked_set(state)) == want
            with pytest.raises(StageError):
                marked_set(apply_comparison(prepare_initial(big, small)))


class TestInvariants:
    def test_norm_and_branch_count_preserved(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 3)
            m = rng.randint(0, n - 1)
            big, small = random_instance(rng, n, m, 3)
            state = prepare_initial(big, small)
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

    def test_branch_reads_the_images(self):
        rng = random.Random(606)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = rng.randint(0, n - 1)
            big, small = random_instance(rng, n, m, rng.randint(1, 4))
            big_px, small_px = big.pixels, small.pixels
            state = prepare_initial(big, small)
            for step in (apply_comparison, apply_marking, None):
                for i in range(1 << (2 * n)):
                    for j in range(1 << (2 * m)):
                        b = state.branch(i, j)
                        val_a = big_px[i]
                        if state.stage is not Stage.PREPARED:
                            val_a ^= small_px[j]
                        assert (b.pos_a, b.val_a, b.pos_b, b.val_b) == (i, val_a, j, small_px[j])
                        assert b.amplitude == 1 / (1 << (n + m))
                        raised = state.stage is Stage.MARKED and val_a == 0 and j == 0
                        assert b.flag == int(raised)
                if step is not None:
                    state = step(state)

    def test_marking_memory_is_linear_in_the_images(self):
        rng = random.Random(707)
        big, small = random_instance(rng, 6, 4, 8)
        tracemalloc.start()
        try:
            state = apply_marking(apply_comparison(prepare_initial(big, small)))
            marks = marked_set(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert state.branch_count == 1 << 20
        assert marks == {k for k, v in enumerate(big.pixels) if v == small.pixels[0]}


@st.composite
def block_pairs(draw):
    """A big image and a small one cut from it, possibly with one pixel changed.

    Random 8-bit content leaves few anchors, so the search eliminates by
    gathers; constant content, 2-level stripes and 1-bit noise leave more
    than a quarter of the corners, so it finishes with the strided grid pass.
    A 16-bit small image changes its pixel above bit 7, which a comparison
    at the big image's 8 bits would miss.
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, n - 1))
    side, b = 1 << n, 1 << m
    bit_depth = draw(st.sampled_from([1, 2, 8]))
    top = (1 << bit_depth) - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    content = draw(st.sampled_from(["random", "constant", "striped"]))
    if content == "random":
        big = rng.integers(0, top + 1, size=(side, side))
    elif content == "constant":
        big = np.full((side, side), draw(st.integers(0, top)))
    else:
        width = draw(st.integers(1, 3))
        big = np.broadcast_to((np.arange(side) // width % 2) * top, (side, side))
        big = big.T if draw(st.booleans()) else big
    y, x = draw(st.integers(0, side - b)), draw(st.integers(0, side - b))
    small = big[y : y + b, x : x + b].copy()
    small_depth = draw(st.sampled_from([bit_depth, 16]))
    if draw(st.booleans()):
        small[divmod(draw(st.integers(0, b * b - 1)), b)] ^= 1 if small_depth == bit_depth else 1 << 8
    return (Image(side, side, bit_depth, big.ravel()), Image(b, b, small_depth, small.ravel()))


class TestBlockMatches:
    @settings(max_examples=300, deadline=None)
    @given(block_pairs())
    def test_equal_to_the_exhaustive_full_block_scan(self, pair):
        big, small = pair
        got = block_matches(big, small, anchors(big, small))
        want = classical_match(big, small, MatchMode.FULL_BLOCK).locations
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == [y * big.width + x for x, y in want]
