"""Compare-and-mark pipeline against frozen golden listings and random oracles."""

import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qimatch.images import Image, ValidationError, validate_pair
from qimatch.marking import _FEW_HITS, _SCAN_CHUNK, anchors, block_matches
from qimatch.sample import sample_pair
from qimatch.verify import (
    JointState,
    MatchMode,
    Stage,
    StageError,
    apply_comparison,
    apply_marking,
    classical_match,
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


def listing(state):
    """Every branch as (flag, val_a, pos_a, val_b, pos_b, amplitude), in (pos_a, pos_b) order."""
    return [(b.flag, b.val_a, b.pos_a, b.val_b, b.pos_b, b.amplitude) for b in state.branches()]


def expected_listing(rows, flagged=None):
    listed = []
    for pos_a in range(16):
        for pos_b in range(4):
            flag = 1 if flagged == (pos_a, pos_b) else 0
            val_a = int(rows[pos_a][pos_b], 2) if isinstance(rows[pos_a], list) else int(rows[pos_a], 2)
            val_b = int(SMALL_BITS[pos_b], 2)
            listed.append((flag, val_a, pos_a, val_b, pos_b, 0.125))
    return listed


class TestPrepare:
    def test_branch_count_and_amplitude(self):
        state = sample_state(Stage.PREPARED)
        assert state.branch_count == 64
        assert all(b.amplitude == 0.125 for b in state.branches())
        b = state.branch(0, 0)
        assert (b.flag, b.val_a, b.val_b, b.amplitude) == (0, 162, 160, 0.125)

    def test_prepared_dump_matches_golden(self):
        assert listing(sample_state(Stage.PREPARED)) == expected_listing(BIG_BITS)

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
    def test_state_shares_the_pair_and_its_dims(self):
        rng = random.Random(31)
        for big_depth, small_depth in ((8, 8), (4, 8), (8, 4), (8, 16), (16, 3)):
            big = make_image([rng.randrange(1 << big_depth) for _ in range(16)], 4, big_depth)
            small = make_image([rng.randrange(1 << small_depth) for _ in range(4)], 2, small_depth)
            state = prepare_initial(big, small)
            assert state.dims == validate_pair(big, small)
            assert state.big is big.array and state.small is small.array

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
        assert listing(state) == expected_listing(XOR_BITS)

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
        assert listing(state) == expected_listing(XOR_BITS, flagged=FLAGGED_BRANCH)

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

    def test_reads_the_flags_that_branch_raises(self, monkeypatch):
        real = JointState.branch

        def one_more_flag(state, pos_a, pos_b):
            b = real(state, pos_a, pos_b)
            return replace(b, flag=1) if (pos_a, pos_b) == (9, 0) else b

        monkeypatch.setattr(JointState, "branch", one_more_flag)
        assert marked_set(sample_state()) == {5, 9}

    def test_multiplicity(self):
        big = make_image([7, 1, 7, 2, 7, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1], 4, 3)
        small = make_image([7, 1, 2, 3], 2, 3)
        state = apply_marking(apply_comparison(prepare_initial(big, small)))
        assert marked_set(state) == {0, 2, 4}

    def test_random_instance_matches_linear_scan(self):
        rng = random.Random(2024)
        big, small = random_instance(rng, 3, 1, 3)
        state = apply_marking(apply_comparison(prepare_initial(big, small)))
        expected = {k for k, v in enumerate(big.array.tolist()) if v == small.array[0]}
        assert marked_set(state) == expected

    def test_property_marked_equals_anchor_scan(self):
        rng = random.Random(505)
        for _ in range(200):
            n = rng.randint(1, 3)
            m = rng.randint(0, n - 1)
            q = rng.randint(1, 4)
            big, small = random_instance(rng, n, m, q)
            state = apply_marking(apply_comparison(prepare_initial(big, small)))
            expected = {k for k, v in enumerate(big.array.tolist()) if v == small.array[0]}
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
            assert got.tolist() == [k for k, v in enumerate(big.array.tolist()) if v == small.array[0]]

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
            for step in (apply_comparison, apply_marking, None):
                # the amplitudes are powers of two, so the sum is exact
                assert state.branch_count == count
                assert sum(b.amplitude ** 2 for b in state.branches()) == 1.0
                if step is not None:
                    state = step(state)

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
            big_px, small_px = big.array.tolist(), small.array.tolist()
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
        assert marks == {k for k, v in enumerate(big.array.tolist()) if v == small.array[0]}


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


def shared_image(values, bit_depth: int) -> Image:
    """A square image that shares ``values`` as its read-only storage array."""
    arr = np.ascontiguousarray(values, dtype=np.uint8 if bit_depth <= 8 else np.uint16).ravel()
    arr.flags.writeable = False
    side = int(round(len(arr) ** 0.5))
    return Image(side, side, bit_depth, arr)


def assert_anchors_are_the_scans(big: Image, small: Image) -> np.ndarray:
    """``anchors`` equals a whole-image comparison and, for a valid pair, classical_match."""
    got = anchors(big, small)
    assert got.dtype == np.int64 and not got.flags.writeable
    assert np.all(got[1:] > got[:-1])
    assert np.array_equal(got, np.flatnonzero(big.array == small.array[0]))
    if big.width > small.width:
        want = classical_match(big, small, MatchMode.ANCHOR_PIXEL).locations
        assert got.tolist() == [y * big.width + x for x, y in want]
    return got


SCAN_SIDE = 1024  # 16 chunks of the scan
SCAN_LAST = SCAN_SIDE * SCAN_SIDE - 1
CHUNK = _SCAN_CHUNK


def _spread(count: int) -> list[int]:
    return np.linspace(0, SCAN_LAST, count).astype(int).tolist()


# Anchor positions in a 1024x1024 image: around the chunk edges and either
# side of the count at which the scan hands over to one flatnonzero pass.
HIT_LAYOUTS = {
    "no hit": [],
    "first pixel": [0],
    "last pixel": [SCAN_LAST],
    "chunk - 1": [CHUNK - 1],
    "chunk": [CHUNK],
    "chunk + 1": [CHUNK + 1],
    "around the chunk edge": [CHUNK - 1, CHUNK, CHUNK + 1],
    "few spread": _spread(_FEW_HITS),
    "few + 1 spread": _spread(_FEW_HITS + 1),
    "few + 2 spread": _spread(_FEW_HITS + 2),
    "few + 1 in the first chunk": list(range(0, 3 * (_FEW_HITS + 1), 3)),
    "few + 2 in a later chunk": [5 * CHUNK + 7 * k for k in range(_FEW_HITS + 2)],
    "few early, the next in the last chunk": list(range(_FEW_HITS)) + [SCAN_LAST],
    "handover chunk already holding hits": ([2 * CHUNK + k for k in range(8)]
                                            + [7 * CHUNK + 3 * k for k in range(12)] + [SCAN_LAST]),
}


class TestAnchorScan:
    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("layout", HIT_LAYOUTS)
    def test_hit_layouts(self, layout, bit_depth):
        top = (1 << bit_depth) - 1
        big = np.random.default_rng(18).integers(0, top, SCAN_SIDE * SCAN_SIDE)
        big[HIT_LAYOUTS[layout]] = top
        small = shared_image([top, 0, 1, 2], bit_depth)
        got = assert_anchors_are_the_scans(shared_image(big, bit_depth), small)
        assert got.tolist() == sorted(HIT_LAYOUTS[layout])

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_constant_image_marks_every_position(self, bit_depth):
        got = assert_anchors_are_the_scans(shared_image(np.full(SCAN_SIDE * SCAN_SIDE, 3), bit_depth),
                                           shared_image([3, 3, 3, 3], bit_depth))
        assert np.array_equal(got, np.arange(SCAN_SIDE * SCAN_SIDE))

    @pytest.mark.parametrize("count", [1, _FEW_HITS, _FEW_HITS + 1, 1000])
    def test_sixteen_bit_small_never_matches_on_the_low_bits(self, count):
        positions = _spread(count)
        big = np.zeros(SCAN_SIDE * SCAN_SIDE, dtype=np.uint8)
        big[positions] = 5
        big = shared_image(big, 8)
        assert assert_anchors_are_the_scans(big, shared_image([0x0105] * 4, 16)).tolist() == []
        assert assert_anchors_are_the_scans(big, shared_image([5] * 4, 16)).tolist() == positions

    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("side", [1 << n for n in range(12)])
    def test_every_side_to_2048(self, side, bit_depth):
        # Random 8-bit content gives about 4^n / 256 anchors, 16-bit content
        # about 4^n / 65536, so the sides reach both sides of the handover.
        big = shared_image(np.random.default_rng(side).integers(0, 1 << bit_depth, side * side), bit_depth)
        assert_anchors_are_the_scans(big, Image(1, 1, bit_depth, big.array[:1]))

    def test_one_anchor_scan_holds_no_whole_image_mask(self):
        # A bool mask of the whole image would be 1 MiB; the scan holds one chunk.
        values = np.zeros(SCAN_SIDE * SCAN_SIDE, dtype=np.uint8)
        values[SCAN_LAST - 100] = 9
        big, small = shared_image(values, 8), shared_image([9, 0, 0, 0], 8)
        tracemalloc.start()
        try:
            got = anchors(big, small)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tolist() == [SCAN_LAST - 100]
        assert peak < 256 << 10


@st.composite
def scan_inputs(draw):
    """A one-row image of several chunks with its anchor positions placed by hand.

    Lengths run past five chunks and include every chunk edge; the anchor
    count is a few either side of the handover, or a density from sparse to
    half the pixels.
    """
    edges = [k * CHUNK + d for k in range(1, 5) for d in (-1, 0, 1)]
    size = draw(st.one_of(st.sampled_from(edges), st.integers(1, 5 * CHUNK + 7)))
    bit_depth = draw(st.sampled_from([8, 16]))
    top = (1 << bit_depth) - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        count = min(size, draw(st.integers(0, 2 * _FEW_HITS + 2)))
        positions = rng.choice(size, size=count, replace=False)
    else:
        positions = np.flatnonzero(rng.random(size) < draw(st.sampled_from([1e-5, 1e-4, 1e-3, 0.01, 0.5])))
    values = rng.integers(0, top, size)
    values[positions] = top
    arr = values.astype(np.uint8 if bit_depth <= 8 else np.uint16)
    arr.flags.writeable = False
    small_depth = draw(st.sampled_from([bit_depth, 16]))
    return Image(size, 1, bit_depth, arr), Image(1, 1, small_depth, [top]), sorted(positions.tolist())


@settings(max_examples=150, deadline=None)
@given(scan_inputs())
def test_anchor_scan_equals_the_placed_positions(case):
    big, small, positions = case
    got = anchors(big, small)
    assert got.dtype == np.int64 and not got.flags.writeable
    assert got.tolist() == positions
    assert np.array_equal(got, np.flatnonzero(big.array == small.array[0]))
