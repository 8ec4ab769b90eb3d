"""The hot path's anchor scan and block search against the exhaustive classical scans."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qimatch.images import Image
from qimatch.marking import _FEW_HITS, _SCAN_CHUNK, anchors, block_matches
from qimatch.verify import MatchMode, classical_match

from conftest import classical_anchors, make_image, random_instance


class TestMarkedIndices:
    def test_sorted_read_only_int64_equal_to_the_set(self):
        rng = random.Random(808)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = rng.randint(0, n - 1)
            big, small = random_instance(rng, n, m, rng.choice([1, 2, 12]))
            got = anchors(big, small)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == sorted(classical_anchors(big, small))

    def test_mixed_depths_compare_at_full_width(self):
        # 16-bit small image against an 8-bit big one: 0x0105 must not match 5
        big = make_image([5, 1, 5, 2], 2, 8)
        for anchor, want in ((0x0105, []), (5, [0, 2])):
            small = make_image([anchor], 1, 16)
            assert anchors(big, small).tolist() == want
            assert sorted(classical_anchors(big, small)) == want


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
