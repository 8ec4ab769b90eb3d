"""Dense gate-level oracle and exhaustive classical matcher."""

import math
import random

import numpy as np
import pytest

from qimatch.sample import sample_pair
from qimatch.verify import (
    MatchMode,
    RegisterLayout,
    apply_cnot,
    apply_controlled_flip,
    classical_match,
    dense_marked_set,
    dense_simulate_marking,
)

from conftest import classical_anchors, make_image, random_instance


class TestRegisterLayout:
    def test_field_extraction_round_trip(self):
        layout = RegisterLayout(bit_depth=3, n=2, m=1)
        assert layout.total_qubits == 2 + 6 + 4 + 2
        idx = np.array(
            [
                (1 << layout.kick[0])
                | (1 << layout.flag[0])
                | (5 << layout.val_a[0])
                | (9 << layout.pos_a[0])
                | (2 << layout.val_b[0])
                | (3 << layout.pos_b[0])
            ]
        )
        assert layout.field(idx, layout.kick)[0] == 1
        assert layout.field(idx, layout.flag)[0] == 1
        assert layout.field(idx, layout.val_a)[0] == 5
        assert layout.field(idx, layout.pos_a)[0] == 9
        assert layout.field(idx, layout.val_b)[0] == 2
        assert layout.field(idx, layout.pos_b)[0] == 3


class TestGateHelpers:
    def test_cnot_against_dict_recomputation(self):
        rng = np.random.default_rng(3)
        state = rng.normal(size=16)
        control, target = 1, 3
        got = apply_cnot(state, control, target)
        expected = np.zeros_like(state)
        for basis, amp in enumerate(state):
            out = basis ^ (1 << target) if (basis >> control) & 1 else basis
            expected[out] += amp
        assert np.array_equal(got, expected)
        assert abs(np.sum(got * got) - np.sum(state * state)) < 1e-10

    def test_controlled_flip_permutes(self):
        rng = np.random.default_rng(4)
        state = rng.normal(size=8)
        idx = np.arange(8)
        predicate = (idx & 0b011) == 0b011  # bits 0 and 1 set
        got = apply_controlled_flip(state, predicate, target=2)
        assert got[0b111] == state[0b011]
        assert got[0b011] == state[0b111]
        assert abs(np.sum(got * got) - np.sum(state * state)) < 1e-10


class TestDenseSimulation:
    def test_two_by_two_single_pixel(self):
        big = make_image([1, 2, 3, 0], 2, 2)
        small = make_image([3], 1, 2)
        state = dense_simulate_marking(big, small)
        assert dense_marked_set(state) == {2}
        assert dense_marked_set(state) == classical_anchors(big, small)

    def test_all_zero_flags_everything(self):
        big = make_image([0, 0, 0, 0], 2, 1)
        small = make_image([0], 1, 1)
        state = dense_simulate_marking(big, small)
        assert dense_marked_set(state) == {0, 1, 2, 3}

    def test_no_match_flags_nothing(self):
        big = make_image([1, 2, 3, 1], 2, 2)
        small = make_image([0], 1, 2)
        state = dense_simulate_marking(big, small)
        assert dense_marked_set(state) == set()

    def test_two_anchor_instance(self):
        big = make_image([3, 1, 3, 2], 2, 2)
        small = make_image([3], 1, 2)
        state = dense_simulate_marking(big, small)
        assert dense_marked_set(state) == {0, 2}

    def test_four_by_four_agrees_with_classical(self):
        rng = random.Random(88)
        big, small = random_instance(rng, 2, 1, 2)
        state = dense_simulate_marking(big, small)
        assert dense_marked_set(state) == classical_anchors(big, small)

    def test_zero_difference_off_origin_not_flagged(self):
        # A[1] == B[1] gives branch (1, 1) a zero difference, but only small
        # position 0 may raise the flag, so the lone anchor A[5] == B[0] is marked.
        big = make_image([2, 1, 3, 7, 6, 5, 1, 0, 4, 1, 2, 6, 7, 0, 3, 4], 4, 3)
        small = make_image([5, 1, 1, 2], 2, 3)
        state = dense_simulate_marking(big, small)
        layout, held = state.layout, np.flatnonzero(state.amplitudes)
        branch = held[(layout.field(held, layout.pos_a) == 1) & (layout.field(held, layout.pos_b) == 1)]
        assert len(branch) == 2  # the kickback pair
        assert np.all(layout.field(branch, layout.val_a) == 0)
        assert np.all(layout.field(branch, layout.flag) == 0)
        assert dense_marked_set(state) == {5}

    def test_norm_is_one(self):
        rng = random.Random(89)
        big, small = random_instance(rng, 2, 1, 3)
        state = dense_simulate_marking(big, small)
        assert abs(state.norm_squared() - 1.0) < 1e-10

    def test_kickback_register_carries_sign_pair(self):
        big = make_image([1, 2, 3, 0], 2, 2)
        small = make_image([3], 1, 2)
        state = dense_simulate_marking(big, small)
        layout = state.layout
        idx = np.arange(len(state.amplitudes))
        lower = state.amplitudes[(idx >> layout.kick[0]) & 1 == 0]
        upper = state.amplitudes[(idx >> layout.kick[0]) & 1 == 1]
        assert np.array_equal(lower, -upper)

    def test_qubit_cap_enforced(self):
        # a 4x4/2x2 pair takes 8 qubits plus two intensity registers
        big, small = sample_pair()
        halved = [make_image([v >> 1 for v in img.array.tolist()], img.width, 7) for img in (big, small)]
        state = dense_simulate_marking(*halved)
        assert state.layout.total_qubits == 22 and len(state.amplitudes) == 1 << 22
        assert dense_marked_set(state) == classical_anchors(*halved)
        with pytest.raises(ValueError, match="^instance needs 24 qubits, cap is 22$"):
            dense_simulate_marking(big, small)

    def test_cross_oracle_agreement_randomized(self):
        rng = random.Random(91)
        for _ in range(100):
            n = rng.randint(1, 2)
            m = rng.randint(0, n - 1)
            q = rng.randint(1, 3)
            big, small = random_instance(rng, n, m, q)
            dense = dense_marked_set(dense_simulate_marking(big, small))
            assert dense == classical_anchors(big, small)


class TestDenseMixedDepths:
    @pytest.mark.parametrize("depths", [(4, 8), (8, 4), (1, 3), (3, 2)])
    def test_raw_pair_agrees_with_classical(self, depths):
        rng = random.Random(sum(depths))
        big_depth, small_depth = depths
        # An 8-bit pair needs a 20-qubit register even at n = 1, so it gets fewer runs.
        n, runs = (1, 4) if max(depths) > 4 else (2, 20)
        for run in range(runs):
            m = rng.randint(0, n - 1)
            big_px = [rng.randrange(1 << big_depth) for _ in range(4**n)]
            small_px = [rng.randrange(1 << small_depth) for _ in range(4**m)]
            if run % 2 == 0:  # plant the anchor so marks occur
                small_px[0] = big_px[rng.randrange(4**n)] = rng.randrange(1 << min(depths))
            big, small = make_image(big_px, 1 << n, big_depth), make_image(small_px, 1 << m, small_depth)
            dense = dense_simulate_marking(big, small)
            assert dense.layout.bit_depth == max(depths)
            assert dense_marked_set(dense) == classical_anchors(big, small)
            assert abs(dense.norm_squared() - 1.0) < 1e-10

    @pytest.mark.parametrize("depths", [(1, 1), (2, 2), (3, 3), (4, 8), (8, 4), (1, 3), (3, 2)])
    def test_dense_vector_holds_every_branch(self, depths):
        # Each (pos_a, pos_b) branch holds difference a[pos_a] ^ b[pos_b], flagged where
        # that is 0 and pos_b is 0, with kickback 0 at +w/sqrt(2) and kickback 1
        # at -w/sqrt(2), w = 1/2**(n+m); every other amplitude is zero, bit for bit.
        rng = random.Random(100 + sum(depths))
        big_depth, small_depth = depths
        for run in range(6):
            n = 1 if max(depths) > 4 else rng.randint(1, 2)
            m = rng.randint(0, n - 1)
            big_px = [rng.randrange(1 << big_depth) for _ in range(4**n)]
            small_px = [rng.randrange(1 << small_depth) for _ in range(4**m)]
            if run % 2 == 0:  # plant the anchor so marks occur
                small_px[0] = big_px[rng.randrange(4**n)] = rng.randrange(1 << min(depths))
            big, small = make_image(big_px, 1 << n, big_depth), make_image(small_px, 1 << m, small_depth)
            dense = dense_simulate_marking(big, small)
            layout = dense.layout
            w = 1.0 / (1 << (n + m))
            want = np.zeros(1 << layout.total_qubits)
            for pos_a, a in enumerate(big_px):
                for pos_b, b in enumerate(small_px):
                    diff = a ^ b
                    flag = int(diff == 0 and pos_b == 0)
                    k = ((flag << layout.flag[0]) | (diff << layout.val_a[0])
                         | (pos_a << layout.pos_a[0]) | (b << layout.val_b[0])
                         | (pos_b << layout.pos_b[0]))
                    want[k] = w / math.sqrt(2.0)
                    want[k | 1 << layout.kick[0]] = -want[k]
            assert np.array_equal(dense.amplitudes, want), (depths, run)

    @pytest.mark.parametrize("depths", [(16, 8), (8, 16)])
    def test_eight_and_sixteen_bits_take_the_wider_register(self, depths):
        # Two 16-bit registers make 36 qubits, past any dense cap, so only the
        # layout width is checked here; the hot path and the classical scan
        # compare 8/16-bit pairs at full width in test_marking's
        # TestAnchorScan::test_sixteen_bit_small_never_matches_on_the_low_bits.
        big = make_image([0, 300 % (1 << depths[0]), 5, 7], 2, depths[0])
        small = make_image([5], 1, depths[1])
        with pytest.raises(ValueError, match="needs 36 qubits"):
            dense_simulate_marking(big, small)


class TestClassicalMatch:
    def test_sample_pair_full_block(self):
        big, small = sample_pair()
        result = classical_match(big, small, MatchMode.FULL_BLOCK)
        assert result.locations == ((1, 1),)
        assert result.comparisons == 4 * 9

    def test_sample_pair_anchor(self):
        big, small = sample_pair()
        result = classical_match(big, small, MatchMode.ANCHOR_PIXEL)
        assert result.locations == ((1, 1),)
        assert result.comparisons == 16

    def test_uniform_tiling_matches_everywhere(self):
        big = make_image([7] * 16, 4, 3)
        small = make_image([7] * 4, 2, 3)
        result = classical_match(big, small, MatchMode.FULL_BLOCK)
        assert len(result.locations) == 9
        assert result.locations == tuple((x, y) for y in range(3) for x in range(3))

    def test_full_block_subset_of_anchor(self):
        rng = random.Random(92)
        for _ in range(50):
            n = rng.randint(1, 3)
            m = rng.randint(0, n - 1)
            big, small = random_instance(rng, n, m, 2)
            full = classical_match(big, small, MatchMode.FULL_BLOCK)
            anchor = classical_match(big, small, MatchMode.ANCHOR_PIXEL)
            assert set(full.locations) <= set(anchor.locations)

    def test_comparison_counts_match_formulas(self):
        rng = random.Random(93)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = rng.randint(0, n - 1)
            big, small = random_instance(rng, n, m, 2)
            side, bside = 1 << n, 1 << m
            full = classical_match(big, small, MatchMode.FULL_BLOCK)
            anchor = classical_match(big, small, MatchMode.ANCHOR_PIXEL)
            assert full.comparisons == (bside * bside) * (side - bside + 1) ** 2
            assert anchor.comparisons == side * side

    def test_locations_in_range(self):
        rng = random.Random(94)
        big, small = random_instance(rng, 3, 1, 1)  # 1-bit images collide a lot
        side, bside = 8, 2
        full = classical_match(big, small, MatchMode.FULL_BLOCK)
        anchor = classical_match(big, small, MatchMode.ANCHOR_PIXEL)
        for x, y in full.locations:
            assert 0 <= x <= side - bside and 0 <= y <= side - bside
        for x, y in anchor.locations:
            assert 0 <= x < side and 0 <= y < side

    def test_edge_hits_keep_raster_order_when_side_and_span_differ(self):
        # side 16, block 4, span 13: flat hit indices divided by the wrong
        # width land on other rows, so every location below would move.
        side, b = 16, 4
        small = make_image(list(range(1, b * b + 1)), b, 8)
        pixels = [0] * (side * side)
        for x0, y0 in ((side - b, 0), (0, side - b), (side - b, side - b)):
            for dy in range(b):
                for dx in range(b):
                    pixels[(y0 + dy) * side + x0 + dx] = small.array[dy * b + dx]
        for x, y in ((side - 1, 5), (6, side - 1)):  # lone anchors, last column and row
            pixels[y * side + x] = small.array[0]
        big = make_image(pixels, side, 8)

        full = classical_match(big, small, MatchMode.FULL_BLOCK)
        assert full.locations == ((12, 0), (0, 12), (12, 12))
        assert full.comparisons == b * b * (side - b + 1) ** 2
        anchor = classical_match(big, small, MatchMode.ANCHOR_PIXEL)
        assert anchor.locations == ((12, 0), (15, 5), (0, 12), (12, 12), (6, 15))
        assert anchor.comparisons == side * side


def test_full_block_equals_literal_nested_scan():
    rng = random.Random(95)
    multi = 0
    for n in range(1, 5):
        side = 1 << n
        for m in range(n):
            bside = 1 << m
            for trial in range(6):
                big, small = random_instance(rng, n, m, 1)
                if trial % 2:  # plant the small image so larger blocks match too
                    pixels = big.array.tolist()
                    x0, y0 = rng.randint(0, side - bside), rng.randint(0, side - bside)
                    for dy in range(bside):
                        for dx in range(bside):
                            pixels[(y0 + dy) * side + x0 + dx] = small.array[dy * bside + dx]
                    big = make_image(pixels, side, 1)
                big_px, small_px = big.array.tolist(), small.array.tolist()
                expected = tuple(
                    (x, y)
                    for y in range(side - bside + 1)
                    for x in range(side - bside + 1)
                    if all(
                        big_px[(y + dy) * side + x + dx] == small_px[dy * bside + dx]
                        for dy in range(bside)
                        for dx in range(bside)
                    )
                )
                result = classical_match(big, small, MatchMode.FULL_BLOCK)
                assert result.locations == expected
                assert result.comparisons == bside * bside * (side - bside + 1) ** 2
                multi += len(expected) > 1
    assert multi >= 10
