"""Dense gate-level oracle and exhaustive classical matcher."""

import random

import numpy as np
import pytest

from qimatch.images import encode_gqir, validate_pair
from qimatch.marking import apply_comparison, apply_marking, marked_set, prepare_initial
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

from conftest import make_image, random_instance


def structured_marked(big, small):
    dims = validate_pair(big, small)
    state = apply_marking(
        apply_comparison(prepare_initial(encode_gqir(big, dims), encode_gqir(small, dims)))
    )
    return marked_set(state)


def encoded(big, small):
    dims = validate_pair(big, small)
    return encode_gqir(big, dims), encode_gqir(small, dims)


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
        state = dense_simulate_marking(*encoded(big, small))
        assert dense_marked_set(state) == {2}
        assert dense_marked_set(state) == structured_marked(big, small)

    def test_all_zero_flags_everything(self):
        big = make_image([0, 0, 0, 0], 2, 1)
        small = make_image([0], 1, 1)
        state = dense_simulate_marking(*encoded(big, small))
        assert dense_marked_set(state) == {0, 1, 2, 3}

    def test_no_match_flags_nothing(self):
        big = make_image([1, 2, 3, 1], 2, 2)
        small = make_image([0], 1, 2)
        state = dense_simulate_marking(*encoded(big, small))
        assert dense_marked_set(state) == set()

    def test_two_anchor_instance(self):
        big = make_image([3, 1, 3, 2], 2, 2)
        small = make_image([3], 1, 2)
        state = dense_simulate_marking(*encoded(big, small))
        assert dense_marked_set(state) == {0, 2}

    def test_four_by_four_agrees_with_structured(self):
        rng = random.Random(88)
        big, small = random_instance(rng, 2, 1, 2)
        state = dense_simulate_marking(*encoded(big, small))
        assert dense_marked_set(state) == structured_marked(big, small)

    def test_norm_is_one(self):
        rng = random.Random(89)
        big, small = random_instance(rng, 2, 1, 3)
        state = dense_simulate_marking(*encoded(big, small))
        assert abs(state.norm_squared() - 1.0) < 1e-10

    def test_kickback_register_carries_sign_pair(self):
        big = make_image([1, 2, 3, 0], 2, 2)
        small = make_image([3], 1, 2)
        state = dense_simulate_marking(*encoded(big, small))
        layout = state.layout
        idx = np.arange(len(state.amplitudes))
        lower = state.amplitudes[(idx >> layout.kick[0]) & 1 == 0]
        upper = state.amplitudes[(idx >> layout.kick[0]) & 1 == 1]
        assert np.array_equal(lower, -upper)

    def test_qubit_cap_enforced(self):
        big, small = sample_pair()  # bit depth 8 -> 24 qubits total
        with pytest.raises(ValueError):
            dense_simulate_marking(*encoded(big, small))
        rng = random.Random(90)
        big, small = random_instance(rng, 2, 1, 3)
        with pytest.raises(ValueError):
            dense_simulate_marking(*encoded(big, small), qubit_cap=10)

    def test_cross_oracle_agreement_randomized(self):
        rng = random.Random(91)
        for _ in range(100):
            n = rng.randint(1, 2)
            m = rng.randint(0, n - 1)
            q = rng.randint(1, 3)
            big, small = random_instance(rng, n, m, q)
            dense = dense_marked_set(dense_simulate_marking(*encoded(big, small)))
            structured = structured_marked(big, small)
            anchor = {k for k, v in enumerate(big.pixels) if v == small.pixels[0]}
            assert dense == structured == anchor


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
                    pixels = list(big.pixels)
                    x0, y0 = rng.randint(0, side - bside), rng.randint(0, side - bside)
                    for dy in range(bside):
                        for dx in range(bside):
                            pixels[(y0 + dy) * side + x0 + dx] = small.pixels[dy * bside + dx]
                    big = make_image(pixels, side, 1)
                expected = tuple(
                    (x, y)
                    for y in range(side - bside + 1)
                    for x in range(side - bside + 1)
                    if all(
                        big.pixels[(y + dy) * side + x + dx] == small.pixels[dy * bside + dx]
                        for dy in range(bside)
                        for dx in range(bside)
                    )
                )
                result = classical_match(big, small, MatchMode.FULL_BLOCK)
                assert result.locations == expected
                assert result.comparisons == bside * bside * (side - bside + 1) ** 2
                multi += len(expected) > 1
    assert multi >= 10
