"""Iteration planning: quartic scan, radical cross-check, fit, optimal scan, bounds."""

import math
import warnings
from fractions import Fraction

import pytest

from qimatch import grover
from qimatch.cli import main
from qimatch.grover import (
    MAX_PLAN_SIDE,
    PlanMode,
    initial_pair,
    plan_iterations,
    probability_lower_bound,
    recurrence_step,
    success_probability,
)
from qimatch.verify import closed_form_iterations

from conftest import quartic_doubled


def scan_linear(a):
    i = 1
    while quartic_doubled(i, a) >= 0:
        i += 1
    return i


def success_after(a, rounds):
    pair = initial_pair(a)
    for _ in range(rounds):
        pair = recurrence_step(pair)
    return pair.marked * pair.marked


# Frozen outputs of the exact quartic scan, independently confirmed by the
# boundary sign checks below.  Note the two largest sides: the reference
# table frozen in the acceptance suite lists 13044 and 52180 there, but the
# quartic is still positive at those counts (the true roots are 13044.354 and
# 52180.416), so the first sign change sits one step later.
EXACT_COUNTS = {
    4: 3, 8: 6, 16: 12, 32: 25, 64: 50, 128: 101, 256: 203, 512: 407,
    1024: 815, 2048: 1630, 4096: 3261, 8192: 6522, 16384: 13045,
    32768: 26090, 65536: 52181,
}

FIT_COUNTS = {
    4: 3, 8: 6, 16: 12, 32: 25, 64: 50, 128: 101, 256: 203, 512: 407,
    1024: 815, 2048: 1630, 4096: 3261, 8192: 6522, 16384: 13044,
    32768: 26089, 65536: 52179,
}


class TestExactMode:
    def test_planner_quartic_is_the_written_out_one(self):
        for a in (1, 2, 3, 4, 7, 64, 1 << 20):
            for i in (-3, -1, 0, 1, 2, 5, 11, a - 1, a, 3 * a):
                assert grover._quartic_doubled(i, a) == quartic_doubled(i, a), (i, a)

    def test_matches_linear_scan_oracle(self):
        for a in (2, 4, 8, 16, 32, 64, 128, 256, 512):
            assert plan_iterations(a, PlanMode.EXACT).iterations == scan_linear(a)

    def test_frozen_counts(self):
        got = {a: plan_iterations(a, PlanMode.EXACT).iterations for a in EXACT_COUNTS}
        assert got == EXACT_COUNTS

    def test_boundary_signs_are_exact(self):
        for a, i in EXACT_COUNTS.items():
            assert quartic_doubled(i, a) < 0
            assert quartic_doubled(i - 1, a) >= 0 or i == 1
        # every power-of-two side of the planning domain, 2 to MAX_PLAN_SIDE
        for k in range(1, MAX_PLAN_SIDE.bit_length()):
            a = 1 << k
            i = plan_iterations(a, PlanMode.EXACT).iterations
            assert quartic_doubled(i, a) < 0, k
            assert quartic_doubled(i - 1, a) >= 0 or i == 1, k

    def test_scan_matches_linear_scan_at_every_side_to_2048(self):
        sides = [1 << k for k in range(1, 12)]
        assert [grover._scan_exact(a) for a in sides] == [scan_linear(a) for a in sides]

    def test_at_most_two_quartic_evaluations_per_side(self, monkeypatch):
        # every side of the planning domain, 2 to MAX_PLAN_SIDE
        calls = []
        quartic = grover._quartic_doubled
        monkeypatch.setattr(grover, "_quartic_doubled", lambda i, a: calls.append(i) or quartic(i, a))
        for k in range(1, MAX_PLAN_SIDE.bit_length()):
            calls.clear()
            grover._scan_exact(1 << k)
            assert len(calls) <= 2, k

    @pytest.mark.parametrize("a", [2, 4, 8, 64, 1304, 2048, 1 << 20, 1 << 64, MAX_PLAN_SIDE])
    def test_exact_from_any_seed(self, monkeypatch, a):
        # The seed is confirmed by the quartic's signs or refused: a wrong one
        # raises rather than give an unconfirmed count.
        want = grover._scan_exact(a)
        seeds = {1, 2, a // 3, a // 2, want - 2, want - 1, want, want + 1, want + 2, a - 1, a}
        for seed in sorted(s for s in seeds if 1 <= s <= a):
            monkeypatch.setattr(grover, "_root_seed", lambda _, s=seed: s)
            if seed == want:
                assert grover._scan_exact(a) == want
            else:
                with pytest.raises(ArithmeticError, match=f"seed {seed} is not"):
                    grover._scan_exact(a)

    def test_a_zero_of_the_quartic_is_not_negative(self, monkeypatch):
        # The count is the first i >= 1 where the quartic is < 0.  The exact
        # quartic has no integer root at these sides, so a stand-in with one
        # pins the rule at a zero on either side of the seed.
        a = 64
        seed = grover._root_seed(a)
        monkeypatch.setattr(grover, "_quartic_doubled", lambda i, _: seed - 1 - i)
        assert grover._scan_exact(a) == seed
        monkeypatch.setattr(grover, "_quartic_doubled", lambda i, _: seed - i)
        with pytest.raises(ArithmeticError, match=f"seed {seed} is not"):
            grover._scan_exact(a)

    def test_radical_agrees_with_scan(self):
        for a in (4, 16, 128, 1024, 16384, 65536):
            root = closed_form_iterations(a)
            assert abs(root.imag) < 1e-6
            assert math.ceil(root.real) == EXACT_COUNTS[a]

    def test_no_cross_check_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (4, 1024, 65536):
                plan_iterations(a, PlanMode.EXACT)

    def test_smallest_side(self):
        assert plan_iterations(2, PlanMode.EXACT).iterations == 1


class TestFitMode:
    def test_frozen_counts(self):
        got = {a: plan_iterations(a, PlanMode.FIT).iterations for a in FIT_COUNTS}
        assert got == FIT_COUNTS

    def test_round_half_up_against_direct_evaluation(self):
        for a in FIT_COUNTS:
            assert FIT_COUNTS[a] == max(1, math.floor(0.7962 * a - 0.6057 + 0.5))

    def test_clamped_to_one(self):
        assert plan_iterations(2, PlanMode.FIT).iterations == 1

    def test_within_one_of_exact_up_to_32768(self):
        for a in EXACT_COUNTS:
            diff = abs(FIT_COUNTS[a] - EXACT_COUNTS[a])
            if a <= 32768:
                assert diff <= 1
            else:
                assert diff == 2  # the fit undershoots the true scan at 65536


class TestOptimalMode:
    def test_argmax_oracle(self):
        # independent argmax: sweep far past the peak, take the first maximum
        for a in (4, 8, 16, 32, 64, 128, 256, 1024):
            probs = []
            pair = initial_pair(a)
            for _ in range(2 * a):
                probs.append(pair.marked * pair.marked)
                pair = recurrence_step(pair)
            best = max(range(len(probs)), key=lambda i: (probs[i], -i))
            assert plan_iterations(a, PlanMode.OPTIMAL).iterations == best

    def test_diverges_from_exact_at_larger_sides(self):
        assert plan_iterations(128, PlanMode.OPTIMAL).iterations == 100
        assert plan_iterations(128, PlanMode.EXACT).iterations == 101
        assert plan_iterations(1024, PlanMode.OPTIMAL).iterations == 804

    def test_agrees_with_exact_at_small_sides(self):
        for a in (4, 8, 16, 32, 64):
            assert (
                plan_iterations(a, PlanMode.OPTIMAL).iterations
                == plan_iterations(a, PlanMode.EXACT).iterations
            )


class TestPlanContract:
    @pytest.mark.parametrize("bad", [0, 1, 3, 6, -4])
    def test_invalid_side_rejected(self, bad):
        with pytest.raises(ValueError):
            plan_iterations(bad, PlanMode.EXACT)

    def test_plan_names_the_rule_and_count(self):
        def optimal_rounds(a, marked):
            if marked == 0 or 2 * marked >= a * a:
                return 0
            return math.floor(math.pi / (4 * math.asin(math.sqrt(marked / (a * a)))))

        for a in (2, 4, 64, 1 << 20, MAX_PLAN_SIDE):
            for mode in PlanMode:
                for marked in (0, 1, 2, 4):
                    plan = plan_iterations(a, mode, marked)
                    case = (a, mode, marked)
                    assert plan.mode is (mode if marked == 1 else PlanMode.OPTIMAL), case
                    i = plan.iterations
                    if plan.mode is PlanMode.EXACT:
                        assert i >= 1 and quartic_doubled(i, a) < 0 <= quartic_doubled(i - 1, a), case
                    elif plan.mode is PlanMode.FIT:
                        assert i == max(1, math.floor(0.7962 * a - 0.6057 + 0.5)), case
                    else:
                        assert i == optimal_rounds(a, marked), case
        with pytest.raises(ValueError):
            plan_iterations(2, PlanMode.EXACT, 5)

    def test_predicted_success_from_recurrence(self):
        plan = plan_iterations(4, PlanMode.EXACT)
        assert plan.iterations == 3
        assert abs(success_probability(4, plan.iterations) - float(Fraction(251, 256) ** 2)) < 1e-15

    def test_fields_in_range(self):
        for mode in PlanMode:
            for a in (2, 4, 64):
                plan = plan_iterations(a, mode)
                success = success_probability(a, plan.iterations)
                assert plan.iterations >= 1
                assert 0.0 <= success <= 1.0
                assert 0.0 < plan.lower_bound <= success
                assert plan.lower_bound < 1.0


class TestLowerBound:
    def test_value_at_side_four(self):
        assert abs(probability_lower_bound(4) - 0.8976) < 5e-4

    def test_limit_is_constant_term_squared(self):
        assert abs(probability_lower_bound(1 << 40) - 0.9194**2) < 1e-9

    def test_golden_success_dominates_bound(self):
        assert float(Fraction(251, 256) ** 2) >= probability_lower_bound(4)

    def test_small_side_rejected(self):
        with pytest.raises(ValueError):
            probability_lower_bound(1)

    @pytest.mark.parametrize("mode", list(PlanMode))
    def test_one_mark_from_side_four_gets_the_closed_form(self, mode):
        for a in (4, 8, 1024):
            assert plan_iterations(a, mode).lower_bound == probability_lower_bound(a), a

    @pytest.mark.parametrize("mode", list(PlanMode))
    def test_never_above_the_planned_success(self, mode):
        # side 2 takes 1 - M/N: the closed form reads 1.0022 there
        assert plan_iterations(2, mode).lower_bound == 0.75
        for k in range(1, 538):
            plan = plan_iterations(1 << k, mode)
            assert plan.lower_bound <= success_probability(1 << k, plan.iterations), k

    def test_holds_along_exact_plans(self):
        a = 4
        while a <= 4096:
            plan = plan_iterations(a, PlanMode.EXACT)
            assert success_probability(a, plan.iterations) >= plan.lower_bound, a
            a *= 2


class TestLargeSides:
    """Float64 edges of the planner: a**3 overflowed from 2**342, 1/a**2
    underflows from 2**538."""

    @pytest.mark.parametrize("k", [341, 342, 537])
    @pytest.mark.parametrize("mode", list(PlanMode))
    def test_plans_match_the_rotation(self, k, mode):
        a = 1 << k
        plan = plan_iterations(a, mode)
        r = plan.iterations
        success = success_probability(a, r)
        # theta = asin(1/a) = 1/a to float precision this far out.
        assert abs(success - math.sin(float(Fraction(2 * r + 1, a))) ** 2) < 1e-12
        assert success > plan.lower_bound == 0.9194**2
        ratio = {PlanMode.EXACT: math.sqrt((3 - math.sqrt(3)) / 2), PlanMode.FIT: 0.7962,
                 PlanMode.OPTIMAL: math.pi / 4}[mode]
        assert abs(float(Fraction(r, a)) - ratio) < 1e-12

    @pytest.mark.parametrize("k", [341, 342, 537])
    def test_exact_count_is_the_first_sign_change(self, k):
        a = 1 << k
        i = plan_iterations(a, PlanMode.EXACT).iterations
        assert quartic_doubled(i, a) < 0 <= quartic_doubled(i - 1, a)

    def test_bound_unchanged_below_the_old_overflow(self):
        for k in range(1, 342):
            a = 1 << k
            old = (0.9194 + 0.0567 / a + 0.2302 / a**2 - 0.0336 / a**3) ** 2
            assert probability_lower_bound(a) == old, k

    @pytest.mark.parametrize("k", [342, 538, 1024, 1100])
    def test_bound_defined_past_float_range(self, k):
        assert probability_lower_bound(1 << k) == 0.9194**2

    @pytest.mark.parametrize("k", [538, 1024])
    @pytest.mark.parametrize("mode", list(PlanMode))
    def test_past_the_angle_underflow_rejected(self, k, mode):
        with pytest.raises(ValueError, match="float64 limit"):
            plan_iterations(1 << k, mode)


class TestGrowthEnvelope:
    def test_scaled_gap_stays_below_polynomial_envelope(self):
        # envelope: a - (2i^2+4i+1)/a + (2/3 i^4 + 8/3 i^3 + 4/3 i^2 - 2/3 i)/a^3
        a = 4
        while a <= 256:
            rounds = plan_iterations(a, PlanMode.EXACT).iterations
            pair = initial_pair(a)
            values = [pair]
            for _ in range(rounds):
                pair = recurrence_step(pair)
                values.append(pair)
            for i in range(2, rounds + 1):
                p = values[i]
                lhs = a * a * p.unmarked - p.marked
                rhs = (
                    a
                    - (2 * i * i + 4 * i + 1) / a
                    + ((2 / 3) * i**4 + (8 / 3) * i**3 + (4 / 3) * i * i - (2 / 3) * i) / a**3
                )
                assert lhs < rhs, (a, i)
            a *= 2


def table1_csv_rows(tmp_path, max_a):
    path = tmp_path / "t.csv"
    assert main(["table1", "--max-a", str(max_a), "--csv", str(path)]) == 0
    return [line.split(",") for line in path.read_text().splitlines()]


class TestPlanCsv:
    """``table1 --csv`` is the plan CSV: one row per side, one column per mode."""

    def test_header_and_rows(self, tmp_path):
        header, *rows = table1_csv_rows(tmp_path, 8)
        assert header == ["a", "i_exact", "i_fit", "i_optimal", "predicted_success", "lower_bound"]
        assert [row[:4] for row in rows] == [["4", "3", "3", "3"], ["8", "6", "6", "6"]]
        assert float(rows[0][4]) == pytest.approx(0.9613, abs=1e-4)

    def test_values_round_trip(self, tmp_path):
        header, *rows = table1_csv_rows(tmp_path, 1024)
        assert [int(row[0]) for row in rows] == [4 << k for k in range(9)]
        for row in rows:
            a = int(row[0])
            for name, cell in zip(header[1:4], row[1:4]):
                assert int(cell) == plan_iterations(a, PlanMode(name[2:])).iterations
            exact = plan_iterations(a, PlanMode.EXACT)
            assert (float(row[4]), float(row[5])) == (success_probability(a, exact.iterations),
                                                      exact.lower_bound)

    def test_success_column_over_the_whole_planning_domain(self, tmp_path):
        _, *rows = table1_csv_rows(tmp_path, MAX_PLAN_SIDE)
        assert [int(row[0]) for row in rows] == [4 << k for k in range(536)]
        for a, i_exact, _, _, success, _ in rows:
            assert success == repr(success_probability(int(a), int(i_exact))), a
