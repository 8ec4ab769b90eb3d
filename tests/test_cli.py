"""Command line surface: subcommands, exit codes, JSON and CSV artifacts."""

import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from qimatch import cli, grover, verify
from qimatch.cli import build_parser, main
from qimatch.images import Image, write_pgm
from qimatch.sample import SAMPLE_BIG_PGM, SAMPLE_SMALL_PGM, sample_pair

from conftest import make_image, planted_instance


@pytest.fixture
def sample_paths(tmp_path):
    big = tmp_path / "big.pgm"
    small = tmp_path / "small.pgm"
    big.write_bytes(SAMPLE_BIG_PGM)
    small.write_bytes(SAMPLE_SMALL_PGM)
    return str(big), str(small)


class TestMatchCommand:
    def test_sample_pair_defaults(self, sample_paths, capsys):
        code = main(["match", "--big", sample_paths[0], "--small", sample_paths[1]])
        out = capsys.readouterr().out
        assert code == 0
        assert "iterations=3" in out
        assert "(x=1, y=1)" in out
        assert "predicted_success=0.961319" in out

    def test_zero_iterations_uniform(self, sample_paths, capsys):
        code = main(
            ["match", "--big", sample_paths[0], "--small", sample_paths[1],
             "--iterations", "0", "--samples", "4000", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "iterations=0" in out
        # uniform state: every index sampled, none dominating
        counts = [int(part.split(":")[1]) for part in
                  out.splitlines()[-1].split(": ", 1)[1].split(", ")]
        assert max(counts) < 4000 * 0.15

    @pytest.mark.parametrize("rounds, bound", [("0", None), ("2", None), ("3", 0.897638), (None, 0.897638)])
    def test_lower_bound_only_for_the_planned_rounds(self, sample_paths, tmp_path, capsys, rounds, bound):
        # The paper's bound holds at the planned count (3 here); an override
        # reports none instead of pairing it with the override's success.
        path = tmp_path / "r.json"
        argv = ["match", "--big", sample_paths[0], "--small", sample_paths[1], "--json", str(path)]
        assert main(argv + ([] if rounds is None else ["--iterations", rounds])) == 0
        text = capsys.readouterr().out
        plan = json.loads(path.read_text())["plan"]
        assert list(plan) == ["mode", "iterations", "predicted_success", "lower_bound"]
        if bound is None:
            assert plan["lower_bound"] is None and "lower_bound=n/a\n" in text
        else:
            assert plan["lower_bound"] == grover.probability_lower_bound(4)
            assert f"lower_bound={bound:.6f}\n" in text
            assert plan["predicted_success"] >= plan["lower_bound"]

    def test_planted_instance_verifies(self, tmp_path, capsys):
        rng = random.Random(606)
        big, small, loc = planted_instance(rng, 3, 1, 3)
        bp, sp = tmp_path / "b.pgm", tmp_path / "s.pgm"
        bp.write_bytes(write_pgm(big))
        sp.write_bytes(write_pgm(small))
        code = main(["match", "--big", str(bp), "--small", str(sp), "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        x, y = loc
        assert f"(x={x}, y={y})" in out
        assert f"[[{x}, {y}]]" in out

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code = main(["match", "--big", str(tmp_path / "nope.pgm"),
                     "--small", str(tmp_path / "nope2.pgm")])
        assert code == 1

    def test_validation_failure_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P2\n3 3\n255\n" + b"0 " * 9)
        small = tmp_path / "s.pgm"
        small.write_bytes(SAMPLE_SMALL_PGM)
        assert main(["match", "--big", str(bad), "--small", str(small)]) == 2

    def test_malformed_pgm_exit_two(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P7\nnot a pgm\n")
        small = tmp_path / "s.pgm"
        small.write_bytes(SAMPLE_SMALL_PGM)
        assert main(["match", "--big", str(bad), "--small", str(small)]) == 2

    @pytest.mark.parametrize("mode", [m.value for m in grover.PlanMode])
    def test_each_mode_runs_its_rule_on_one_mark(self, sample_paths, mode, capsys):
        assert main(["match", "--big", sample_paths[0], "--small", sample_paths[1], "--mode", mode]) == 0
        assert f"\nplan: mode={mode} " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, limit, code",
        [pytest.param("--samples", grover.MAX_SAMPLES, 0,
                      id=f"--samples-{grover.MAX_SAMPLES}"),
         # one mark in 16 at MAX_ROUNDS: the phase is far past its float64 precision
         pytest.param("--iterations", grover.MAX_ROUNDS, 2,
                      id=f"--iterations-{grover.MAX_ROUNDS}")],
    )
    def test_float64_limits(self, sample_paths, tmp_path, flag, limit, code, capsys):
        missing = str(tmp_path / "nope.pgm")
        assert main(["match", "--big", sample_paths[0], "--small", sample_paths[1],
                     flag, str(limit)]) == code
        assert capsys.readouterr().err.count("\n") == (code == 2)
        # refused before either image is read: missing files would exit 1
        assert main(["match", "--big", missing, "--small", missing, flag, str(limit + 1)]) == 2
        assert "error: " + flag in capsys.readouterr().err

    def test_phase_precision_edge(self, sample_paths, tmp_path, capsys):
        # One mark in 16: theta = asin(1/4).  The last round count whose phase
        # (2r+1)*theta keeps a float64 spacing of at most 2^-20 rad exits 0, and
        # the next one exits 2 rather than report a success that is noise.
        top = grover.PHASE_ULP_TOL * 2.0**53  # the first float64 spaced wider than the tolerance
        assert math.ulp(math.nextafter(top, 0)) <= grover.PHASE_ULP_TOL < math.ulp(top)
        theta = math.asin(1 / 4)
        edge = math.floor((top / theta - 1) / 2)
        assert math.ulp((2 * edge + 1) * theta) <= grover.PHASE_ULP_TOL
        assert math.ulp((2 * edge + 3) * theta) > grover.PHASE_ULP_TOL
        argv = ["match", "--big", sample_paths[0], "--small", sample_paths[1], "--iterations"]
        rp = tmp_path / "r.json"
        assert main(argv + [str(edge), "--json", str(rp)]) == 0
        assert capsys.readouterr().err == ""
        plan = json.loads(rp.read_text())["plan"]
        assert plan["iterations"] == edge
        assert plan["predicted_success"] == math.sin((2 * edge + 1) * theta) ** 2
        for rounds in (edge + 1, 10**15, 10**17):
            assert main(argv + [str(rounds)]) == 2
            out, err = capsys.readouterr()
            assert err.startswith("error: phase (2r+1)*theta") and err.count("\n") == 1, err
            assert "lost its precision" in err and out == ""

    def test_phase_overflow_exits_two(self, tmp_path, capsys):
        # 13 of 16 positions marked: theta = asin(sqrt(13/16)) > 1, so at
        # MAX_ROUNDS the phase (2r+1)*theta overflows float64.
        bp, sp = tmp_path / "b.pgm", tmp_path / "s.pgm"
        bp.write_bytes(write_pgm(make_image([7] * 13 + [1, 2, 3], 4, 8)))
        sp.write_bytes(write_pgm(make_image([7], 1, 8)))
        argv = ["match", "--big", str(bp), "--small", str(sp), "--mode", "optimal", "--iterations"]
        assert main(argv + [str(grover.MAX_ROUNDS)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert main(argv + [str(10**9)]) == 0

    def test_all_marked_at_the_round_limit_exits_zero(self, tmp_path, capsys):
        # 16 of 16 positions marked: every round only flips the global sign,
        # so even MAX_ROUNDS leaves the whole probability on the marked set.
        bp, sp, rp = tmp_path / "b.pgm", tmp_path / "s.pgm", tmp_path / "r.json"
        bp.write_bytes(write_pgm(make_image([7] * 16, 4, 8)))
        sp.write_bytes(write_pgm(make_image([7], 1, 8)))
        assert main(["match", "--big", str(bp), "--small", str(sp), "--mode", "optimal",
                     "--iterations", str(grover.MAX_ROUNDS), "--json", str(rp)]) == 0
        assert json.loads(rp.read_text())["plan"]["predicted_success"] == 1.0
        assert capsys.readouterr().err == ""

    def test_json_into_missing_directory_exit_one(self, sample_paths, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        assert main(["match", "--big", sample_paths[0], "--small", sample_paths[1],
                     "--json", str(path)]) == 1
        assert "error: " in capsys.readouterr().err

    def test_no_match_exit_three(self, tmp_path, capsys):
        big = make_image([1, 2, 3, 1], 2, 2)
        small = make_image([0], 1, 2)
        bp, sp = tmp_path / "b.pgm", tmp_path / "s.pgm"
        bp.write_bytes(write_pgm(big))
        sp.write_bytes(write_pgm(small))
        code = main(["match", "--big", str(bp), "--small", str(sp)])
        out = capsys.readouterr().out
        assert code == 3
        assert "no match" in out

    def test_verify_without_a_match_warns_of_nothing(self, tmp_path, capsys):
        bp, sp = tmp_path / "b.pgm", tmp_path / "s.pgm"
        bp.write_bytes(write_pgm(make_image([1, 2, 3, 1], 2, 2)))
        sp.write_bytes(write_pgm(make_image([0], 1, 2)))
        assert main(["match", "--big", str(bp), "--small", str(sp), "--verify"]) == 3
        out, err = capsys.readouterr()
        assert "full-block matches: []" in out
        assert err == ""


def _sparse_pixels():
    # 17 anchors around the anchor scan's 64 Ki-pixel chunk edges, the last at the final pixel
    pixels = np.random.default_rng(2).integers(0, 255, 512 * 512)
    pixels[[0, *(c + e for c in (1 << 16, 2 << 16, 3 << 16) for e in range(-2, 3)), -1]] = 255
    return pixels.reshape(512, 512)


# name: (big pixels, bit depth, small side cut from the corner, anchors, full blocks)
VERIFY_PAIRS = {
    "constant": (np.full((16, 16), 3), 2, 2, 16 * 16, 15 * 15),
    "stripes": (np.tile(np.arange(64) // 2 % 2 * 3, (64, 1)), 2, 4, 64 * 32, 16 * 61),
    "sparse": (_sparse_pixels(), 8, 2, 17, 1),
}


class TestMatchJson:
    def test_schema_and_round_trip(self, sample_paths, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["match", "--big", sample_paths[0], "--small", sample_paths[1],
             "--verify", "--samples", "100", "--seed", "5", "--json", str(report_path)]
        )
        assert code == 0
        raw = report_path.read_text()
        data = json.loads(raw)
        assert list(data) == ["dims", "plan", "result", "verify", "samples"]
        assert data["dims"] == {"n": 2, "m": 1, "q": 8, "a": 4}
        assert list(data["plan"]) == ["mode", "iterations", "predicted_success", "lower_bound"]
        assert data["plan"]["iterations"] == 3
        assert list(data["result"]) == ["top_index", "x", "y", "marked_count"]
        assert data["result"] == {"top_index": 5, "x": 1, "y": 1, "marked_count": 1}
        assert data["verify"] == {"full_block": [[1, 1]], "anchor": [[1, 1]]}
        assert data["samples"]["seed"] == 5
        assert sum(data["samples"]["counts"].values()) == 100
        # fixed key order makes re-serialization byte-identical
        assert json.dumps(data, indent=2) + "\n" == raw

    @pytest.mark.parametrize("name", VERIFY_PAIRS)
    def test_verify_lists_equal_the_exhaustive_scans(self, name, tmp_path):
        pixels, depth, m, anchors, blocks = VERIFY_PAIRS[name]
        big, small = (Image(len(a), len(a), depth, a.ravel()) for a in (pixels, pixels[:m, :m]))
        bp, sp, rp = tmp_path / "b.pgm", tmp_path / "s.pgm", tmp_path / "r.json"
        bp.write_bytes(write_pgm(big))
        sp.write_bytes(write_pgm(small))
        code = main(["match", "--big", str(bp), "--small", str(sp), "--verify", "--json", str(rp)])
        assert code == 0
        data = json.loads(rp.read_text())
        assert data["plan"]["mode"] == "optimal"
        got = data["verify"]
        want = {mode.value: [list(loc) for loc in verify.classical_match(big, small, mode).locations]
                for mode in verify.MatchMode}
        assert got == {"full_block": want["full_block"], "anchor": want["anchor_pixel"]}
        assert (len(got["anchor"]), len(got["full_block"])) == (anchors, blocks)

    def test_timings_key_opt_in(self, sample_paths, tmp_path):
        path = tmp_path / "t.json"
        main(["match", "--big", sample_paths[0], "--small", sample_paths[1],
              "--timings", "--json", str(path)])
        data = json.loads(path.read_text())
        assert list(data) == ["dims", "plan", "result", "samples", "timings_ms"]
        assert set(data["timings_ms"]) >= {"load", "encode", "mark", "plan", "amplify", "sample"}

    def test_fixed_seed_is_byte_deterministic(self, sample_paths, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["match", "--big", sample_paths[0], "--small", sample_paths[1],
                "--samples", "5000", "--seed", "11", "--verify"]
        main(argv + ["--json", str(p1)])
        main(argv + ["--json", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


class TestMatchHotPath:
    def test_vector_engine_not_called(self, sample_paths, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the match command must not run the vector engine")

        monkeypatch.setattr(verify, "run_grover", refuse)
        monkeypatch.setattr(verify, "sample_measurement", refuse)
        code = main(["match", "--big", sample_paths[0], "--small", sample_paths[1],
                     "--samples", "1000", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(x=1, y=1)" in out
        assert "predicted_success=0.961319" in out

    def test_huge_iteration_override_is_prompt(self, sample_paths, tmp_path):
        path = tmp_path / "r.json"
        rounds = 10**9
        t0 = time.perf_counter()
        code = main(["match", "--big", sample_paths[0], "--small", sample_paths[1],
                     "--iterations", str(rounds), "--samples", "100", "--json", str(path)])
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        plan = json.loads(path.read_text())["plan"]
        assert plan["iterations"] == rounds
        want = math.sin((2 * rounds + 1) * math.asin(1 / 4)) ** 2
        assert abs(plan["predicted_success"] - want) < 1e-12


class TestMatchMultiMark:
    def test_plans_for_every_mark_and_reports_a_marked_top(self, tmp_path, capsys):
        # the anchor value 9 sits at four positions of an 8x8 image; only the
        # block at (x=5, y=2) matches the 2x2 small image in full
        pixels = [1] * 64
        for x, y in ((0, 0), (3, 1), (5, 2), (6, 6)):
            pixels[y * 8 + x] = 9
        pixels[2 * 8 + 6], pixels[3 * 8 + 5], pixels[3 * 8 + 6] = 2, 3, 4
        bp, sp, rp = tmp_path / "b.pgm", tmp_path / "s.pgm", tmp_path / "r.json"
        bp.write_bytes(write_pgm(make_image(pixels, 8, 4)))
        sp.write_bytes(write_pgm(make_image([9, 2, 3, 4], 2, 4)))
        code = main(["match", "--big", str(bp), "--small", str(sp), "--verify",
                     "--samples", "1000", "--json", str(rp)])
        assert code == 0
        data = json.loads(rp.read_text())
        assert data["plan"]["mode"] == "optimal"
        marked = [0, 11, 21, 54]
        theta = math.asin(math.sqrt(4 / 64))
        rounds = math.floor(math.pi / (4 * theta))
        assert data["result"]["marked_count"] == 4
        assert data["plan"]["iterations"] == rounds == 3
        assert abs(data["plan"]["predicted_success"] - math.sin((2 * rounds + 1) * theta) ** 2) < 1e-12
        assert data["result"]["top_index"] == marked[0]
        hits = sum(data["samples"]["counts"].get(str(k), 0) for k in marked)
        assert hits > 900
        assert data["verify"]["full_block"] == [[5, 2]]
        # the top, a decoy anchor, is not the full-block match
        assert capsys.readouterr().err == "verification: top position is NOT a full-block match\n"

    @pytest.mark.filterwarnings("error")
    def test_many_anchors_plan_without_a_warning(self, tmp_path, capsys):
        pixels = np.random.default_rng(1).integers(0, 16, (64, 64))
        bp, sp, rp = tmp_path / "b.pgm", tmp_path / "s.pgm", tmp_path / "r.json"
        bp.write_bytes(write_pgm(Image(64, 64, 4, pixels.ravel())))
        sp.write_bytes(write_pgm(Image(4, 4, 4, pixels[:4, :4].ravel())))
        assert main(["match", "--big", str(bp), "--small", str(sp), "--json", str(rp)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(rp.read_text())["result"]["marked_count"] > 16


class TestTable1Command:
    def test_small_table(self, capsys):
        code = main(["table1", "--max-a", "16"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["a", "i_exact", "i_fit", "i_optimal",
                                    "predicted_success", "lower_bound"]
        assert lines[1].split()[:4] == ["4", "3", "3", "3"]
        assert lines[3].split()[:4] == ["16", "12", "12", "12"]

    def test_one_full_plan_per_row(self, capsys):
        # the success and bound columns are the lead mode's, here fit
        assert main(["table1", "--max-a", "64", "--modes", "fit,exact,optimal"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == [4, 8, 16, 32, 64]
        plan = grover.plan_iterations
        for row in rows:
            a = int(row[0])
            want = [plan(a, m).iterations for m in (grover.PlanMode.FIT, grover.PlanMode.EXACT,
                                                    grover.PlanMode.OPTIMAL)]
            assert [int(v) for v in row[1:4]] == want
            assert row[4:] == [repr(grover.success_probability(a, want[0])),
                               repr(plan(a, grover.PlanMode.FIT).lower_bound)]

    def test_csv_idempotent(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table1", "--max-a", "64", "--csv", str(p1)])
        main(["table1", "--max-a", "64", "--csv", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()
        rows = p1.read_text().strip().splitlines()
        assert rows[0] == "a,i_exact,i_fit,i_optimal,predicted_success,lower_bound"
        assert len(rows) == 1 + 5  # sides 4..64

    def test_mode_subset(self, capsys):
        code = main(["table1", "--max-a", "8", "--modes", "exact"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().splitlines()[0].split() == ["a", "i_exact",
                                                       "predicted_success", "lower_bound"]

    def test_bound_column_at_side_four(self, tmp_path):
        path = tmp_path / "t.csv"
        main(["table1", "--max-a", "4", "--csv", str(path)])
        row = path.read_text().strip().splitlines()[1].split(",")
        assert abs(float(row[-1]) - 0.8976) < 5e-4

    def test_csv_into_missing_directory_exit_one(self, tmp_path, capsys):
        assert main(["table1", "--max-a", "8", "--csv", str(tmp_path / "missing" / "t.csv")]) == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["3"])
    def test_invalid_max_a_exit_two(self, bad, capsys):
        assert main(["table1", "--max-a", bad]) == 2

    def test_invalid_mode_exit_two(self):
        assert main(["table1", "--max-a", "8", "--modes", "bogus"]) == 2


class TestExampleCommand:
    def test_transcript_and_exit(self, capsys):
        code = main(["example"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "demonstration pair: big 4x4, small 2x2, bit depth 8",
            "marked positions: [5]",
            "planned rounds (exact): 3",
            "round 1: unmarked 3/16, marked 11/16",
            "round 2: unmarked 5/64, marked 61/64",
            "round 3: unmarked -13/256, marked 251/256",
            "one more round would give marked 781/1024 < 251/256",
            "success probability (251/256)^2 = 0.9613",
            "other-pixel probability (-13/256)^2 = 0.002579",
            "guaranteed lower bound at side 4: 0.8976",
            "bound check: 0.9613 >= 0.8976",
            "target location: index 5 -> (x=1, y=1)",
        ]


class TestAnalyzeCommand:
    def test_small_sweep_flags_peak(self, capsys):
        code = main(["analyze", "--a", "4", "--sweep-i", "4"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        row0 = lines[1].split()
        assert row0[0] == "0" and float(row0[1]) == 0.25 and float(row0[2]) == 0.25
        peak_rows = [ln for ln in lines if ln.strip().endswith("peak,plan")]
        assert len(peak_rows) == 1 and peak_rows[0].split()[0] == "3"
        assert "first local maximum of marked^2: i=3" in out
        assert "planned rounds (exact): i=3" in out

    def test_larger_side_reports_both(self, capsys):
        code = main(["analyze", "--a", "128", "--sweep-i", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "first local maximum of marked^2: i=100" in out
        assert "planned rounds (exact): i=101" in out

    @pytest.mark.parametrize("a", [2, 4, 64])
    def test_default_sweep_is_twice_the_side(self, a, capsys):
        assert main(["analyze", "--a", str(a)]) == 0
        header, *rows, peak, plan = capsys.readouterr().out.splitlines()
        assert [int(row.split()[0]) for row in rows] == list(range(2 * a + 1))

    def test_zero_sweep_prints_the_start_row_only(self, capsys):
        assert main(["analyze", "--a", "4", "--sweep-i", "0"]) == 0
        header, *rows, peak, plan = capsys.readouterr().out.splitlines()
        assert [row.split()[:4] for row in rows] == [["0", "0.2500000000000000", "0.2500000000000000",
                                                     "0.0625000000000000"]]

    def test_marked_squared_column(self, capsys):
        assert main(["analyze", "--a", "16", "--sweep-i", "40"]) == 0
        header, *rows, peak, plan = capsys.readouterr().out.splitlines()
        for row in rows:
            marked, squared = map(float, row.split()[2:4])
            assert abs(squared - marked * marked) < 1e-15, row

    def test_invalid_side_exit_two(self):
        assert main(["analyze", "--a", "5"]) == 2

    @pytest.mark.parametrize("sweep", ["-1"])
    def test_negative_sweep_exit_two(self, sweep, capsys):
        assert main(["analyze", "--a", "4", "--sweep-i", sweep]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("a", [2048, 1 << 40])
    def test_default_sweep_stops_at_the_cap(self, a, capsys):
        # 2a rounds up to side 2048, then cli.SWEEP_CAP = 4096 at every larger side
        assert main(["analyze", "--a", str(a)]) == 0
        header, *rows, peak, plan = capsys.readouterr().out.splitlines()
        assert header.split()[:4] == ["i", "unmarked", "marked", "marked^2"]
        assert [int(row.split()[0]) for row in rows] == list(range(4097))
        exact = grover.plan_iterations(a, grover.PlanMode.EXACT).iterations
        assert peak.startswith("first local maximum of marked^2: i=")
        assert plan == f"planned rounds (exact): i={exact}"

    def test_long_sweep_runs_in_bounded_memory(self):
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["analyze", "--a", "4", "--sweep-i", "100000"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 1 << 20


class TestLargeSides:
    def test_table1_past_the_old_overflow(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        assert main(["table1", "--max-a", str(1 << 342), "--csv", str(path)]) == 0
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 1 + 341  # sides 4..2**342
        a, exact, _, _, predicted, bound = rows[-1].split(",")
        assert int(a) == 1 << 342
        turn = float(2 * int(exact) + 1) / float(1 << 342)
        assert abs(float(predicted) - math.sin(turn) ** 2) < 1e-12
        assert float(bound) == 0.9194**2

    @pytest.mark.parametrize("k", [538])
    def test_table1_past_the_planner_limit_exit_two(self, k, capsys):
        assert main(["table1", "--max-a", str(1 << k)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--max-a 2^{k} is past the float64 limit 2^537" in err

    @pytest.mark.parametrize("k", [342, 511])
    def test_analyze_up_to_the_recurrence_limit(self, k, capsys):
        a = 1 << k
        assert main(["analyze", "--a", str(a), "--sweep-i", "2"]) == 0
        out = capsys.readouterr().out
        exact = grover.plan_iterations(a, grover.PlanMode.EXACT).iterations
        assert f"planned rounds (exact): i={exact}" in out

    @pytest.mark.parametrize("k", [512])
    def test_analyze_past_the_recurrence_limit_exit_two(self, k, capsys):
        assert main(["analyze", "--a", str(1 << k), "--sweep-i", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--a 2^{k} is past the float64 limit 2^511" in err


def _error_paths(tmp_path):
    """The files the error-exit and entry-point cases name, written into ``tmp_path``."""
    files = {
        "big": SAMPLE_BIG_PGM,
        "small": SAMPLE_SMALL_PGM,
        "big3": b"P2\n3 3\n255\n" + b"0 " * 9,
        "garbage": b"P7\nnot a pgm\n",
        "big13": write_pgm(make_image([7] * 13 + [1, 2, 3], 4, 8)),
        "small7": write_pgm(make_image([7], 1, 8)),
        "small0": b"P2\n1 1\n255\n0\n",
    }
    paths = {"dir": str(tmp_path), "nope": str(tmp_path / "nope.pgm"),
             "missing": str(tmp_path / "missing" / "out")}
    for name, data in files.items():
        (tmp_path / f"{name}.pgm").write_bytes(data)
        paths[name] = str(tmp_path / f"{name}.pgm")
    return paths


def _exit(name, template, code, message, quiet=True):
    """An error case: argv template, exit code, message start, whether stdout stays empty."""
    return pytest.param(template, code, message, quiet, id=name)


ERROR_EXITS = [
    # the three flag checks come before either image is read: missing files would exit 1
    _exit("samples", "match --big {nope} --small {nope} --samples 0",
          2, "--samples must be in [1, 2^63 - 1]"),
    _exit("seed", "match --big {nope} --small {nope} --seed -1", 2, "--seed must be non-negative"),
    _exit("iterations", "match --big {nope} --small {nope} --iterations -2",
          2, "--iterations must be in [0, 2^1023 - 2^969 - 1]"),
    _exit("samples with files", "match --big {big} --small {small} --samples 0",
          2, "--samples must be in [1, 2^63 - 1]"),
    _exit("seed with files", "match --big {big} --small {small} --seed -1",
          2, "--seed must be non-negative"),
    _exit("iterations with files", "match --big {big} --small {small} --iterations -2",
          2, "--iterations must be in [0, 2^1023 - 2^969 - 1]"),
    _exit("missing file", "match --big {nope} --small {small}", 1, "[Errno 2] No such file"),
    _exit("directory as big", "match --big {dir} --small {small}", 1, "[Errno 21] Is a directory"),
    _exit("malformed pgm", "match --big {garbage} --small {small}", 2, "unsupported magic b'P7'"),
    _exit("bad pair", "match --big {big3} --small {small}", 2, "big image side 3 is not a power"),
    _exit("phase overflow",
          f"match --big {{big13}} --small {{small7}} --mode optimal --iterations {grover.MAX_ROUNDS}",
          2, "phase (2r+1)*theta overflows float64 at theta = 1.122964 (13 of 16"),
    _exit("json into missing dir", "match --big {big} --small {small} --json {missing}",
          1, "[Errno 2] No such file", quiet=False),
    _exit("csv into missing dir", "table1 --max-a 8 --csv {missing}",
          1, "[Errno 2] No such file", quiet=False),
    _exit("bad modes", "table1 --max-a 8 --modes bogus", 2, "unknown mode 'bogus'"),
    _exit("repeated mode", "table1 --max-a 8 --modes exact,fit,exact", 2, "repeated mode 'exact'"),
    _exit("bad max-a", "table1 --max-a 3", 2, "--max-a must be a power of two >= 4, got 3"),
    *(_exit(f"max-a {bad}", f"table1 --max-a {bad}",
            2, f"--max-a must be a power of two >= 4, got {bad}") for bad in (2, 0, -8)),
    _exit("max-a past 2^537", f"table1 --max-a {1 << 538}",
          2, "--max-a 2^538 is past the float64 limit 2^537"),
    _exit("max-a 2^1024", f"table1 --max-a {1 << 1024}",
          2, "--max-a 2^1024 is past the float64 limit 2^537"),
    _exit("bad a", "analyze --a 5", 2, "--a must be a power of two >= 2, got 5"),
    _exit("a past 2^511", f"analyze --a {1 << 512}",
          2, "--a 2^512 is past the float64 limit 2^511"),
    *(_exit(f"a 2^{k}", f"analyze --a {1 << k} --sweep-i 2",
            2, f"--a 2^{k} is past the float64 limit 2^511") for k in (538, 1024)),
    _exit("negative sweep-i", "analyze --a 4 --sweep-i -1",
          2, "--sweep-i must be non-negative, got -1"),
    _exit("sweep-i -5", "analyze --a 4 --sweep-i -5", 2, "--sweep-i must be non-negative, got -5"),
]


@pytest.mark.parametrize("template, code, message, quiet", ERROR_EXITS)
def test_error_exits(template, code, message, quiet, tmp_path, capsys):
    """Each error leaves ``main`` as its exit code and one ``error:`` line, not an exception."""
    paths = _error_paths(tmp_path)
    assert main([word.format(**paths) for word in template.split()]) == code
    out, err = capsys.readouterr()
    assert err.startswith("error: " + message) and err.count("\n") == 1, err
    assert (out == "") == quiet


def _python(*args):
    """A fresh interpreter run on this process's import path, its output captured as text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("template, code", [
    ("match --big {big} --small {small} --verify --json {dir}/r.json", 0),
    ("example", 0),
    ("match --big {nope} --small {small}", 1),
    (f"match --big {{big}} --small {{small}} --iterations {10**15}", 2),
    ("match --big {big} --small {small0}", 3),
], ids=["match", "example", "missing big", "phase precision", "no match"])
def test_module_entry_point(template, code, tmp_path, capsys):
    """``python -m qimatch`` exits and prints what ``main`` returns and prints in process."""
    argv = [word.format(**_error_paths(tmp_path)) for word in template.split()]
    run = _python("-m", "qimatch", *argv)
    assert (run.returncode, run.stdout, run.stderr) == (main(argv), *capsys.readouterr())
    assert run.returncode == code
    if code in (1, 2):
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
    else:
        assert run.stderr == ""


def _run(argv, parser=None):
    """Exit code and stdout of one command, through ``main`` or through ``parser``."""
    out = io.StringIO()
    with redirect_stdout(out):
        if parser is None:
            code = main(argv)
        else:
            args = parser.parse_args(argv)
            code = args.func(args)
    return code, out.getvalue()


def _untimed(text):
    """Stdout with the wall-clock values of a timings line reduced to their keys."""
    lines = []
    for line in text.splitlines():
        if line.startswith("timings_ms: "):
            line = ", ".join(kv.split("=")[0] for kv in line.split(", "))
        lines.append(line)
    return lines


def _untimed_report(path):
    data = json.loads(path.read_text())
    if "timings_ms" in data:
        data["timings_ms"] = list(data["timings_ms"])
    return data


class TestParserReuse:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_not_built_at_import(self):
        probe = "import qimatch.cli as c; print(c.build_parser.cache_info().currsize)"
        assert _python("-c", probe).stdout == "0\n"

    def test_calls_in_one_process_match_a_fresh_parser(self, sample_paths, tmp_path):
        report = tmp_path / "r.json"
        table = tmp_path / "t.csv"
        match = ["match", "--big", sample_paths[0], "--small", sample_paths[1],
                 "--samples", "50", "--seed", "9"]
        commands = [
            (match + ["--verify", "--timings", "--json", str(report)], report),
            (match, report),
            (["table1", "--modes", "fit", "--csv", str(table)], table),
            (["table1"], table),
        ]
        results = []
        for argv, artifact in commands:
            outputs = []
            for parser in (None, build_parser.__wrapped__()):
                artifact.unlink(missing_ok=True)
                code, out = _run(argv, parser)
                written = artifact.exists() and (
                    _untimed_report(artifact) if artifact == report else artifact.read_bytes())
                outputs.append((code, _untimed(out), written))
            assert outputs[0] == outputs[1], argv
            results.append(outputs[0])

        assert [code for code, _, _ in results] == [0, 0, 0, 0]
        verified, plain, fit, default = results
        assert "timings_ms" in verified[2] and verified[1][-1].startswith("timings_ms: load")
        # Flags of an earlier call do not carry over to a later one.
        assert plain[2] is False and not any(
            "timings_ms" in line or line.startswith(("full-block matches:", "anchor matches:"))
            for line in plain[1])
        assert fit[1][0].split() == ["a", "i_fit", "predicted_success", "lower_bound"]
        assert default[2] is False
        assert default[1][0].split()[1:4] == ["i_exact", "i_fit", "i_optimal"]
        assert default[1][-1].split()[0] == "65536"

    def test_argparse_error_leaves_the_next_call_intact(self, sample_paths, capsys):
        argv = ["match", "--big", sample_paths[0], "--small", sample_paths[1], "--verify"]
        with pytest.raises(SystemExit) as exit_info:
            main(["match", "--small", sample_paths[1]])
        assert exit_info.value.code == 2
        assert "--big" in capsys.readouterr().err
        assert _run(argv) == _run(argv, build_parser.__wrapped__())
        assert _run(argv)[0] == 0
