"""Command line surface: subcommands, exit codes, JSON and CSV artifacts."""

import argparse
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from qimatch import cli, grover, pipeline, verify
from qimatch.cli import build_parser, main
from qimatch.images import Image, ValidationError, as_side, write_pgm
from qimatch.sample import SAMPLE_BIG_PGM, SAMPLE_SMALL_PGM, sample_pair

from conftest import make_image, planted_instance


@pytest.fixture
def sample_paths(tmp_path):
    big = tmp_path / "big.pgm"
    small = tmp_path / "small.pgm"
    big.write_bytes(SAMPLE_BIG_PGM)
    small.write_bytes(SAMPLE_SMALL_PGM)
    return str(big), str(small)


@pytest.fixture
def half_marked_paths(tmp_path):
    """A 4x4/1x1 pair with 8 of 16 positions marked: the plan applies 0 rounds, so draws are uniform."""
    big, small = tmp_path / "half_big.pgm", tmp_path / "half_small.pgm"
    big.write_bytes(write_pgm(make_image([3, 1, 3, 2] * 4, 4, 8)))
    small.write_bytes(write_pgm(make_image([3], 1, 8)))
    return str(big), str(small)


class TestMatchCommand:
    def test_sample_pair_defaults(self, sample_paths, capsys):
        code = main(["match", "--big", sample_paths[0], "--small", sample_paths[1]])
        out = capsys.readouterr().out
        assert code == 0
        assert "iterations=3" in out
        assert "(x=1, y=1)" in out
        assert "predicted_success=0.961319 lower_bound=0.897638\n" in out

    @pytest.mark.parametrize("rounds, bound", [(None, 0.897638)])
    def test_lower_bound_only_for_the_planned_rounds(self, sample_paths, tmp_path, capsys, rounds, bound):
        # No round count can be given (rounds is None): the run applies the
        # planned count (3 here) and reports the paper's bound for it.
        path = tmp_path / "r.json"
        argv = ["match", "--big", sample_paths[0], "--small", sample_paths[1], "--json", str(path)]
        assert rounds is None and main(argv) == 0
        text = capsys.readouterr().out
        plan = json.loads(path.read_text())["plan"]
        assert list(plan) == ["mode", "iterations", "predicted_success", "lower_bound"]
        assert plan["iterations"] == 3
        assert plan["lower_bound"] == grover.probability_lower_bound(4)
        assert f"lower_bound={bound:.6f}\n" in text
        assert plan["predicted_success"] >= plan["lower_bound"]

    def test_round_count_is_not_an_option(self, sample_paths, capsys):
        # a run always applies the rounds planned for the marked count it found
        with pytest.raises(SystemExit) as exit_info:
            main(["match", "--big", sample_paths[0], "--small", sample_paths[1], "--iterations", "6"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: unrecognized arguments: --iterations 6\n")

    def test_default_draw_is_one_sample_with_seed_zero(self, half_marked_paths, tmp_path, capsys):
        # with uniform draws the seed shows in the sampled index
        runs = {}
        for name, flags in (("default", []), ("explicit", ["--samples", "1", "--seed", "0"]),
                            ("seed 1", ["--seed", "1"])):
            report = tmp_path / f"{name}.json"
            argv = ["match", "--big", half_marked_paths[0], "--small", half_marked_paths[1]]
            assert main(argv + ["--json", str(report), *flags]) == 0
            runs[name] = (capsys.readouterr().out, report.read_bytes())
        assert runs["default"] == runs["explicit"] != runs["seed 1"]
        assert runs["default"][0].endswith("\nsampled 1 draw(s) with seed 0: 8:1\n")

    def test_summary_names_the_four_most_drawn_indices(self, half_marked_paths, tmp_path, capsys):
        rp = tmp_path / "r.json"
        assert main(["match", "--big", half_marked_paths[0], "--small", half_marked_paths[1],
                     "--samples", "400", "--seed", "2", "--json", str(rp)]) == 0
        counts = {int(k): c for k, c in json.loads(rp.read_text())["samples"]["counts"].items()}
        assert len(counts) == 16
        head, listed = capsys.readouterr().out.splitlines()[-1].split(": ")
        shown = [tuple(map(int, kv.split(":"))) for kv in listed.split(", ")]
        assert head == "sampled 400 draw(s) with seed 2" and len(shown) == 4
        assert all(counts[k] == c for k, c in shown)
        assert [c for _, c in shown] == sorted((c for _, c in shown), reverse=True)
        assert shown[-1][1] >= max(c for k, c in counts.items() if k not in dict(shown))

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

    @pytest.mark.parametrize("mode", [m.value for m in grover.PlanMode])
    def test_each_mode_runs_its_rule_on_one_mark(self, sample_paths, mode, capsys):
        assert main(["match", "--big", sample_paths[0], "--small", sample_paths[1], "--mode", mode]) == 0
        assert f"\nplan: mode={mode} " in capsys.readouterr().out

    def test_sample_count_limit(self, sample_paths, tmp_path, capsys):
        limit = grover.MAX_SAMPLES
        missing = str(tmp_path / "nope.pgm")
        assert main(["match", "--big", sample_paths[0], "--small", sample_paths[1],
                     "--samples", str(limit)]) == 0
        assert capsys.readouterr().err == ""
        # refused before either image is read: missing files would exit 1
        assert main(["match", "--big", missing, "--small", missing, "--samples", str(limit + 1)]) == 2
        assert capsys.readouterr().err == f"error: samples must be an integer in [1, 2^63 - 1], got {limit + 1}\n"

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
        # the paper's bound at the planned count, under the success it predicts
        assert data["plan"]["lower_bound"] == grover.probability_lower_bound(4)
        assert data["plan"]["lower_bound"] <= data["plan"]["predicted_success"]
        assert list(data["result"]) == ["top_index", "x", "y", "marked_count"]
        assert data["result"] == {"top_index": 5, "x": 1, "y": 1, "marked_count": 1}
        assert data["verify"] == {"full_block": [[1, 1]], "anchor": [[1, 1]]}
        assert data["samples"]["seed"] == 5
        assert sum(data["samples"]["counts"].values()) == 100
        # fixed key order makes re-serialization byte-identical
        assert json.dumps(data) + "\n" == raw

    def test_verify_report_is_one_line_with_counts_in_index_order(self, half_marked_paths, tmp_path):
        rp = tmp_path / "r.json"
        argv = ["match", "--big", half_marked_paths[0], "--small", half_marked_paths[1], "--verify",
                "--samples", "400", "--seed", "2", "--json", str(rp)]
        assert main(argv) == 0
        raw = rp.read_text()
        assert raw.count("\n") == 1 and raw.endswith("}\n")
        report = json.loads(raw)
        # 8 of 16 positions marked: the plan applies 0 rounds
        assert (report["result"]["marked_count"], report["plan"]["iterations"]) == (8, 0)
        keys = list(report["samples"]["counts"])
        # 400 uniform draws over 16 positions reach every one, so the keys
        # run past one digit and string order would differ from index order.
        assert keys == [str(k) for k in range(16)]

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

    def test_verify_finds_full_blocks_without_the_marked_set(self, sample_paths, tmp_path, monkeypatch):
        # a run whose final state marks nothing: the anchor list is that
        # marked set, but the full-block list comes from a search of its own
        real = pipeline.match

        def unmarked(big, small, **flags):
            outcome = real(big, small, **flags)
            final = grover.amplify(outcome.dims.n, np.array([], dtype=np.int64), outcome.plan.iterations)
            return dataclasses.replace(outcome, final=final)

        monkeypatch.setattr(cli.pipeline, "match", unmarked)
        rp = tmp_path / "r.json"
        argv = ["match", "--big", sample_paths[0], "--small", sample_paths[1], "--verify", "--json", str(rp)]
        assert main(argv) == 3
        got = json.loads(rp.read_text())["verify"]
        assert got["anchor"] == [] and got["full_block"] == [[1, 1]]

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
        # the rules in a fixed order; the success and bound columns are the exact plan's
        assert main(["table1", "--max-a", "64"]) == 0
        header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert header == ["a", "i_exact", "i_fit", "i_optimal", "predicted_success", "lower_bound"]
        assert [int(row[0]) for row in rows] == [4, 8, 16, 32, 64]
        plan = grover.plan_iterations
        for row in rows:
            a = int(row[0])
            want = [plan(a, m).iterations for m in (grover.PlanMode.EXACT, grover.PlanMode.FIT,
                                                    grover.PlanMode.OPTIMAL)]
            assert [int(v) for v in row[1:4]] == want
            assert row[4:] == [repr(grover.success_probability(a, want[0])),
                               repr(plan(a, grover.PlanMode.EXACT).lower_bound)]

    def test_csv_idempotent(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table1", "--max-a", "64", "--csv", str(p1)])
        main(["table1", "--max-a", "64", "--csv", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()
        rows = p1.read_text().strip().splitlines()
        assert rows[0] == "a,i_exact,i_fit,i_optimal,predicted_success,lower_bound"
        assert len(rows) == 1 + 5  # sides 4..64

    def test_bound_column_at_side_four(self, tmp_path):
        path = tmp_path / "t.csv"
        main(["table1", "--max-a", "4", "--csv", str(path)])
        row = path.read_text().strip().splitlines()[1].split(",")
        assert abs(float(row[-1]) - 0.8976) < 5e-4

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
        code = main(["analyze", "--a", "4"])
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
        code = main(["analyze", "--a", "128"])
        out = capsys.readouterr().out
        assert code == 0
        assert "first local maximum of marked^2: i=100" in out
        assert "planned rounds (exact): i=101" in out

    @pytest.mark.parametrize("a", [2, 4, 64])
    def test_default_sweep_is_twice_the_side(self, a, capsys):
        assert main(["analyze", "--a", str(a)]) == 0
        header, *rows, peak, plan = capsys.readouterr().out.splitlines()
        assert [int(row.split()[0]) for row in rows] == list(range(2 * a + 1))

    def test_marked_squared_column(self, capsys):
        assert main(["analyze", "--a", "16"]) == 0
        header, *rows, peak, plan = capsys.readouterr().out.splitlines()
        for row in rows:
            marked, squared = map(float, row.split()[2:4])
            assert abs(squared - marked * marked) < 1e-15, row

    @pytest.mark.parametrize("a", [2048, 1 << 40])
    def test_default_sweep_stops_at_the_cap(self, a, capsys):
        # 2a rounds up to side 2048, then cli.SWEEP_CAP = 4096 at every larger side.
        assert main(["analyze", "--a", str(a)]) == 0
        header, *rows, peak, plan = capsys.readouterr().out.splitlines()
        assert header.split()[:4] == ["i", "unmarked", "marked", "marked^2"]
        assert [int(row.split()[0]) for row in rows] == list(range(4097))
        exact = grover.plan_iterations(a, grover.PlanMode.EXACT).iterations
        assert peak.startswith("first local maximum of marked^2: i=")
        assert plan == f"planned rounds (exact): i={exact}"

    def test_long_sweep_runs_in_bounded_memory(self):
        # Each row is printed as it is made: the capped sweep's 4097 rows (about
        # 330 kB) go to a file, and the run never holds more than a few of them.
        build_parser()  # built once per process, so not counted against the sweep
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["analyze", "--a", str(1 << 40)])
                held = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert held < 64 << 10


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

    @pytest.mark.parametrize("k", [342, 511])
    def test_analyze_up_to_the_recurrence_limit(self, k, capsys):
        a = 1 << k
        assert main(["analyze", "--a", str(a)]) == 0
        out = capsys.readouterr().out
        exact = grover.plan_iterations(a, grover.PlanMode.EXACT).iterations
        assert f"planned rounds (exact): i={exact}" in out


def _error_paths(tmp_path):
    """The files the error-exit and entry-point cases name, written into ``tmp_path``."""
    files = {
        "big": SAMPLE_BIG_PGM,
        "small": SAMPLE_SMALL_PGM,
        "big3": b"P2\n3 3\n255\n" + b"0 " * 9,
        "garbage": b"P7\nnot a pgm\n",
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
    # the two flag checks come before either image is read: missing files would exit 1
    _exit("samples", "match --big {nope} --small {nope} --samples 0",
          2, "samples must be an integer in [1, 2^63 - 1], got 0"),
    _exit("seed", "match --big {nope} --small {nope} --seed -1",
          2, "seed must be an integer in [0, inf], got -1"),
    _exit("samples with files", "match --big {big} --small {small} --samples 0",
          2, "samples must be an integer in [1, 2^63 - 1], got 0"),
    _exit("seed with files", "match --big {big} --small {small} --seed -1",
          2, "seed must be an integer in [0, inf], got -1"),
    _exit("missing file", "match --big {nope} --small {nope}", 1, "[Errno 2] No such file"),
    _exit("directory as big", "match --big {dir} --small {small}", 1, "[Errno 21] Is a directory"),
    _exit("malformed pgm", "match --big {garbage} --small {small}", 2, "unsupported magic b'P7'"),
    _exit("bad pair", "match --big {big3} --small {small}",
          2, "big image side must be a power of two >= 1, got 3"),
    _exit("json into missing dir", "match --big {big} --small {small} --json {missing}",
          1, "[Errno 2] No such file", quiet=False),
    _exit("csv into missing dir", "table1 --max-a 8 --csv {missing}",
          1, "[Errno 2] No such file", quiet=False),
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
    *(_exit(f"a 2^{k}", f"analyze --a {1 << k}",
            2, f"--a 2^{k} is past the float64 limit 2^511") for k in (538, 1024)),
]


@pytest.mark.parametrize("template, code, message, quiet", ERROR_EXITS)
def test_error_exits(template, code, message, quiet, tmp_path, capsys):
    """Each error leaves ``main`` as its exit code and one ``error:`` line, not an exception."""
    paths = _error_paths(tmp_path)
    assert main([word.format(**paths) for word in template.split()]) == code
    out, err = capsys.readouterr()
    assert err.startswith("error: " + message) and err.count("\n") == 1, err
    assert (out == "") == quiet


@pytest.mark.parametrize("argv", [["table1", "--modes", "exact"],
                                  ["analyze", "--a", "4", "--sweep-i", "4"]], ids=["modes", "sweep-i"])
def test_no_flag_narrows_a_table_or_a_sweep(argv, capsys):
    # table1 always has its three rules and analyze always its capped range
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


LIBRARY_REFUSALS = [
    ("match --big {nope} --small {nope} --samples 0", lambda: pipeline.match(*sample_pair(), samples=0)),
    ("match --big {nope} --small {nope} --seed -1", lambda: pipeline.match(*sample_pair(), seed=-1)),
    ("table1 --max-a 3", lambda: as_side(3, "--max-a", 4, grover.MAX_PLAN_SIDE)),
    ("analyze --a 5", lambda: as_side(5, "--a", 2, grover.MAX_RECURRENCE_SIDE)),
]


@pytest.mark.parametrize("template, refuse", LIBRARY_REFUSALS, ids=[t for t, _ in LIBRARY_REFUSALS])
def test_one_message_per_rule(template, refuse, tmp_path, capsys):
    """A bad argument is refused with the message the library raises for the same value."""
    with pytest.raises(ValidationError) as refused:
        refuse()
    assert main([word.format(**_error_paths(tmp_path)) for word in template.split()]) == 2
    assert capsys.readouterr() == ("", f"error: {refused.value}\n")


def _python(*args):
    """A fresh interpreter run on this process's import path, its output captured as text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("template, code", [
    ("match --big {big} --small {small} --verify --json {dir}/r.json", 0),
    ("example", 0),
    ("match --big {nope} --small {small}", 1),
    ("match --big {big3} --small {small}", 2),
    ("match --big {big} --small {small0}", 3),
], ids=["match", "example", "missing big", "bad pair", "no match"])
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
            (["table1", "--max-a", "64", "--csv", str(table)], table),
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
        verified, plain, table64, default = results
        assert "timings_ms" in verified[2] and verified[1][-1].startswith("timings_ms: load")
        # Flags of an earlier call do not carry over to a later one.
        assert plain[2] is False and not any(
            "timings_ms" in line or line.startswith(("full-block matches:", "anchor matches:"))
            for line in plain[1])
        assert table64[1][-1].split()[0] == "64" and table64[2].startswith(b"a,i_exact,")
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


def _outcome(call, capsys):
    """Exit code, stdout and stderr of ``call()``; an argparse exit gives its code."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def _two_passes(argv):
    """One command run through a fresh top-level parser, which parses ``argv`` twice."""
    args = build_parser.__wrapped__().parse_args(argv)
    return args.func(args)


MATCH = "match --big {big} --small {small}"

# Usage, help and argparse errors at both levels, abbreviations and ``--``.
DISPATCH = [
    "", "-h", "--help", "nope", "mat", "-x", "match", "match -h", f"{MATCH} --bogus",
    f"{MATCH} x --y=2", f"-- {MATCH}", "match --bi {big} --small {small}",
    f"{MATCH} --mode bad", f"{MATCH} --samples x", f"{MATCH} --samples", f"{MATCH} -- x",
    "--mode bad", "--samples x", "table1 --max-a 8 extra", "table1 -- x", "table1 -h",
    "example x", "analyze", "analyze --a 4 -- x",
]


class TestOneParsePass:
    @pytest.mark.parametrize("template", DISPATCH)
    def test_same_outcome_as_two_passes(self, template, sample_paths, capsys):
        big, small = sample_paths
        argv = template.format(big=big, small=small).split()
        assert _outcome(lambda: main(argv), capsys) == _outcome(lambda: _two_passes(argv), capsys)

    @pytest.mark.parametrize("template", [
        f"{MATCH} --samples 30 --seed 4", "table1 --max-a 8", "example", "analyze --a 4",
    ])
    def test_a_command_is_parsed_once(self, template, sample_paths, monkeypatch, capsys):
        parsed = []
        parse = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            parsed.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        argv = template.format(big=sample_paths[0], small=sample_paths[1]).split()
        assert main(argv) == 0
        assert parsed == [f"qimatch {argv[0]}"]

    def test_no_argv_reads_sys_argv(self, sample_paths, monkeypatch, capsys):
        argv = MATCH.format(big=sample_paths[0], small=sample_paths[1]).split() + ["--seed", "6"]
        want = _outcome(lambda: main(argv), capsys)
        monkeypatch.setattr(sys, "argv", ["qimatch", *argv])
        assert _outcome(main, capsys) == want
        assert want[0] == 0
