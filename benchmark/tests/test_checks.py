"""The benchmark's checks accept qimatch's real outputs and reject wrong ones.

Run from the root of the repository:

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from instances import (  # noqa: E402
    InstanceError,
    check_instance,
    full_block_positions,
    make_instance,
    write_pair,
)
from qimatch import cli  # noqa: E402

SAMPLES = 1000


def run_cli(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def match_report(tmp_path: Path, inst, extra: tuple[str, ...] = ()) -> tuple[dict, int]:
    big, small, out = tmp_path / "big.pgm", tmp_path / "small.pgm", tmp_path / "out.json"
    write_pair(inst, big, small)
    code = run_cli(["match", "--big", str(big), "--small", str(small), "--samples",
                    str(SAMPLES), "--json", str(out), *extra])
    return json.loads(out.read_text()), code


@pytest.fixture(scope="module")
def single(tmp_path_factory):
    inst = make_instance(np.random.default_rng(11), 64, 4, 8, anchors=1)
    report, code = match_report(tmp_path_factory.mktemp("single"), inst, ("--verify",))
    return inst, report, code


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    code = run_cli(["table1", "--max-a", "1024", "--csv", str(path)])
    return path.read_text(), code


def names(failures: list[checks.Failure]) -> set[str]:
    return {f.check for f in failures}


def test_real_outputs_pass(single, table):
    inst, report, code = single
    assert checks.check_match(report, code, inst, SAMPLES) == []
    assert checks.check_verify(report, inst) == []
    assert checks.check_table(*table, 1024) == []


def test_top_position_one_pixel_off_rejected(single):
    inst, report, code = single
    for delta in (1, -1, inst.side):
        bad = copy.deepcopy(report)
        bad["result"]["top_index"] += delta
        assert names(checks.check_match(bad, code, inst, SAMPLES)) == {"result.top_index"}


def test_predicted_success_off_by_1e6_rejected(single):
    inst, report, code = single
    bad = copy.deepcopy(report)
    bad["plan"]["predicted_success"] -= 1e-6
    assert names(checks.check_match(bad, code, inst, SAMPLES)) == {"plan.predicted_success"}


def test_histogram_below_99_percent_rejected(single):
    inst, report, code = single
    bad = copy.deepcopy(report)
    target = str(inst.plant_index)
    other = next(str(k) for k in range(inst.side**2) if str(k) != target)
    bad["samples"]["counts"] = {target: 989, other: 11}
    assert names(checks.check_match(bad, code, inst, SAMPLES)) == {"samples.target_share"}
    bad["samples"]["counts"] = {target: 990, other: 10}
    assert checks.check_match(bad, code, inst, SAMPLES) == []


def test_sample_total_and_exit_code_rejected(single):
    inst, report, code = single
    bad = copy.deepcopy(report)
    bad["samples"]["counts"][str(inst.plant_index)] += 1
    assert "samples.counts" in names(checks.check_match(bad, code, inst, SAMPLES))
    assert "exit_code" in names(checks.check_match(report, 3, inst, SAMPLES))


def test_dropped_full_block_location_rejected(single):
    inst, report, _ = single
    bad = copy.deepcopy(report)
    bad["verify"]["full_block"] = []
    assert names(checks.check_verify(bad, inst)) == {"verify.full_block"}
    bad = copy.deepcopy(report)
    bad["verify"]["anchor"] = bad["verify"]["anchor"][1:] + [[0, 0]]
    assert names(checks.check_verify(bad, inst)) == {"verify.anchor"}


@pytest.mark.parametrize("row", [1, 5, 9])
@pytest.mark.parametrize("delta", [1, -1])
def test_table_row_with_i_exact_off_by_one_rejected(table, row, delta):
    text, code = table
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[1] = str(int(fields[1]) + delta)
    lines[row] = ",".join(fields)
    failures = checks.check_table("\n".join(lines) + "\n", code, 1024)
    assert "table.i_exact" in names(failures)
    # predicted_success no longer matches the shifted count either; nothing else moves.
    assert names(failures) <= {"table.i_exact", "table.predicted_success"}
    assert all(f.detail.startswith(f"a={fields[0]}:") for f in failures)


def test_table_other_columns_rejected(table):
    text, code = table
    lines = text.splitlines()
    fields = lines[6].split(",")  # a = 128, where the optimum (100) is below exact (101)
    fields[2] = str(int(fields[2]) + 1)
    fields[3] = str(int(fields[3]) + 1)
    fields[4] = repr(float(fields[4]) + 1e-6)
    fields[5] = "0.9999999"
    lines[6] = ",".join(fields)
    failures = checks.check_table("\n".join(lines) + "\n", code, 1024)
    assert names(failures) == {"table.i_fit", "table.i_optimal", "table.predicted_success",
                               "table.lower_bound"}
    assert "table.sides" in names(checks.check_table("\n".join(lines[:-1]), code, 1024))


def test_first_sign_change_is_the_first_negative_quartic():
    for a in [4, 8, 16, 32, 64, 128, 256]:
        want = next(i for i in range(1, a + 1) if checks.quartic_doubled(i, a) < 0)
        assert checks.first_sign_change(a) == want
    assert checks.first_sign_change(16384) == 13045
    assert checks.first_sign_change(65536) == 52181


def test_expected_rounds_for_several_marks():
    assert checks.expected_rounds(256, 4) == 100
    assert checks.expected_rounds(4, 8) == 0
    assert checks.success_probability(100, 4, 256 * 256) > 0.999


def test_multi_mark_fault_limited_to_planner_checks(tmp_path):
    inst = make_instance(np.random.default_rng(5), 64, 4, 8, anchors=4)
    report, code = match_report(tmp_path, inst)
    # Today the planner ignores M and these checks fail; none of the others may.
    assert names(checks.check_match(report, code, inst, SAMPLES)) <= checks.MULTI_MARK_CHECKS


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("side,small,depth,anchors",
                         [(64, 2, 8, 1), (64, 8, 8, 4), (32, 16, 8, 4), (64, 2, 16, 1)])
def test_instances_keep_their_promises(seed, side, small, depth, anchors):
    inst = make_instance(np.random.default_rng(seed), side, small, depth, anchors)
    check_instance(inst, anchors)
    assert full_block_positions(inst.big, inst.small) == [list(inst.plant)]
    assert int(inst.big.max()) < 1 << depth


@pytest.mark.parametrize("damage", ["second copy", "damaged plant", "decoy off the grid"])
def test_broken_instance_detected(damage):
    inst = make_instance(np.random.default_rng(0), 64, 4, 8, anchors=4)
    x, y = inst.plant
    if damage == "second copy":
        inst.big[0:4, 60:64] = inst.small
    elif damage == "damaged plant":
        inst.big[y + 1, x + 1] ^= 1
    else:
        decoy = next((dx, dy) for dx, dy in zip(*np.nonzero(inst.big == inst.anchor_value)[::-1])
                     if (dx, dy) != (x, y))
        inst.big[decoy[1], decoy[0]] ^= 1
        inst.big[63, 63] = inst.anchor_value
    with pytest.raises(InstanceError):
        check_instance(inst, 4)


def test_benchmark_json_names_the_printed_metrics():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
