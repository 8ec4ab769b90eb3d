"""The one match pipeline: what it returns, and that every match run goes through it."""

import ast
import dataclasses
import inspect
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import qimatch
from qimatch import cli, grover, images, marking, pipeline, sample, verify
from qimatch.cli import main
from qimatch.grover import PlanMode, success_probability
from qimatch.images import Image, ValidationError, write_pgm
from qimatch.sample import sample_pair

from conftest import make_image, planted_instance


def multi_mark_pair():
    """The 8x8 pair of the CLI's multi-mark test: four anchors, one full block."""
    pixels = [1] * 64
    for x, y in ((0, 0), (3, 1), (5, 2), (6, 6)):
        pixels[y * 8 + x] = 9
    pixels[2 * 8 + 6], pixels[3 * 8 + 5], pixels[3 * 8 + 6] = 2, 3, 4
    return make_image(pixels, 8, 4), make_image([9, 2, 3, 4], 2, 4)


PAIRS = {
    "sample": sample_pair,
    "planted": lambda: planted_instance(random.Random(2), 3, 1, 3)[:2],  # at x=6, y=3
    "multi-mark": multi_mark_pair,
}

FLAGS = [
    {"mode": PlanMode.EXACT, "iterations": None, "seed": 5, "samples": 100},
    {"mode": PlanMode.FIT, "iterations": None, "seed": 0, "samples": 1},
    {"mode": PlanMode.OPTIMAL, "iterations": 2, "seed": 9, "samples": 3000},
]


def expected_report(outcome, seed):
    """The --json report written out from the outcome's fields."""
    dims, final, top = outcome.dims, outcome.final, outcome.final.top_index()
    return {
        "dims": {"n": dims.n, "m": dims.m, "q": dims.bit_depth, "a": dims.side},
        "plan": {
            "mode": outcome.plan.mode.value,
            "iterations": final.rounds,
            "predicted_success": final.probability,
            # the plan's bound holds only for the rounds it planned
            "lower_bound": outcome.plan.lower_bound if final.rounds == outcome.plan.iterations else None,
        },
        "result": {
            "top_index": top,
            "x": top % dims.side,
            "y": top // dims.side,
            "marked_count": len(outcome.final.marked),
        },
        "samples": {
            "seed": seed,
            "counts": {str(k): outcome.counts[k] for k in sorted(outcome.counts)},
        },
    }


def write_pair(tmp_path, big, small):
    bp, sp = tmp_path / "b.pgm", tmp_path / "s.pgm"
    bp.write_bytes(write_pgm(big))
    sp.write_bytes(write_pgm(small))
    return str(bp), str(sp)


@pytest.mark.parametrize("flags", FLAGS, ids=lambda f: f["mode"].value)
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_outcome_gives_the_cli_report(name, flags, tmp_path):
    big, small = PAIRS[name]()
    bp, sp = write_pair(tmp_path, big, small)
    report = tmp_path / "r.json"
    argv = ["match", "--big", bp, "--small", sp, "--mode", flags["mode"].value,
            "--seed", str(flags["seed"]), "--samples", str(flags["samples"]),
            "--json", str(report)]
    if flags["iterations"] is not None:
        argv += ["--iterations", str(flags["iterations"])]
    assert main(argv) == 0
    outcome = pipeline.match(big, small, **flags)
    assert json.loads(report.read_text()) == expected_report(outcome, flags["seed"])


def test_iteration_override_predicts_its_own_count():
    big, small = multi_mark_pair()
    outcome = pipeline.match(big, small, iterations=5)
    assert outcome.final.rounds == 5
    assert outcome.plan.iterations == 3
    assert outcome.final.probability == success_probability(8, 5, 4)
    assert pipeline.match(big, small).final.rounds == 3


def test_outcome_holds_each_value_once():
    # the plan holds what was planned and the final state what was applied
    names = [f.name for f in dataclasses.fields(pipeline.Outcome)]
    assert names == ["dims", "plan", "final", "counts", "timings_ms"]
    assert [f.name for f in dataclasses.fields(grover.IterationPlan)] == [
        "mode", "iterations", "lower_bound"]


@pytest.mark.parametrize("n", range(1, 11))
def test_predicted_success_is_the_probability_the_sampler_uses(n):
    size = 1 << (2 * n)
    small = Image(1, 1, 1, [1])
    for count in sorted({0, 1, 2, size // 4, size // 2, size - 1, size}):
        pixels = np.zeros(size, dtype=np.int64)
        pixels[np.random.default_rng(count).permutation(size)[:count]] = 1
        big = Image(1 << n, 1 << n, 1, pixels)
        for iterations in (None, 0, 1, 3, 10**6):
            outcome = pipeline.match(big, small, mode=PlanMode.OPTIMAL, iterations=iterations)
            rounds = outcome.plan.iterations if iterations is None else iterations
            want = outcome.final.probability
            assert outcome.final.rounds == rounds, (n, count, iterations)
            assert want == success_probability(1 << n, rounds, count), (n, count, iterations)
            if rounds == 0:
                assert want == count / size, (n, count)
            if count == size:
                assert want == 1.0, (n, iterations)


@pytest.mark.parametrize("flags,message", [({"samples": 0}, "samples .* got 0$"),
                                           ({"samples": 2**63}, f"samples .* got {2**63}$"),
                                           ({"samples": 2.5}, "samples .* got 2.5$"),
                                           ({"seed": -1}, "seed .* got -1$"),
                                           ({"seed": 1.5}, "seed .* got 1.5$"),
                                           ({"iterations": -1}, "iterations .* got -1$"),
                                           ({"iterations": 2**1100}, f"iterations .* got {2**1100}$"),
                                           ({"iterations": 2.5}, "iterations .* got 2.5$"),
                                           ({"mode": "bogus"}, "mode .* got 'bogus'$")],
                         ids=["samples-0", "samples-2^63", "samples-float", "seed-negative",
                              "seed-float", "iterations-negative", "iterations-2^1100",
                              "iterations-float", "mode-bogus"])
def test_bad_run_flags_raise_validation_error(flags, message, monkeypatch):
    # every one is refused before the anchor scan reads the pair
    scans = []
    real = marking.anchors
    monkeypatch.setattr(marking, "anchors", lambda big, small: scans.append(1) or real(big, small))
    big, small = sample_pair()
    with pytest.raises(ValidationError, match=message):
        pipeline.match(big, small, **flags)
    assert scans == []


def test_timings_are_milliseconds_of_their_stage():
    big, small = sample_pair()
    start = time.perf_counter()
    timings = pipeline.match(big, small, samples=1000).timings_ms
    wall_ms = (time.perf_counter() - start) * 1000.0
    assert list(timings) == ["encode", "mark", "plan", "amplify", "sample"]
    assert all(ms >= 0 for ms in timings.values()), timings
    # each stage is rounded to the microsecond
    assert 0 < sum(timings.values()) <= wall_ms + 0.0005 * len(timings), (timings, wall_ms)


@pytest.mark.parametrize("n", range(1, 7))
def test_the_bound_never_exceeds_the_success(n):
    size = 1 << (2 * n)
    for count in sorted({0, 1, 2, size // 2, size}):
        big = Image(1 << n, 1 << n, 1, [1] * count + [0] * (size - count))
        outcome = pipeline.match(big, Image(1, 1, 1, [1]))
        assert outcome.plan.lower_bound <= outcome.final.probability, (n, count)


def test_a_mode_value_plans_like_its_member(monkeypatch):
    big, small = sample_pair()
    for mode in PlanMode:
        assert grover.plan_iterations(1024, mode.value) == grover.plan_iterations(1024, mode)
        assert pipeline.match(big, small, mode=mode.value).plan == pipeline.match(big, small, mode=mode).plan
    assert grover.plan_iterations(1024, "exact").iterations == 815
    with pytest.raises(ValueError):
        grover.plan_iterations(1024, "bogus")

    def refuse(*args):
        raise AssertionError("a bad mode must be refused before the anchor scan")

    monkeypatch.setattr(marking, "anchors", refuse)
    with pytest.raises(ValidationError, match="mode"):
        pipeline.match(big, small, mode="bogus")


@pytest.mark.parametrize("name,count", [("sample", 1), ("multi-mark", 4)])
def test_amplify_gets_the_anchor_array_itself(name, count, monkeypatch):
    # no copy and no re-sort between the anchor scan and the amplified state
    returned = []
    real = marking.anchors
    monkeypatch.setattr(marking, "anchors", lambda big, small: returned.append(real(big, small)) or returned[-1])
    outcome = pipeline.match(*PAIRS[name]())
    assert len(returned) == 1 and len(returned[0]) == count
    assert outcome.final.marked is returned[0]


def test_counts_are_a_seeded_draw_from_the_final_state():
    big, small = PAIRS["planted"]()
    for seed in (0, 7):
        outcome = pipeline.match(big, small, seed=seed, samples=500)
        assert outcome.counts == grover.sample_groups(outcome.final, seed=seed, samples=500)
        assert sum(outcome.counts.values()) == 500


def test_no_marks_point_nowhere():
    outcome = pipeline.match(make_image([1, 2, 3, 1], 2, 2), make_image([0], 1, 2))
    assert outcome.final.marked.tolist() == []
    assert outcome.final.rounds == 0
    assert outcome.final.top_index() is None


def test_bad_pair_raises():
    with pytest.raises(ValidationError):
        pipeline.match(make_image([0] * 16, 4, 8), make_image([0] * 16, 4, 8))


def test_timings_follow_the_stages():
    outcome = pipeline.match(*sample_pair())
    assert list(outcome.timings_ms) == ["encode", "mark", "plan", "amplify", "sample"]
    assert all(v >= 0 for v in outcome.timings_ms.values())


@pytest.mark.parametrize("command", ["match", "example"])
def test_every_run_calls_the_pipeline_once(command, tmp_path, monkeypatch, capsys):
    calls = []
    real = pipeline.match

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "match", spy)
    argv = ["example"]
    if command == "match":
        bp, sp = write_pair(tmp_path, *sample_pair())
        argv = ["match", "--big", bp, "--small", sp, "--verify"]
    assert main(argv) == 0
    assert len(calls) == 1


def test_vector_engine_stays_off_the_match_path(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a match run must not touch the full-vector engine")

    for name in ("run_grover", "init_subspace", "sample_measurement"):
        monkeypatch.setattr(verify, name, refuse)
    bp, sp = write_pair(tmp_path, *sample_pair())
    assert main(["match", "--big", bp, "--small", sp, "--samples", "1000", "--verify"]) == 0
    assert "(x=1, y=1)" in capsys.readouterr().out
    outcome = pipeline.match(*sample_pair(), samples=1000)
    assert outcome.final.top_index() == 5
    assert math.isclose(outcome.final.probability, 0.9613189697265625)


def test_image_holds_no_pixel_tuple():
    # an image's read-only array is its only copy of the pixels
    big, _ = sample_pair()
    assert not any(hasattr(obj, name) for obj in (Image, big) for name in ("pixels", "pixel"))


def test_marks_are_held_once_as_a_sorted_array():
    big, small = multi_mark_pair()
    outcome = pipeline.match(big, small)
    assert outcome.final.marked.tolist() == [0, 11, 21, 54]
    assert not hasattr(outcome, "marked")


def test_each_name_has_one_home():
    homes = {"Image": images, "PgmError": images, "ValidationError": images, "load_pgm": images,
             "write_pgm": images, "PlanMode": grover, "sample_pair": sample}
    assert sorted(qimatch.__all__) == sorted([*homes, "pipeline"])
    assert qimatch.pipeline is pipeline
    assert all(getattr(qimatch, name) is getattr(home, name) for name, home in homes.items())
    oracles = ("RADICAL_IMAG_TOL", "SubspaceState", "closed_form_iterations", "closed_form_pair",
               "diffuse", "init_subspace", "phase_flip", "run_grover", "sample_measurement")
    assert all(hasattr(verify, name) and not hasattr(grover, name) for name in oracles)
    # images encodes nothing: an image's array is its encoding
    functions = {name for name, obj in vars(images).items()
                 if inspect.isfunction(obj) and obj.__module__ == images.__name__ and name[0] != "_"}
    assert functions == {"load_pgm", "validate_pair", "write_pgm"}


def test_match_path_loads_no_oracle_and_no_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def loaded(module, names):
        probe = f"import sys, {module}; print(sorted(m for m in {names!r} if m in sys.modules))"
        return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env=env).stdout.strip()

    assert loaded("qimatch.pipeline", ("qimatch.cli", "qimatch.verify")) == "[]"
    assert loaded("qimatch.cli", ("qimatch.verify",)) == "[]"


def test_no_command_loads_an_oracle(tmp_path):
    # One fresh process runs every command through main; the oracles in verify
    # are for tests alone, so none of them may be imported.
    bp, sp = write_pair(tmp_path, *sample_pair())
    runs = [["match", "--big", bp, "--small", sp, "--verify", "--json", str(tmp_path / "r.json")],
            ["table1", "--max-a", "64", "--csv", str(tmp_path / "t.csv")],
            ["example"],
            ["analyze", "--a", "8", "--sweep-i", "4"]]
    probe = ("import sys; from qimatch.cli import main; "
             f"codes = [main(argv) for argv in {runs!r}]; "
             "print(codes, 'qimatch.verify' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=env)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"
    assert done.stderr == ""
    tree = ast.parse(inspect.getsource(cli))
    imported = {(getattr(node, "module", None) or "") + "." + alias.name
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not any("verify" in name for name in imported), imported


def test_marking_holds_only_the_hot_path():
    public = {name for name, obj in vars(marking).items()
              if callable(obj) and obj.__module__ == marking.__name__ and name[0] != "_"}
    assert public == {"anchors", "block_matches"}
    # the branch walk through the circuit's stages is an oracle, kept in verify alone
    walk = ("Stage", "StageError", "Branch", "JointState", "prepare_initial",
            "apply_comparison", "apply_marking", "marked_set")
    assert all(hasattr(verify, name) and not hasattr(marking, name) for name in walk)


def test_grover_holds_only_the_hot_path_and_planning():
    public = {name for name, obj in vars(grover).items()
              if callable(obj) and obj.__module__ == grover.__name__ and name[0] != "_"}
    assert public == {"TwoValueState", "amplify", "sample_groups",
                      "AmplitudePair", "initial_pair", "recurrence_step",
                      "PlanMode", "IterationPlan", "plan_iterations", "probability_lower_bound",
                      "success_probability", "as_count"}
    # the recurrence's Chebyshev closed form is an oracle, kept in verify alone
    assert hasattr(verify, "closed_form_pair") and not hasattr(grover, "_chebyshev")
