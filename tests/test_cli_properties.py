"""Property test of the command line: any small PGM pair and any flag at its edges.

Every call of :func:`qimatch.cli.main` must return an exit code in 0..3 and
raise nothing.  An exit 2 writes exactly one ``error:`` line to stderr; any
other exit leaves stderr empty, or holds the one ``--verify`` warning line.
A match that runs prints and writes the plan's lower bound as a number.
"""

import contextlib
import io
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qimatch.cli import main

VERIFY_WARNING = "verification: top position is NOT a full-block match\n"

# Each flag's documented edges, and the values just past them.
MATCH_FLAGS = {
    "--samples": [0, 1, (1 << 63) - 1, 1 << 63],
    "--seed": [-1, 0],
}
TABLE1_MAX_A = [2, 3, 4, 1 << 537, 1 << 538]
ANALYZE_A = [1, 2, 5, 1 << 511, 1 << 512]

FAULTS = [None, "magic", "word", "underscore", "maxval 0", "maxval 65536", "truncated"]


@st.composite
def pixel_grids(draw, sides, depth=None):
    """(width, height, bit depth, pixels); the grid is mostly square."""
    width = draw(sides)
    height = draw(st.one_of(st.just(width), sides))
    depth = depth or draw(st.integers(1, 16))
    # few distinct values, so that anchors and full blocks recur
    top = min((1 << depth) - 1, draw(st.sampled_from([1, 3, 65535])))
    pixels = draw(st.lists(st.integers(0, top), min_size=width * height,
                           max_size=width * height))
    return width, height, depth, pixels


@st.composite
def pgm_files(draw, grid, faults):
    """The grid as P2 or P5 bytes, with the fault drawn from ``faults`` (None for none)."""
    width, height, depth, pixels = grid
    binary = draw(st.booleans())
    fault = draw(faults)
    words = [b"P5" if binary else b"P2", b"%d" % width, b"%d" % height, b"%d" % ((1 << depth) - 1)]
    if fault == "magic":
        words[0] = draw(st.sampled_from([b"P7", b"P6", b"P", b"p2"]))
    elif fault in ("word", "underscore"):
        at = draw(st.integers(1, 3))
        words[at] = b"x" + words[at] if fault == "word" else words[at][:1] + b"_" + words[at][1:]
    elif fault == "maxval 0":
        words[3], pixels = b"0", [0] * len(pixels)
    elif fault == "maxval 65536":
        words[3] = b"65536"
    head = b"%s\n%s %s\n%s\n" % tuple(words)
    if binary:
        raster = b"".join(v.to_bytes(1 if depth <= 8 else 2, "big") for v in pixels)
    else:
        raster = b" ".join(b"%d" % v for v in pixels) + b"\n"
    if fault == "truncated":
        raster = raster[:draw(st.integers(0, max(0, len(raster) - 2)))]
    return head + raster


@st.composite
def pgm_pairs(draw):
    """(big, small) PGM bytes: two thirds a valid pair, the rest anything.

    The small grid is often the big one's top-left corner.
    """
    if draw(st.sampled_from([True, True, False])):
        n = draw(st.integers(1, 4))
        big = draw(pixel_grids(st.just(1 << n)))
        side = 1 << draw(st.integers(0, n - 1))
        faults = st.just(None)
    else:
        big = draw(pixel_grids(st.integers(1, 16)))
        side = draw(st.integers(1, min(big[0], big[1])))
        faults = st.sampled_from(FAULTS)
    width, _, depth, pixels = big
    if draw(st.booleans()):
        small = (side, side, depth, [pixels[y * width + x] for y in range(side) for x in range(side)])
    else:
        small = draw(pixel_grids(st.just(side), depth))
    return draw(pgm_files(big, faults)), draw(pgm_files(small, faults))


def edge_flags(draw, flags):
    """Each flag in about half the runs, at one of its edge values."""
    argv = []
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, str(draw(st.sampled_from(values)))]
    return argv


@st.composite
def match_runs(draw):
    argv = ["match", "--big", "{big}", "--small", "{small}"] + edge_flags(draw, MATCH_FLAGS)
    argv += draw(st.sampled_from([[], ["--mode", "fit"], ["--mode", "optimal"]]))
    argv += draw(st.sampled_from([[], ["--verify"], ["--verify", "--json", "{out}"]]))
    return argv, draw(pgm_pairs())


@st.composite
def table1_runs(draw):
    argv = ["table1", "--max-a", str(draw(st.sampled_from(TABLE1_MAX_A)))]
    return argv + draw(st.sampled_from([[], ["--csv", "{out}"]])), None


@st.composite
def analyze_runs(draw):
    return ["analyze", "--a", str(draw(st.sampled_from(ANALYZE_A)))], None


# (argv with {big}, {small} and {out} placeholders, PGM pair or None); half are matches
commands = st.one_of(match_runs(), match_runs(), match_runs(), table1_runs(), analyze_runs(),
                     st.just((["example"], None)))


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-properties")


@settings(max_examples=300, deadline=None)
@given(commands)
def test_every_run_exits_with_a_code_and_a_clean_stderr(folder, command):
    template, pair = command
    paths = {"big": folder / "big.pgm", "small": folder / "small.pgm", "out": folder / "out"}
    if pair is not None:
        paths["big"].write_bytes(pair[0])
        paths["small"].write_bytes(pair[1])
    argv = [word.format(**paths) for word in template]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err in ("", VERIFY_WARNING if "--verify" in argv else ""), (argv, code, err)
    if argv[0] == "match" and code in (0, 3):
        assert "lower_bound=n/a" not in out and " lower_bound=" in out, (argv, out)
        if "--json" in argv:
            lower_bound = json.loads(paths["out"].read_text())["plan"]["lower_bound"]
            assert type(lower_bound) is float, (argv, lower_bound)
