"""Property tests for the PGM parser: round trips, headers, and every rejection path."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qimatch.images import _HEADER_TOKEN, Image, PgmError, load_pgm, write_pgm

# Tracing memory makes single examples slow; no example has a deadline.
thorough = settings(max_examples=150, deadline=None)


@st.composite
def images(draw, max_side=8):
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    bit_depth = draw(st.integers(1, 16))
    top = (1 << bit_depth) - 1
    pixels = draw(st.lists(st.integers(0, top), min_size=width * height, max_size=width * height))
    return Image(width, height, bit_depth, pixels)


def header_gap():
    """Whitespace and '#' comment lines, as PGM allows between header tokens."""
    piece = st.one_of(
        st.sampled_from([b" ", b"\t", b"\n", b"\r"]),
        st.text(st.characters(codec="ascii", exclude_characters="\n\r"), max_size=12).map(
            lambda text: b"#" + text.encode() + b"\n"
        ),
    )
    return st.lists(piece, min_size=1, max_size=4).map(b"".join)


def raster_bytes(img):
    """The raster part of the image's P5 serialization."""
    return write_pgm(img, binary=True).split(b"\n", 3)[3]


@thorough
@given(images(), st.booleans())
def test_write_then_load_round_trips(img, binary):
    back = load_pgm(write_pgm(img, binary=binary))
    assert back == img
    assert back.array.tolist() == img.array.tolist()


@thorough
@given(images(), st.lists(header_gap(), min_size=3, max_size=3), st.booleans())
def test_comments_and_whitespace_in_the_header(img, gaps, binary):
    maxval = (1 << img.bit_depth) - 1
    tokens = [b"P5" if binary else b"P2", str(img.width).encode(), str(img.height).encode()]
    head = b"".join(t + g for t, g in zip(tokens, gaps)) + str(maxval).encode()
    if binary:
        data = head + b"\n" + raster_bytes(img)
    else:
        data = head + b"\n" + b" ".join(str(v).encode() for v in img.array.tolist()) + b"\n"
    assert load_pgm(data) == img


@thorough
@given(st.one_of(st.integers(max_value=0), st.integers(min_value=65536, max_value=10**30)),
       st.sampled_from([b"P2", b"P5"]))
def test_maxval_outside_the_pgm_range_rejected(maxval, magic):
    with pytest.raises(PgmError) as err:
        load_pgm(magic + b"\n1 1\n" + str(maxval).encode() + b"\n\x00\x00")
    assert str(err.value) == f"maxval {maxval} outside [1, 65535]"


@thorough
@given(images(), st.data())
def test_truncated_p5_raster_rejected(img, data):
    raster = raster_bytes(img)
    keep = data.draw(st.integers(0, len(raster) - 1))
    stream = write_pgm(img)[: -len(raster)] + raster[:keep]
    with pytest.raises(PgmError) as err:
        load_pgm(stream)
    assert str(err.value) == f"raster too short: {keep} bytes for {img.width * img.height} pixels"


@thorough
@given(images(), st.data())
def test_truncated_p2_raster_rejected(img, data):
    count = img.width * img.height
    keep = data.draw(st.integers(0, count - 1))
    maxval = (1 << img.bit_depth) - 1
    body = " ".join(str(v) for v in img.array[:keep].tolist())
    stream = f"P2\n{img.width} {img.height}\n{maxval}\n{body}\n".encode()
    with pytest.raises(PgmError) as err:
        load_pgm(stream)
    assert str(err.value) == f"expected {count} pixels, found {keep}"


@thorough
@given(st.integers(1, 254), st.lists(st.integers(0, 255), min_size=1, max_size=64), st.data())
def test_p5_byte_above_a_low_maxval_names_the_first_one(maxval, values, data):
    if all(v <= maxval for v in values):
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(st.integers(maxval + 1, 255))
    stream = f"P5\n{len(values)} 1\n{maxval}\n".encode() + bytes(values)
    first = next(v for v in values if v > maxval)
    with pytest.raises(PgmError) as err:
        load_pgm(stream)
    assert str(err.value) == f"pixel value {first} outside [0, {maxval}]"


@thorough
@given(st.integers(256, 65534), st.lists(st.integers(0, 65535), min_size=1, max_size=64), st.data())
def test_sixteen_bit_value_above_maxval_names_the_first_one(maxval, values, data):
    if all(v <= maxval for v in values):
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(st.integers(maxval + 1, 65535))
    raster = np.array(values, dtype=">u2").tobytes()
    stream = f"P5\n{len(values)} 1\n{maxval}\n".encode() + raster
    first = next(v for v in values if v > maxval)
    with pytest.raises(PgmError) as err:
        load_pgm(stream)
    assert str(err.value) == f"pixel value {first} outside [0, {maxval}]"


@thorough
@given(st.integers(1 << 10, 1 << 40), st.integers(1 << 10, 1 << 40), st.sampled_from([b"P2", b"P5"]),
       st.integers(1, 65535), st.binary(max_size=256))
def test_huge_declared_sizes_allocate_only_what_the_stream_holds(width, height, magic, maxval, tail):
    if magic == b"P2":
        tail = b" ".join(str(b).encode() for b in tail)
    stream = magic + f"\n{width} {height}\n{maxval}\n".encode() + tail
    tracemalloc.start()
    try:
        with pytest.raises(PgmError):
            load_pgm(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def outcome(stream):
    """The image a stream loads to, or the message it is rejected with."""
    try:
        return load_pgm(stream)
    except PgmError as exc:
        return str(exc)


def expected_p2(img, tokens):
    """What a P2 raster of these tokens must load to: the first fault in reading order wins."""
    values = []
    for token in tokens:
        if not re.fullmatch(rb"[+-]?[0-9]+", token):
            return f"non-numeric pixel token {token!r}"
        values.append(int(token))
    count = img.width * img.height
    if len(values) != count:
        return f"expected {count} pixels, found {len(values)}"
    maxval = (1 << img.bit_depth) - 1
    for v in values:
        if not 0 <= v <= maxval:
            return f"pixel value {v} outside [0, {maxval}]"
    return Image(img.width, img.height, img.bit_depth, values)


def bad_token(maxval):
    """Tokens that are no pixel value: non-numeric, negative, or above maxval."""
    non_numeric = st.one_of(
        st.binary(min_size=1, max_size=4).filter(
            lambda t: not any(c in b" \t\n\r\x0b\x0c#" for c in t)),
        st.sampled_from([b"0x1f", b"1.5", b"1e3", b"--1", b"7a", b"2_55", b"1_0"]))
    negative = st.integers(-300, -1).map(lambda v: str(v).encode())
    above = st.one_of(st.integers(maxval + 1, maxval + 300).map(lambda v: str(v).encode()),
                      st.sampled_from([b"65536", b"+99999999999999999999"]))
    return st.one_of(non_numeric, negative, above)


@thorough
@given(images(), st.data())
def test_p2_raster_loads_like_a_reference_reader(img, data):
    maxval = (1 << img.bit_depth) - 1
    tokens = [str(v).encode() for v in img.array.tolist()]
    # Mostly count-preserving replacements, so range and token errors show, not only counts.
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.integers(0, len(tokens)))
        action = data.draw(st.sampled_from(["replace"] * 4 + ["insert", "drop"]))
        if action == "drop" and tokens:
            del tokens[min(at, len(tokens) - 1)]
        elif action == "insert" or not tokens:
            tokens.insert(at, data.draw(bad_token(maxval)))
        else:
            tokens[min(at, len(tokens) - 1)] = data.draw(bad_token(maxval))
    whitespace = st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
                          min_size=1, max_size=3).map(b"".join)
    gaps = data.draw(st.lists(whitespace, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    head = f"P2\n{img.width} {img.height}\n{maxval}".encode()
    stream = head + b"".join(g + t for g, t in zip(gaps, tokens)) + gaps[-1]
    assert b"#" not in stream

    # A comment ends a token it touches and runs to the end of its line, or of the stream.
    text = data.draw(st.binary(max_size=8).filter(lambda t: b"\n" not in t))
    cut = data.draw(st.integers(0, len(tokens)))
    where = data.draw(st.sampled_from(["after gap", "on token", "at end"]))
    if where == "at end":
        gaps[-1] += b"#" + text
    elif where == "on token" and cut < len(tokens):
        tokens = tokens[:cut] + [tokens[cut] + b"#" + text + b"\n"] + tokens[cut + 1:]
    else:
        gaps[cut] += b"#" + text + b"\n"
    commented = head + b"".join(g + t for g, t in zip(gaps, tokens)) + gaps[-1]
    want = expected_p2(img, [t.partition(b"#")[0] for t in tokens])
    assert outcome(stream) == want
    assert outcome(commented) == want


@thorough
@given(st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, 7, 255, 65535]),
       st.lists(st.sampled_from([b"0", b"1", b"7", b"300", b"-2", b"x", b"+", b" ", b"\t", b"\r",
                                 b"\n", b"\x0c", b"#"]), max_size=24).map(b"".join))
def test_p2_raster_reads_the_header_tokenizers_tokens(width, height, maxval, raster):
    stream = f"P2\n{width} {height}\n{maxval}".encode() + b" " + raster
    img = Image(width, height, maxval.bit_length(), [0] * (width * height))
    tokens, found = [], _HEADER_TOKEN.match(raster)
    while found[1]:
        tokens.append(found[1])
        found = _HEADER_TOKEN.match(raster, found.end())
    want = expected_p2(img, tokens)
    assert outcome(stream) == want
