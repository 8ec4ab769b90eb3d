"""Grayscale image loading, pair validation and the input rules.

Images are square with power-of-two side lengths.  A matching instance is a
pair (big, small) with sides 2**n and 2**m, n > m >= 0, compared at the wider
bit depth; :func:`validate_pair` alone checks that contract.  The package's
input rules, :func:`as_count` and :func:`as_side`, live here too.

Every image holds its pixels as one read-only numpy array (``uint8`` up to 8
bits, native ``uint16`` above), and that array is the image's GQIR encoding:
entry k is the intensity at position k, and every position carries the
implicit amplitude 1/side.  Marking and the classical scans read the array
directly; there is no separate encoding step.  An 8-bit P5 raster is a
``np.frombuffer`` view of the stream; a 16-bit one is byteswapped into its
native array through a small aligned buffer.  One ``max()`` range-checks
either, and only when maxval leaves room above it (not 255 or 65535 then);
no per-pixel Python object is built on the way from file to marks.

Position convention: k = y * side + x with y the row counted from the top,
i.e. plain row-major order.  A column-major reading would permute k but leaves
every probability unchanged.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class PgmError(ValueError):
    """Malformed PGM stream (bad header, bad maxval, truncated raster)."""


class ValidationError(ValueError):
    """Input violates a documented contract: an image pair, a count or a side."""


def as_count(value: object, name: str, low: int, high: float = math.inf, shown: str = "") -> int:
    """``value`` as a Python int if its type is int or a numpy integer (no bool) in [low, high]."""
    if (type(value) is int or isinstance(value, np.integer)) and low <= (count := int(value)) <= high:
        return count
    raise ValidationError(f"{name} must be an integer in [{low}, {shown or high}], got {value!r}")


def as_side(value: object, name: str, low: int, high: float = math.inf) -> int:
    """``value`` as a Python int if it is an integer power of two in [low, high], ``low`` >= 1."""
    side = int(value) if type(value) is int or isinstance(value, np.integer) else 0
    if side < low or side & (side - 1):
        raise ValidationError(f"{name} must be a power of two >= {low}, got {value!r}")
    if side > high:
        raise ValidationError(f"{name} 2^{side.bit_length() - 1} is past the float64 limit "
                              f"2^{int(high).bit_length() - 1}")
    return side


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, init=False)
class Image:
    """A grayscale raster.

    ``array`` holds the pixels row-major, top-left first, as a read-only
    ``uint8`` array (bit depth up to 8) or native ``uint16`` array (above 8).
    ``bit_depth`` is the number of bits per pixel implied by the source
    maxval; every value satisfies 0 <= v < 2**bit_depth.  Squareness and
    power-of-two sides are *not* enforced here; :func:`validate_pair` owns
    those checks so that a parseable but unusable file is reported as a
    validation error, not a parse error.

    ``width`` and ``height`` are counts >= 0 and ``bit_depth`` is one in [1, 16].
    ``pixels`` is a sequence or array of integers or bools; any other numpy
    dtype (floats, strings, ints past 64 bits) raises ValueError.  A
    read-only array of the storage dtype is shared rather than copied.
    """

    width: int
    height: int
    bit_depth: int
    array: np.ndarray

    def __init__(self, width: int, height: int, bit_depth: int,
                 pixels: Sequence[int] | np.ndarray) -> None:
        width, height = as_count(width, "width", 0), as_count(height, "height", 0)
        bit_depth = as_count(bit_depth, "bit depth", 1, 16)
        dtype = np.dtype(np.uint8 if bit_depth <= 8 else np.uint16)
        shared = isinstance(pixels, np.ndarray) and pixels.dtype == dtype and not pixels.flags.writeable
        arr = pixels if shared else np.asarray(pixels)
        if arr.size and arr.dtype.kind not in "biu":
            raise ValueError(f"pixels must be integers, got dtype {arr.dtype}")
        if arr.shape != (width * height,):
            raise ValueError("pixel count does not match dimensions")
        # A shared array whose dtype is exactly bit_depth wide cannot hold an
        # out-of-range value, so only narrower depths need the range pass.  An
        # unsigned array has no negative value to look for.
        if arr.size and not (shared and dtype.itemsize * 8 == bit_depth):
            low = 0 if arr.dtype.kind == "u" else int(arr.min())
            high = int(arr.max())
            if low < 0 or high >> bit_depth:
                bad = low if low < 0 else high
                raise ValueError(f"pixel value {bad} outside [0, {(1 << bit_depth) - 1}]")
        if not shared:
            arr = _frozen(arr.astype(dtype))
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "bit_depth", bit_depth)
        object.__setattr__(self, "array", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return ((self.width, self.height, self.bit_depth) == (other.width, other.height, other.bit_depth)
                and np.array_equal(self.array, other.array))


@dataclass(frozen=True)
class MatchDims:
    """Validated dimensions of a matching instance.

    ``n`` and ``m`` are the log2 side lengths of the big and small image,
    ``bit_depth`` the common bit depth, ``side`` = 2**n.
    """

    n: int
    m: int
    bit_depth: int
    side: int


# A PGM number is optionally signed decimal digits; int() alone would also take "1_0".
_NUMBER = re.compile(rb"[+-]?[0-9]+")
# The next header token past any whitespace and '#' comments; empty at the end.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)")


# Pixels per step of the 16-bit decode, so its aligned staging buffer is 32 KiB.
_DECODE_CHUNK = 1 << 14


def _decode_be16(data: bytes, offset: int, count: int) -> np.ndarray:
    """The big-endian 16-bit raster at ``offset`` as a read-only native uint16 array.

    An odd header length leaves the raster unaligned, and numpy byteswaps an
    unaligned view several times slower than an aligned one.  So each chunk
    is copied as is into one aligned buffer and byteswapped from there into
    the output: peak memory is the output plus _DECODE_CHUNK pixels.
    """
    raw = np.frombuffer(data, dtype=">u2", count=count, offset=offset)
    pixels = np.empty(count, dtype=np.uint16)
    buffer = np.empty(min(count, _DECODE_CHUNK), dtype=">u2")
    for start in range(0, count, _DECODE_CHUNK):
        stop = min(start + _DECODE_CHUNK, count)
        staged = buffer[: stop - start]
        staged[...] = raw[start:stop]
        pixels[start:stop] = staged
    return _frozen(pixels)


def load_pgm(data: bytes) -> Image:
    """Parse a PGM stream (P2 ASCII or P5 binary) into an :class:`Image`.

    The header is whitespace-delimited (magic, width, height, maxval) and may
    contain '#' comment lines.  P5 rasters use one byte per pixel, or two
    big-endian bytes when maxval > 255.  The derived bit depth is the smallest
    q with maxval <= 2**q - 1.  A P2 raster may also hold '#' comments; it
    is read line by line, each line cut at its first '#' and split on
    whitespace.

    Raises :class:`PgmError` for malformed input.  Geometry (squareness,
    power-of-two sides) is deliberately not checked here.
    """
    found = _HEADER_TOKEN.match(data)
    magic = found[1]
    if not magic:
        raise PgmError("empty stream")
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"unsupported magic {magic!r}, expected P2 or P5")

    header: list[int] = []
    for _ in range(3):
        found = _HEADER_TOKEN.match(data, found.end())
        if not found[1]:
            raise PgmError("truncated header")
        if not _NUMBER.fullmatch(found[1]):
            raise PgmError(f"non-numeric header token {found[1]!r}")
        header.append(int(found[1]))
    width, height, maxval = header
    raster_start = found.end()
    if width <= 0 or height <= 0:
        raise PgmError(f"bad dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise PgmError(f"maxval {maxval} outside [1, 65535]")
    count = width * height

    if magic == b"P2":
        # A comment runs from '#' to the end of its line, so cutting each line
        # at its first '#' and splitting the rest gives _HEADER_TOKEN's tokens.
        # Line by line, only one line's tokens are held at a time.  Past the
        # whitespace that split() removes, int() differs from _NUMBER only on '_'.
        values: list[int] = []
        for line in data[raster_start:].split(b"\n"):
            body = line.partition(b"#")[0]
            tokens = body.split()
            try:
                if b"_" in body:
                    raise ValueError
                values.extend(map(int, tokens))
            except ValueError:
                token = next(t for t in tokens if not _NUMBER.fullmatch(t))
                raise PgmError(f"non-numeric pixel token {token!r}") from None
        if len(values) != count:
            raise PgmError(f"expected {count} pixels, found {len(values)}")
        if min(values) < 0 or max(values) > maxval:
            bad = next(v for v in values if v < 0 or v > maxval)
            raise PgmError(f"pixel value {bad} outside [0, {maxval}]")
        # Checked, so they go straight into the read-only storage array P5 gives.
        pixels = _frozen(np.array(values, dtype=np.uint8 if maxval <= 255 else np.uint16))
        return Image(width, height, maxval.bit_length(), pixels)

    # Exactly one whitespace byte separates maxval from the raster.
    if not data[raster_start : raster_start + 1].isspace():
        raise PgmError("missing raster separator")
    offset = raster_start + 1
    stride = 2 if maxval > 255 else 1
    if len(data) - offset < count * stride:
        raise PgmError(f"raster too short: {len(data) - offset} bytes for {count} pixels")
    # A view of an immutable stream is shared; a 16-bit raster is byteswapped
    # into its one native uint16 copy, and the range check reads that copy.
    if stride == 2:
        pixels = _decode_be16(data, offset, count)
    else:
        pixels = np.frombuffer(data, dtype=np.uint8, count=count, offset=offset)
    # A maxval that fills the dtype (255 or 65535) leaves no value to reject.
    if maxval < (1 << 8 * stride) - 1 and pixels.max() > maxval:
        bad = int(pixels[np.argmax(pixels > maxval)])
        raise PgmError(f"pixel value {bad} outside [0, {maxval}]")
    return Image(width, height, maxval.bit_length(), pixels)


def write_pgm(img: Image, binary: bool = True) -> bytes:
    """Serialize an :class:`Image` back to PGM (P5 by default, P2 otherwise)."""
    maxval = (1 << img.bit_depth) - 1
    header = f"{'P5' if binary else 'P2'}\n{img.width} {img.height}\n{maxval}\n".encode()
    if binary:
        return header + img.array.astype(">u2" if maxval > 255 else "u1").tobytes()
    rows = img.array.reshape(img.height, img.width).tolist()
    return header + ("\n".join(" ".join(map(str, row)) for row in rows) + "\n").encode()


def validate_pair(big: Image, small: Image) -> MatchDims:
    """Check a (big, small) pair and derive the instance dimensions.

    Both images must be square with power-of-two sides and the big side must
    strictly exceed the small side.  Bit depths may differ; the pair is
    compared at the wider depth (zero extension changes no pixel value).
    """
    for name, img in (("big", big), ("small", small)):
        if img.width != img.height:
            raise ValidationError(f"{name} image is {img.width}x{img.height}, not square")
        as_side(img.width, f"{name} image side", 1)
    n = big.width.bit_length() - 1
    m = small.width.bit_length() - 1
    if n <= m:
        raise ValidationError(
            f"big side 2^{n} must exceed small side 2^{m}"
        )
    return MatchDims(n=n, m=m, bit_depth=max(big.bit_depth, small.bit_depth), side=big.width)
