"""PGM parsing, pair validation, and the row-major position convention."""

import random
import struct
import tracemalloc

import numpy as np
import pytest

from qimatch import pipeline
from qimatch.images import (
    _DECODE_CHUNK,
    Image,
    PgmError,
    ValidationError,
    as_side,
    load_pgm,
    validate_pair,
    write_pgm,
)
from qimatch.sample import SAMPLE_BIG_PGM, sample_pair

from conftest import random_image


def p2_bytes(width, height, maxval, values):
    body = " ".join(str(v) for v in values)
    return f"P2\n{width} {height}\n{maxval}\n{body}\n".encode()


def p5_bytes(width, height, maxval, values):
    header = f"P5\n{width} {height}\n{maxval}\n".encode()
    if maxval > 255:
        raster = b"".join(struct.pack(">H", v) for v in values)
    else:
        raster = bytes(values)
    return header + raster


class TestLoadPgm:
    def test_small_sample_values(self):
        img = load_pgm(b"P2\n2 2\n255\n160 164 164 165")
        assert (img.width, img.height, img.bit_depth) == (2, 2, 8)
        assert img.array.tolist() == [160, 164, 164, 165]

    def test_minimal_image(self):
        img = load_pgm(b"P2\n1 1\n1\n0")
        assert (img.width, img.height, img.bit_depth) == (1, 1, 1)
        assert img.array.tolist() == [0]

    def test_p5_equals_p2_hand_encoded(self):
        # same 2x2 payload, binary raster written out by hand
        p5 = b"P5\n2 2\n255\n" + bytes([160, 164, 164, 165])
        assert load_pgm(p5) == load_pgm(b"P2\n2 2\n255\n160 164 164 165")

    def test_p2_p5_equivalence_randomized(self):
        rng = random.Random(1234)
        for _ in range(100):
            w, h = rng.randint(1, 8), rng.randint(1, 8)
            maxval = rng.choice([1, 3, 15, 255, 4095, 65535])
            values = [rng.randint(0, maxval) for _ in range(w * h)]
            a = load_pgm(p2_bytes(w, h, maxval, values))
            b = load_pgm(p5_bytes(w, h, maxval, values))
            assert a == b
            assert a.array.tolist() == values

    def test_comments_and_flexible_whitespace(self):
        data = b"P2 # magic\n# a comment line\n 2\t2 # inline\n# another\n3\n0 1\n2 3\n"
        img = load_pgm(data)
        assert img.array.tolist() == [0, 1, 2, 3]
        assert img.bit_depth == 2

    def test_sixteen_bit_big_endian(self):
        raster = struct.pack(">HH", 0x0102, 0xFFFE)
        img = load_pgm(b"P5\n2 1\n65535\n" + raster)
        assert img.array.tolist() == [258, 65534]
        assert img.bit_depth == 16

    @pytest.mark.parametrize(
        "maxval,expected_q",
        [(1, 1), (2, 2), (3, 2), (255, 8), (256, 9), (65535, 16)],
    )
    def test_bit_depth_from_maxval(self, maxval, expected_q):
        img = load_pgm(p2_bytes(1, 1, maxval, [maxval]))
        assert img.bit_depth == expected_q
        assert img.array.tolist() == [maxval]

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"P3\n1 1\n255\n0",
            b"P2\n1 1\n0\n0",
            b"P2\n1 1\n65536\n0",
            b"P2\n2 2\n255\n1 2 3",
            b"P2\n2 2\n255\n1 2 3 4 5",
            b"P2\n2 2\n255\n1 2 x 4",
            b"P2\n2 2\n2_55\n1 2 3 4",
            b"P2\n2 2\n255\n1 1_0 3 4",
            b"P2\n2 2\n",
            b"P2\n0 1\n255\n",
            b"P2\n1 1\n255\n300",
            b"P2\n1 1\n255\n-1",
            b"P5\n2 2\n255\n" + bytes([1, 2, 3]),
            b"P5\n2 1\n65535\n" + bytes([1, 2, 3]),
        ],
    )
    def test_malformed_streams_raise(self, data):
        with pytest.raises(PgmError):
            load_pgm(data)

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"P2\nx 1\n255\n0", "non-numeric header token b'x'"),
            (b"P2\n2 2\n2_55\n1 2 3 4", "non-numeric header token b'2_55'"),
            (b"P5\n2_0 1\n255\n" + bytes(20), "non-numeric header token b'2_0'"),
            (b"P2\n2 2\n255\n1 1_0 3 4", "non-numeric pixel token b'1_0'"),
            (b"P2\n2 1\n255\nx 1_0", "non-numeric pixel token b'x'"),
            (b"P5\n1 1\n255", "missing raster separator"),
            (b"P5\n1 1\n255#c\n\x00", "missing raster separator"),
            (b"P5\n0 1\n255\n", "bad dimensions 0x1"),
            (b"P5\n1 0\n255\n", "bad dimensions 1x0"),
            # maxval 254 leaves one byte value, 255, above it
            (b"P5\n2 1\n254\n\xfe\xff", "pixel value 255 outside [0, 254]"),
        ],
    )
    def test_rejection_message_names_the_fault(self, data, message):
        with pytest.raises(PgmError) as err:
            load_pgm(data)
        assert str(err.value) == message

    def test_write_read_round_trip(self):
        rng = random.Random(99)
        for maxval in (255, 65535):
            q = maxval.bit_length()
            img = random_image(rng, 4, q)
            assert load_pgm(write_pgm(img, binary=True)) == img
            assert load_pgm(write_pgm(img, binary=False)) == img


class TestValidatePair:
    def test_sample_pair_dims(self):
        big, small = sample_pair()
        dims = validate_pair(big, small)
        assert (dims.n, dims.m, dims.bit_depth, dims.side) == (2, 1, 8, 4)

    def test_smallest_legal_pair(self):
        dims = validate_pair(
            load_pgm(p2_bytes(2, 2, 3, [0, 1, 2, 3])), load_pgm(p2_bytes(1, 1, 3, [2]))
        )
        assert (dims.n, dims.m, dims.side) == (1, 0, 2)

    def test_equal_sides_rejected(self):
        img = load_pgm(p2_bytes(4, 4, 255, list(range(16))))
        with pytest.raises(ValidationError):
            validate_pair(img, img)

    def test_non_square_rejected(self):
        wide = load_pgm(p2_bytes(4, 2, 255, list(range(8))))
        small = load_pgm(p2_bytes(2, 2, 255, [0, 1, 2, 3]))
        with pytest.raises(ValidationError):
            validate_pair(wide, small)

    def test_non_power_of_two_rejected(self):
        odd = load_pgm(p2_bytes(3, 3, 255, list(range(9))))
        small = load_pgm(p2_bytes(1, 1, 255, [0]))
        with pytest.raises(ValidationError, match=r"^big image side must be a power of two >= 1, got 3$"):
            validate_pair(odd, small)

    def test_swapped_legal_pair_always_fails(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 3)
            m = rng.randint(0, n - 1)
            big = random_image(rng, 1 << n, 4)
            small = random_image(rng, 1 << m, 4)
            validate_pair(big, small)
            with pytest.raises(ValidationError):
                validate_pair(small, big)

    def test_mixed_bit_depths_widened(self):
        big = load_pgm(p2_bytes(4, 4, 255, [7] * 16))
        small = load_pgm(p2_bytes(2, 2, 3, [3, 0, 1, 2]))
        dims = validate_pair(big, small)
        assert dims.bit_depth == 8


class TestEncode:
    def test_position_convention_row_major(self):
        # row y, column x of the raster as written is position k = y * 4 + x
        big, _ = sample_pair()
        rows = [line.split() for line in SAMPLE_BIG_PGM.decode().splitlines()[3:]]
        for y in range(4):
            for x in range(4):
                assert big.array[y * 4 + x] == int(rows[y][x])


def per_pixel_pgm(img, binary):
    """PGM bytes written one pixel at a time, as the serializer did over tuples."""
    maxval = (1 << img.bit_depth) - 1
    header = f"{'P5' if binary else 'P2'}\n{img.width} {img.height}\n{maxval}\n".encode()
    values = img.array.tolist()
    if not binary:
        rows = [" ".join(str(v) for v in values[y * img.width : (y + 1) * img.width])
                for y in range(img.height)]
        return header + ("\n".join(rows) + "\n").encode()
    if maxval > 255:
        return header + b"".join(v.to_bytes(2, "big") for v in values)
    return header + bytes(values)


class TestPixelArray:
    @pytest.mark.parametrize("bit_depth,dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16)])
    def test_storage_is_a_read_only_native_array(self, bit_depth, dtype):
        top = (1 << bit_depth) - 1
        img = Image(2, 2, bit_depth, (0, top, top // 2, 1))
        assert img.array.dtype == dtype and img.array.dtype.isnative
        assert not img.array.flags.writeable
        assert img.array.tolist() == [0, top, top // 2, 1]
        assert all(type(v) is int for v in img.array.tolist())
        assert img.array[0 * 2 + 1] == top  # (x=1, y=0)
        with pytest.raises(ValueError):
            img.array[0] = 1

    def test_equality_follows_the_values(self):
        a = Image(2, 2, 4, (1, 2, 3, 4))
        assert a == Image(2, 2, 4, [1, 2, 3, 4]) == Image(2, 2, 4, np.array([1, 2, 3, 4]))
        with pytest.raises(TypeError):
            hash(a)  # nothing hashes an image, and a hash would copy every pixel
        assert a != Image(2, 2, 4, (1, 2, 3, 5))
        assert a != Image(2, 2, 5, (1, 2, 3, 4))
        assert a != Image(4, 1, 4, (1, 2, 3, 4))
        assert a != (1, 2, 3, 4)

    @pytest.mark.parametrize("bit_depth", [0, 17])
    def test_bit_depth_outside_1_to_16_rejected(self, bit_depth):
        with pytest.raises(ValueError, match=rf"^bit depth must be an integer in \[1, 16\], got {bit_depth}$"):
            Image(1, 1, bit_depth, [0])

    @pytest.mark.parametrize("width, height, bit_depth, pixels, message", [
        (2.0, 2.0, 8, [0, 1, 1, 0], r"^width must be an integer in \[0, inf\], got 2.0$"),
        (2, 2.0, 8, [0, 1, 1, 0], r"^height must be an integer in \[0, inf\], got 2.0$"),
        (-1, -1, 8, [0], r"^width must be an integer in \[0, inf\], got -1$"),
        (True, True, 8, [0], r"^width must be an integer in \[0, inf\], got True$"),
        (2, 2, 8.0, [0, 1, 1, 0], r"^bit depth must be an integer in \[1, 16\], got 8.0$"),
        (2, 2, True, [0, 1, 1, 0], r"^bit depth must be an integer in \[1, 16\], got True$"),
    ], ids=["float", "float-height", "negative", "bool", "float-depth", "bool-depth"])
    def test_sizes_and_depth_are_counts(self, width, height, bit_depth, pixels, message):
        # the pixel count fits each product, so only the size rule refuses the image
        with pytest.raises(ValidationError, match=message):
            Image(width, height, bit_depth, pixels)

    def test_numpy_sizes_are_stored_as_ints(self):
        img = Image(np.int64(2), np.int32(2), np.uint8(8), [160, 164, 164, 165])
        assert img == Image(2, 2, 8, [160, 164, 164, 165])
        assert all(type(v) is int for v in (img.width, img.height, img.bit_depth))
        big = Image(np.int64(4), np.int64(4), np.int64(8), sample_pair()[0].array)
        outcome = pipeline.match(big, img)
        assert outcome.final.top_index() == 5 and outcome.dims.n == 2

    @pytest.mark.parametrize("pixels", [(0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 16), (0, -1, 2, 3)])
    def test_bad_pixels_rejected(self, pixels):
        with pytest.raises(ValueError):
            Image(2, 2, 4, pixels)

    @pytest.mark.parametrize("pixels", [[1.5, 2.7], [1.0, 2.0], ["3", "4"], [2**70, 0], [None, 1],
                                        np.array([1.0, 2.0])],
                             ids=["fractions", "whole-floats", "strings", "past-64-bits", "none", "float-array"])
    def test_pixels_that_are_not_integers_rejected(self, pixels):
        with pytest.raises(ValueError, match="^pixels must be integers, got dtype "):
            Image(2, 1, 8, pixels)

    def test_bools_and_the_empty_sequence_accepted(self):
        assert Image(2, 1, 1, [True, False]).array.tolist() == [1, 0]
        assert Image(2, 1, 8, np.array([True, False])).array.tolist() == [1, 0]
        assert Image(0, 0, 8, []).array.tolist() == []

    @pytest.mark.parametrize("bit_depth,dtype,value", [(4, np.uint8, 200), (1, np.uint8, 2),
                                                       (12, np.uint16, 4096)])
    def test_shared_array_narrower_than_its_dtype_is_range_checked(self, bit_depth, dtype, value):
        shared = np.array([0, 1, value, 0], dtype=dtype)
        shared.flags.writeable = False
        with pytest.raises(ValueError, match=f"pixel value {value} outside"):
            Image(2, 2, bit_depth, shared)

    def test_out_of_range_messages_name_the_bad_value(self):
        # A shared unsigned array skips the search for negatives; a 12-bit P5
        # above maxval and a negative int in a sequence are still rejected.
        with pytest.raises(PgmError, match=r"^pixel value 4096 outside \[0, 4095\]$"):
            load_pgm(p5_bytes(2, 2, 4095, [0, 4096, 1, 2]))
        with pytest.raises(ValueError, match=r"^pixel value -1 outside \[0, 4095\]$"):
            Image(2, 2, 12, [-1, 0, 1, 2])
        with pytest.raises(ValueError, match=r"^pixel value -1 outside \[0, 15\]$"):
            Image(2, 2, 4, np.array([-1, 0, 1, 16]))

    def test_caller_arrays_are_copied_unless_read_only(self):
        mine = np.array([5, 6, 7, 8], dtype=np.uint8)
        img = Image(2, 2, 8, mine)
        mine[0] = 0
        assert img.array.tolist() == [5, 6, 7, 8] and mine.flags.writeable
        mine.flags.writeable = False
        assert Image(2, 2, 8, mine).array is mine

    def test_p5_decodes_straight_from_the_stream(self):
        data = p5_bytes(2, 2, 255, [1, 2, 3, 4])
        img = load_pgm(data)
        assert np.shares_memory(img.array, np.frombuffer(data, dtype=np.uint8))
        mutable = bytearray(data)
        img = load_pgm(mutable)
        mutable[-1] = 99
        assert img.array.tolist() == [1, 2, 3, 4]

    def test_sixteen_bit_p5_becomes_native(self):
        img = load_pgm(p5_bytes(2, 1, 65535, [0x0102, 0xFFFE]))
        assert img.array.dtype == np.uint16 and img.array.dtype.isnative
        assert img.array.tolist() == [258, 65534]
        assert not img.array.flags.writeable

    def test_p2_load_holds_no_int64_copy(self):
        # The pixel list takes 8 B a pixel and the split lines about twice the
        # text; an int64 copy of the list would add 8 B a pixel more.
        img = Image(512, 512, 8, np.random.default_rng(5).integers(0, 256, 512 * 512))
        data = write_pgm(img, binary=False)
        tracemalloc.start()
        try:
            loaded = load_pgm(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded == img
        assert peak < 15 * 512 * 512

    def test_load_memory_stays_under_twice_the_raster(self):
        raster = np.random.default_rng(3).integers(0, 1 << 16, size=1 << 20).astype(">u2").tobytes()
        data = b"P5\n1024 1024\n65535\n" + raster
        tracemalloc.start()
        try:
            img = load_pgm(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert img.array.nbytes == len(raster)
        assert peak < 2 * len(raster)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_sixteen_bit_decode_across_the_chunk_edge(self, extra):
        # A 3-byte header comment moves the raster from an odd offset to an even
        # one; the reference reads each pixel's two big-endian bytes by hand.
        count = _DECODE_CHUNK + extra
        raster = random.Random(count).randbytes(2 * count)
        want = [raster[2 * k] << 8 | raster[2 * k + 1] for k in range(count)]
        offsets = set()
        for comment in (b"", b"#x\n"):
            header = b"P5\n%d 1\n" % count + comment + b"65535\n"
            img = load_pgm(header + raster)
            assert img.array.dtype == np.uint16 and not img.array.flags.writeable
            assert img.array.tolist() == want
            offsets.add(len(header) % 2)
        assert offsets == {0, 1}

    def test_sixteen_bit_range_check_names_the_first_bad_value_past_the_first_chunk(self):
        values = [7] * (_DECODE_CHUNK + 3)
        values[_DECODE_CHUNK + 1], values[_DECODE_CHUNK + 2] = 65001, 65002
        with pytest.raises(PgmError, match=r"^pixel value 65001 outside \[0, 65000\]$"):
            load_pgm(p5_bytes(len(values), 1, 65000, values))

    @pytest.mark.parametrize("bit_depth", [1, 3, 8, 9, 12, 16])
    def test_write_matches_the_per_pixel_serializer(self, bit_depth):
        rng = random.Random(bit_depth)
        for width, height in [(1, 1), (3, 2), (8, 8)]:
            top = (1 << bit_depth) - 1
            img = Image(width, height, bit_depth, [rng.randint(0, top) for _ in range(width * height)])
            for binary in (True, False):
                assert write_pgm(img, binary) == per_pixel_pgm(img, binary)


class TestAsSide:
    def test_a_float_is_refused(self):
        with pytest.raises(ValidationError, match=r"^x must be a power of two >= 1, got 2\.5$"):
            as_side(2.5, "x", 1)

    def test_the_limit_is_inclusive(self):
        high = 1 << 537
        assert as_side(high, "x", 1, high) == high
        with pytest.raises(ValidationError, match=r"^x 2\^538 is past the float64 limit 2\^537$"):
            as_side(2 * high, "x", 1, high)
