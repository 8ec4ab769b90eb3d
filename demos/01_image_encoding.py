"""Loading PGM images and reading them as uniform superposition tables.

Walks through the input layer: parsing P2/P5 streams, validating a (big,
small) pair, and reading each image's row-major pixel array as its
position-indexed table (the GQIR encoding).
"""

from qimatch import load_pgm, write_pgm
from qimatch.images import validate_pair
from qimatch.sample import SAMPLE_BIG_PGM, SAMPLE_SMALL_PGM

big = load_pgm(SAMPLE_BIG_PGM)
small = load_pgm(SAMPLE_SMALL_PGM)

print("parsed big image :", big.width, "x", big.height, "bit depth", big.bit_depth)
print("parsed small image:", small.width, "x", small.height, "bit depth", small.bit_depth)
print()

print("big image pixels (row-major):")
for row in big.array.reshape(big.height, big.width).tolist():
    print("   ", " ".join(f"{v:3d}" for v in row))
print("small image pixels:")
for row in small.array.reshape(small.height, small.width).tolist():
    print("   ", " ".join(f"{v:3d}" for v in row))
print()

dims = validate_pair(big, small)
print(f"validated pair: n={dims.n}, m={dims.m}, side={dims.side}, "
      f"bit depth {dims.bit_depth}")
print()

print(f"encoded big image: {len(big.array)} entries, each with amplitude "
      f"{1 / dims.side}")
print("first entries (position k -> intensity), position k = y*side + x:")
for k, value in enumerate(big.array[:6].tolist()):
    x, y = k % dims.side, k // dims.side
    print(f"    k={k:2d} (x={x}, y={y}) -> {value}")
print()

# the binary and ASCII serializations parse back to the same image
assert load_pgm(write_pgm(big, binary=True)) == big
assert load_pgm(write_pgm(big, binary=False)) == big
print("write/read round trip holds for both P5 and P2 serializations")
