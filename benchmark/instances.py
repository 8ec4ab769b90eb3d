"""Seeded matching instances for the benchmark, written as binary PGM files.

Every instance is a big square image with one small image planted at a
random valid block position.  The small image's top-left pixel (the anchor)
is the only value the marking predicate compares, so the generator controls
where that value occurs in the big image:

* ``anchors=1``: the anchor value occurs once in the big image, at the
  planted position.
* ``anchors=4``: it occurs at the planted position and at three decoy block
  positions (x, y <= side - small side) whose blocks differ from the small
  image, so exactly one block is a full-block match.

:func:`make_instance` checks these promises with numpy before returning and
raises :class:`InstanceError` if one does not hold, whatever the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class InstanceError(RuntimeError):
    """A generated instance breaks one of the promises it was made with."""


@dataclass(frozen=True)
class Instance:
    big: np.ndarray
    small: np.ndarray
    bit_depth: int
    plant: tuple[int, int]
    """(x, y) of the planted block's upper-left corner."""

    @property
    def side(self) -> int:
        return self.big.shape[0]

    @property
    def anchor_value(self) -> int:
        return int(self.small[0, 0])

    @property
    def plant_index(self) -> int:
        x, y = self.plant
        return y * self.side + x


def anchor_positions(big: np.ndarray, small: np.ndarray) -> list[list[int]]:
    """[x, y] of every big pixel equal to the small image's top-left pixel, raster order."""
    ys, xs = np.nonzero(big == small[0, 0])
    return [[int(x), int(y)] for y, x in zip(ys, xs)]


def full_block_positions(big: np.ndarray, small: np.ndarray) -> list[list[int]]:
    """[x, y] of every block of ``big`` equal to ``small``, raster order."""
    windows = sliding_window_view(big, small.shape)
    ys, xs = np.nonzero(np.all(windows == small, axis=(2, 3)))
    return [[int(x), int(y)] for y, x in zip(ys, xs)]


def make_instance(
    rng: np.random.Generator, side: int, small_side: int, bit_depth: int, anchors: int
) -> Instance:
    """Draw one instance from ``rng`` (see the module docstring for ``anchors``)."""
    if anchors not in (1, 4):
        raise ValueError(f"anchors must be 1 or 4, got {anchors}")
    levels = 1 << bit_depth
    span = side - small_side
    big = rng.integers(0, levels, size=(side, side), dtype=np.int64)
    small = rng.integers(0, levels, size=(small_side, small_side), dtype=np.int64)
    anchor = int(small[0, 0])
    other = (anchor + 1) % levels
    small[small == anchor] = other
    small[0, 0] = anchor
    big[big == anchor] = other
    px, py = (int(v) for v in rng.integers(0, span + 1, size=2))
    big[py : py + small_side, px : px + small_side] = small

    decoys: list[tuple[int, int]] = []
    while len(decoys) < anchors - 1:
        x, y = (int(v) for v in rng.integers(0, span + 1, size=2))
        inside_plant = px <= x < px + small_side and py <= y < py + small_side
        if not inside_plant and (x, y) not in decoys:
            decoys.append((x, y))
    for x, y in decoys:
        big[y, x] = anchor

    inst = Instance(big=big, small=small, bit_depth=bit_depth, plant=(px, py))
    check_instance(inst, anchors)
    return inst


def check_instance(inst: Instance, anchors: int) -> None:
    """Raise :class:`InstanceError` unless ``inst`` keeps its promises."""
    found = anchor_positions(inst.big, inst.small)
    span = inst.side - inst.small.shape[0]
    if len(found) != anchors:
        raise InstanceError(f"expected {anchors} anchor position(s), found {len(found)}")
    if list(inst.plant) not in found:
        raise InstanceError(f"planted position {inst.plant} is not an anchor")
    if any(x > span or y > span for x, y in found):
        raise InstanceError(f"anchor outside the valid block positions: {found}")
    blocks = full_block_positions(inst.big, inst.small)
    if blocks != [list(inst.plant)]:
        raise InstanceError(f"expected one full-block match at {inst.plant}, found {blocks}")


def write_pgm(path: Path, pixels: np.ndarray, bit_depth: int) -> None:
    """Write a P5 file: one byte per pixel up to 8 bits, two big-endian bytes above."""
    maxval = (1 << bit_depth) - 1
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n{maxval}\n".encode()
    raster = pixels.astype(">u2" if bit_depth > 8 else "u1").tobytes()
    path.write_bytes(header + raster)


def write_pair(inst: Instance, big_path: Path, small_path: Path) -> None:
    write_pgm(big_path, inst.big, inst.bit_depth)
    write_pgm(small_path, inst.small, inst.bit_depth)
