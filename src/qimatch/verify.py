"""Independent verification oracles for the marking stage.

Two deliberately separate routes exist to cross-check the structured
simulation in :mod:`qimatch.marking`:

* a dense statevector simulator that lays out the full qubit register
  (kickback ancilla, flag, both intensity registers, both position registers)
  and applies the comparison CNOTs and the multi-controlled flag flip as
  explicit gate passes over the whole vector, and
* the exhaustive classical matcher, scanning pixel grids with no quantum
  bookkeeping at all.

The dense route is exponential in every register width, so construction is
capped (default 22 qubits, a 32 MiB vector); it exists for small instances
only.  The classical matcher has two modes: FULL_BLOCK is the engineering
ground truth (the whole small image must match a block of the big image);
ANCHOR_PIXEL reproduces what the marking circuit actually tests, namely
equality of single big-image pixels with the small image's top-left pixel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .images import GqirImage, Image, MatchDims, validate_pair

DEFAULT_QUBIT_CAP = 22

AMPLITUDE_EPS = 1e-12


@dataclass(frozen=True)
class RegisterLayout:
    """Bit offsets (from the LSB) of each register inside a basis index.

    Order from most to least significant: kickback ancilla, flag, big
    intensity, big position, small intensity, small position.
    """

    bit_depth: int
    n: int
    m: int

    @property
    def pos_b(self) -> tuple[int, int]:
        return 0, 2 * self.m

    @property
    def val_b(self) -> tuple[int, int]:
        return 2 * self.m, self.bit_depth

    @property
    def pos_a(self) -> tuple[int, int]:
        return 2 * self.m + self.bit_depth, 2 * self.n

    @property
    def val_a(self) -> tuple[int, int]:
        return 2 * self.m + self.bit_depth + 2 * self.n, self.bit_depth

    @property
    def flag(self) -> tuple[int, int]:
        return 2 * self.m + 2 * self.bit_depth + 2 * self.n, 1

    @property
    def kick(self) -> tuple[int, int]:
        return 2 * self.m + 2 * self.bit_depth + 2 * self.n + 1, 1

    @property
    def total_qubits(self) -> int:
        return 2 + 2 * self.bit_depth + 2 * self.n + 2 * self.m

    def field(self, indices: np.ndarray, register: tuple[int, int]) -> np.ndarray:
        offset, width = register
        return (indices >> offset) & ((1 << width) - 1)


@dataclass(frozen=True)
class DenseState:
    layout: RegisterLayout
    amplitudes: np.ndarray

    def norm_squared(self) -> float:
        return float(np.sum(self.amplitudes * self.amplitudes))


def apply_cnot(amplitudes: np.ndarray, control: int, target: int) -> np.ndarray:
    """Flip the target bit of every basis state whose control bit is set."""
    idx = np.arange(len(amplitudes))
    src = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return amplitudes[src]


def apply_controlled_flip(
    amplitudes: np.ndarray, predicate: np.ndarray, target: int
) -> np.ndarray:
    """Flip the target bit wherever the basis-state predicate holds.

    The predicate must be invariant under flipping the target bit (controls
    never include the target), so this is a permutation of the amplitudes.
    """
    idx = np.arange(len(amplitudes))
    src = np.where(predicate, idx ^ (1 << target), idx)
    return amplitudes[src]


def dense_simulate_marking(
    big: GqirImage, small: GqirImage, qubit_cap: int = DEFAULT_QUBIT_CAP
) -> DenseState:
    """Gate-level dense simulation of the compare-and-mark stage.

    Prepares the product of the kickback ancilla (|0> - |1>)/sqrt(2), the flag
    at 0, and the two uniform image superpositions, then applies one CNOT per
    intensity bit plane followed by the multi-controlled flag flip.  Agrees
    branch for branch with the structured simulation.
    """
    if big.bit_depth != small.bit_depth:
        raise ValueError("images must share a bit depth")
    layout = RegisterLayout(bit_depth=big.bit_depth, n=big.side_log2, m=small.side_log2)
    if layout.total_qubits > qubit_cap:
        raise ValueError(
            f"instance needs {layout.total_qubits} qubits, cap is {qubit_cap}"
        )
    size = 1 << layout.total_qubits
    amps = np.zeros(size)

    na, nb = 1 << (2 * layout.n), 1 << (2 * layout.m)
    pos_a = np.repeat(np.arange(na, dtype=np.int64), nb)
    pos_b = np.tile(np.arange(nb, dtype=np.int64), na)
    val_a = np.repeat(np.asarray(big.values, dtype=np.int64), nb)
    val_b = np.tile(np.asarray(small.values, dtype=np.int64), na)
    base = (
        (val_a << layout.val_a[0])
        | (pos_a << layout.pos_a[0])
        | (val_b << layout.val_b[0])
        | (pos_b << layout.pos_b[0])
    )
    weight = 1.0 / ((1 << (layout.n + layout.m)) * math.sqrt(2.0))
    amps[base] = weight
    amps[base | (1 << layout.kick[0])] = -weight

    for bit in range(layout.bit_depth):
        amps = apply_cnot(amps, control=layout.val_b[0] + bit, target=layout.val_a[0] + bit)

    idx = np.arange(size)
    predicate = (layout.field(idx, layout.val_a) == 0) & (layout.field(idx, layout.pos_b) == 0)
    amps = apply_controlled_flip(amps, predicate, target=layout.flag[0])
    return DenseState(layout=layout, amplitudes=amps)


def dense_marked_set(state: DenseState) -> set[int]:
    """Big-image positions of basis states with the flag raised and weight present."""
    idx = np.arange(len(state.amplitudes))
    flagged = (state.layout.field(idx, state.layout.flag) == 1) & (
        np.abs(state.amplitudes) > AMPLITUDE_EPS
    )
    return set(int(k) for k in np.unique(state.layout.field(idx[flagged], state.layout.pos_a)))


# ---------------------------------------------------------------------------
# Exhaustive classical matcher
# ---------------------------------------------------------------------------


class MatchMode(enum.Enum):
    FULL_BLOCK = "full_block"
    ANCHOR_PIXEL = "anchor_pixel"


@dataclass(frozen=True)
class MatchResult:
    """Locations are (x, y) of the candidate upper-left corner, raster order."""

    locations: tuple[tuple[int, int], ...]
    mode: MatchMode
    comparisons: int


def classical_match(big: Image, small: Image, mode: MatchMode) -> MatchResult:
    """Exhaustive pixel scan of the big image for the small image.

    FULL_BLOCK compares every pixel of every candidate block (no early exit,
    so the comparison count is exactly block_size * candidate_count), one
    pass over all candidate corners per small-image pixel.  ANCHOR_PIXEL
    compares every big pixel against the small image's (0, 0) pixel, 4**n
    comparisons total.
    """
    dims: MatchDims = validate_pair(big, small)
    a = np.asarray(big.pixels, dtype=np.int64).reshape(big.height, big.width)
    b = np.asarray(small.pixels, dtype=np.int64).reshape(small.height, small.width)
    if mode is MatchMode.ANCHOR_PIXEL:
        hits = a == b[0, 0]
        comparisons = a.size
    else:
        span = dims.side - small.width + 1
        hits = np.ones((span, span), dtype=bool)
        for dy, dx in np.ndindex(b.shape):
            hits &= a[dy : dy + span, dx : dx + span] == b[dy, dx]
        comparisons = b.size * span * span
    ys, xs = np.nonzero(hits)
    locations = tuple((int(x), int(y)) for y, x in zip(ys, xs))
    return MatchResult(locations=locations, mode=mode, comparisons=comparisons)
