"""Independent verification oracles.

Two deliberately separate routes find the marked set that the hot path's
:func:`qimatch.marking.anchors` computes in one pass:

* a dense statevector simulator that lays out the full qubit register
  (kickback ancilla, flag, both intensity registers, both position registers)
  and applies the comparison CNOTs and the multi-controlled flag flip as
  explicit gate passes over the whole vector, and
* the exhaustive classical matcher, scanning pixel grids with no quantum
  bookkeeping at all.

Three more check :mod:`qimatch.grover`: the full-vector amplification engine
(:func:`run_grover` and its parts), O(rounds * 4**n),
:func:`closed_form_iterations`, the planning quartic's radical root in
complex floats, and :func:`closed_form_pair`, the single-mark recurrence's
values as Chebyshev polynomials.  Tests compare them with the closed form,
the exact plan and :func:`qimatch.grover.recurrence_step`.

Every route takes the two :class:`~qimatch.images.Image` objects.  The dense
route is exponential in every register width (each as wide as the pair's
wider bit depth), so construction is capped (at 22 qubits, a 32 MiB
vector); it exists for small instances only.  The classical matcher runs at
any width and has two modes: FULL_BLOCK is the engineering ground truth (the
whole small image must match a block of the big image); ANCHOR_PIXEL
reproduces what the marking circuit actually tests, namely equality of single
big-image pixels with the small image's top-left pixel.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import grover
from .images import Image, MatchDims, _frozen, validate_pair

DEFAULT_QUBIT_CAP = 22

AMPLITUDE_EPS = 1e-12

RADICAL_IMAG_TOL = 1e-6


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
    control_set = (np.arange(len(amplitudes)) >> control) & 1 == 1
    return apply_controlled_flip(amplitudes, control_set, target)


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


def dense_simulate_marking(big: Image, small: Image) -> DenseState:
    """Gate-level dense simulation of the compare-and-mark stage.

    Prepares the product of the kickback ancilla (|0> - |1>)/sqrt(2), the flag
    at 0, and the two uniform image superpositions, then applies one CNOT per
    intensity bit plane followed by the multi-controlled flag flip.  Every
    (pos_a, pos_b) branch then holds the difference A[pos_a] ^ B[pos_b] and a
    flag raised where that is 0 and pos_b is 0, at any mix of bit depths.
    ValueError past :data:`DEFAULT_QUBIT_CAP` qubits.
    """
    dims = validate_pair(big, small)
    layout = RegisterLayout(bit_depth=dims.bit_depth, n=dims.n, m=dims.m)
    if layout.total_qubits > DEFAULT_QUBIT_CAP:
        raise ValueError(
            f"instance needs {layout.total_qubits} qubits, cap is {DEFAULT_QUBIT_CAP}"
        )
    size = 1 << layout.total_qubits
    amps = np.zeros(size)

    na, nb = 1 << (2 * layout.n), 1 << (2 * layout.m)
    pos_a = np.repeat(np.arange(na, dtype=np.int64), nb)
    pos_b = np.tile(np.arange(nb, dtype=np.int64), na)
    val_a = np.repeat(np.asarray(big.array, dtype=np.int64), nb)
    val_b = np.tile(np.asarray(small.array, dtype=np.int64), na)
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
    comparisons: int


def classical_match(big: Image, small: Image, mode: MatchMode) -> MatchResult:
    """Exhaustive pixel scan of the big image for the small image.

    FULL_BLOCK compares every pixel of every candidate block (no early exit,
    so the comparison count is exactly block_size * candidate_count), one
    pass over all candidate corners per small-image pixel.  ANCHOR_PIXEL
    compares every big pixel against the small image's (0, 0) pixel, 4**n
    comparisons total.  Either way every candidate is scanned, so
    ``comparisons`` is exact, and locations come out in raster order.

    This is the oracle: ``match --verify`` finds the same locations from the
    marked set with :func:`qimatch.marking.block_matches`, and the tests
    compare the two.
    """
    dims: MatchDims = validate_pair(big, small)
    a = big.array.reshape(big.height, big.width)
    b = small.array.reshape(small.height, small.width)
    if mode is MatchMode.ANCHOR_PIXEL:
        hits = a == b[0, 0]
        comparisons = a.size
    else:
        span = dims.side - small.width + 1
        hits = np.ones((span, span), dtype=bool)
        for dy, dx in np.ndindex(b.shape):
            hits &= a[dy : dy + span, dx : dx + span] == b[dy, dx]
        comparisons = b.size * span * span
    # Flat indices keep raster order; the hit grid is span wide (side for anchors).
    ys, xs = np.divmod(np.flatnonzero(hits), hits.shape[1])
    locations = tuple(zip(xs.tolist(), ys.tolist()))
    return MatchResult(locations=locations, comparisons=comparisons)


# ---------------------------------------------------------------------------
# Amplification and planning oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceState:
    """Real amplitude vector over the 4**n position states plus marked set.

    ``ops`` counts amplitude-element updates performed so far (phase flip
    touches one element per marked index; diffusion reads and rewrites the
    whole vector, 2 * 4**n element-ops per round).  It is carried along so
    work growth can be asserted without timing anything.
    """

    n: int
    amplitudes: np.ndarray
    marked: frozenset[int]
    ops: int = 0

    @property
    def size(self) -> int:
        return len(self.amplitudes)

    def norm_squared(self) -> float:
        return float(np.sum(self.amplitudes * self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return self.amplitudes * self.amplitudes


def init_subspace(n: int, marked: Iterable[int]) -> SubspaceState:
    """Uniform state over 4**n position indices with the given marked set.

    Every amplitude is 1/2**n regardless of how many indices are marked; the
    marking stage only decides *which* indices get their phase flipped.
    """
    size = 1 << (2 * n)
    marks = frozenset(int(k) for k in marked)
    for k in marks:
        if not 0 <= k < size:
            raise ValueError(f"marked index {k} out of range [0, {size})")
    return SubspaceState(
        n=n,
        amplitudes=_frozen(np.full(size, 1.0 / (1 << n))),
        marked=marks,
        ops=0,
    )


def phase_flip(state: SubspaceState) -> SubspaceState:
    """Negate the amplitude of every marked index (phase rotation by pi)."""
    amps = state.amplitudes.copy()
    idx = sorted(state.marked)
    amps[idx] = -amps[idx]
    return replace(state, amplitudes=_frozen(amps), ops=state.ops + len(idx))


def diffuse(state: SubspaceState) -> SubspaceState:
    """Invert every amplitude about the mean: s -> 2*mean - s.

    Equal to applying the matrix with 2/4**n everywhere and 2/4**n - 1 on the
    diagonal, and to the Hadamard-conjugated reflection about the all-zero
    state.  The mean uses numpy's pairwise summation, so results are
    deterministic and independent of any internal parallelism.
    """
    mean = float(np.sum(state.amplitudes)) / state.size
    amps = 2.0 * mean - state.amplitudes
    return replace(state, amplitudes=_frozen(amps), ops=state.ops + 2 * state.size)


def run_grover(state: SubspaceState, iterations: int) -> SubspaceState:
    """Apply (phase flip, diffuse) the requested number of times."""
    if iterations < 0:
        raise ValueError("iteration count must be non-negative")
    for _ in range(iterations):
        state = diffuse(phase_flip(state))
    return state


def sample_measurement(state: SubspaceState, seed: int, samples: int) -> dict[int, int]:
    """Draw position indices i.i.d. with probability amplitude**2.

    Deterministic for a fixed seed.  Returns a sparse histogram mapping index
    to observed count (indices never drawn are omitted).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    probs = state.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(state.size, size=samples, p=probs)
    counts = np.bincount(draws, minlength=state.size)
    return {int(i): int(c) for i, c in enumerate(counts) if c > 0}


def closed_form_iterations(a: int) -> complex:
    """Ferrari's radical for the planning quartic's relevant root.

    -b/4 + S - sqrt(-4S**2 - 2p - q/S)/2 for x**4 + bx**3 + cx**2 + dx + e,
    with q = (b**3 - 4bc + 8d)/8 (3 at every side), in complex arithmetic
    and principal roots.  An oracle for the planner's exact integer search:
    the real part is the root to about 1e-15 relative, and its ceiling is the
    planned count at every power of two from 2 to 2**44, but from side 2**32
    on the imaginary part exceeds :data:`RADICAL_IMAG_TOL`.
    """
    c = 2.0 - 3.0 * a * a
    d = -1.0 - 6.0 * a * a
    e = 1.5 * a**4 - 1.5 * a * a
    b = 4.0
    q = (b**3 - 4 * b * c + 8 * d) / 8
    alpha = c * c - 3 * b * d + 12 * e
    beta = 2 * c**3 - 9 * b * c * d + 27 * d * d + 27 * b * b * e - 72 * c * e
    inner = cmath.sqrt(complex(beta * beta - 4 * alpha**3))
    cube = (beta + inner) ** (1.0 / 3.0)
    big_a = 2 ** (1.0 / 3.0) * alpha / (3.0 * cube)
    big_b = cube / (3.0 * 2 ** (1.0 / 3.0))
    s = 0.5 * cmath.sqrt(4.0 - (2.0 / 3.0) * c + big_a + big_b)
    return -1.0 + s - 0.5 * cmath.sqrt(8.0 - (4.0 / 3.0) * c - big_a - big_b - q / s)


def _chebyshev(x: grover.Amplitude, first: grover.Amplitude, k: int) -> grover.Amplitude:
    """P_k(x) for k >= 1, with P_0 = 1, P_1 = ``first`` and P_j+1 = 2x*P_j - P_j-1.

    ``first`` = x gives the Chebyshev polynomial T_k, ``first`` = 2x gives U_k.
    """
    prev, cur = 1, first
    for _ in range(k - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def closed_form_pair(i: int, side: int | Fraction) -> grover.AmplitudePair:
    """The recurrence's values after round i >= 1, as polynomials in x = 1/side.

    With sin(theta) = x, marked = sin((2i+1)*theta) = (-1)**i * T_2i+1(x) and
    unmarked = cos((2i+1)*theta)/sqrt(side**2 - 1) = (-1)**i * x * U_2i(x),
    for example 3x - 4x**3 and x - 4x**3 at i = 1.  ``side`` may be an int,
    float, or Fraction; division follows the input type, so Fraction input
    yields exact output for every i.
    """
    if i < 1:
        raise ValueError(f"closed form needs round i >= 1, got {i}")
    x = 1 / side
    sign = -1 if i % 2 else 1
    return grover.AmplitudePair(
        unmarked=sign * x * _chebyshev(x, 2 * x, 2 * i),
        marked=sign * _chebyshev(x, x, 2 * i + 1),
        iteration=i,
        side=int(side),
    )
