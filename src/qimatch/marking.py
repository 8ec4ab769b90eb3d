"""Structured simulation of the compare-and-mark stage.

The entangled register over both images is a uniform superposition over
every (big position, small position) pair, so it is held as the two images'
own intensity arrays, the dimensions :func:`~qimatch.images.validate_pair`
gives and the stage reached: O(4**n + 4**m) numbers, not one entry per
branch.  Each branch is computed on demand.  Its two intensity registers start
as ``big[pos_a]`` and ``small[pos_b]``.  The comparison step XORs the small
intensity into the big intensity register (a ladder of CNOTs, one per bit
plane).  The marking step raises the flag on branches whose difference
register is all-zero while the small position register is zero.  The
phase-kickback ancilla is untouched by both steps and is therefore not
represented here; it only matters once amplification flips signs, which the
:mod:`qimatch.grover` engine realizes directly.

Amplitudes are real throughout: every state reachable by this circuit family
from a real initial state stays real, and here every branch keeps the
amplitude 1/2**(n+m).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .images import Image, MatchDims, _frozen, validate_pair


class Stage(enum.Enum):
    PREPARED = "prepared"
    COMPARED = "compared"
    MARKED = "marked"


class StageError(RuntimeError):
    """Operation applied to a state in the wrong pipeline stage."""


@dataclass(frozen=True)
class Branch:
    """One basis branch: flag, both intensity registers, both positions."""

    flag: int
    val_a: int
    pos_a: int
    val_b: int
    pos_b: int
    amplitude: float


@dataclass(frozen=True)
class JointState:
    """Joint state over 4**n * 4**m branches, held as the two images and a stage.

    ``big`` and ``small`` are the two images' own read-only unsigned
    intensity arrays, indexed by position.  A branch is read through
    :meth:`branch` or :meth:`branches`, one at a time; nothing here builds an
    array with one entry per branch.
    """

    dims: MatchDims
    big: np.ndarray
    small: np.ndarray
    stage: Stage

    @property
    def branch_count(self) -> int:
        return len(self.big) * len(self.small)

    @property
    def _weight(self) -> float:
        return 1.0 / (1 << (self.dims.n + self.dims.m))

    def norm_squared(self) -> float:
        # Every branch carries the same power-of-two weight, so this is exact.
        return self.branch_count * self._weight * self._weight

    def branches(self) -> Iterator[Branch]:
        for pos_a in range(len(self.big)):
            for pos_b in range(len(self.small)):
                yield self.branch(pos_a, pos_b)

    def branch(self, pos_a: int, pos_b: int) -> Branch:
        if not (0 <= pos_a < len(self.big) and 0 <= pos_b < len(self.small)):
            raise IndexError(
                f"branch ({pos_a}, {pos_b}) outside {len(self.big)} x {len(self.small)}"
            )
        val_a, val_b = int(self.big[pos_a]), int(self.small[pos_b])
        if self.stage is not Stage.PREPARED:
            val_a ^= val_b
        flag = int(self.stage is Stage.MARKED and val_a == 0 and pos_b == 0)
        return Branch(flag, val_a, int(pos_a), val_b, int(pos_b), self._weight)


def prepare_initial(big: Image, small: Image) -> JointState:
    """Build the uniform product state over every (pos_a, pos_b) pair.

    Each of the 4**n * 4**m branches starts with flag 0 and amplitude
    1/2**(n+m).  Raises ValidationError for a pair ``validate_pair`` rejects.
    """
    return JointState(dims=validate_pair(big, small), big=big.array, small=small.array,
                      stage=Stage.PREPARED)


def apply_comparison(state: JointState) -> JointState:
    """XOR the small intensity into the big intensity register, bitwise.

    Equivalent to one CNOT per bit plane; matching pixels leave an all-zero
    difference register.  Amplitudes are untouched.
    """
    if state.stage is not Stage.PREPARED:
        raise StageError(f"comparison expects a prepared state, got {state.stage.value}")
    return replace(state, stage=Stage.COMPARED)


def apply_marking(state: JointState) -> JointState:
    """Raise the flag on branches with zero difference and small position zero.

    This is the multi-controlled NOT over the difference register and the
    small position register; only the flag field changes.
    """
    if state.stage is not Stage.COMPARED:
        raise StageError(f"marking expects a compared state, got {state.stage.value}")
    return replace(state, stage=Stage.MARKED)


def marked_indices(state: JointState) -> np.ndarray:
    """Big-image position indices carrying a raised flag, as a sorted read-only int64 array.

    A flag needs small position 0 and a zero difference, so this is
    { k : A[k] == B[0] }: the marking predicate compares each big pixel
    against the small image's top-left pixel only.
    """
    if state.stage is not Stage.MARKED:
        raise StageError(f"marked indices need a marked state, got {state.stage.value}")
    return _frozen(np.flatnonzero(state.big == state.small[0]).astype(np.int64, copy=False))


def block_matches(big: Image, small: Image, anchors: np.ndarray) -> np.ndarray:
    """Big-image indices of every full-block upper-left corner, as a sorted read-only int64 array.

    ``anchors`` is the sorted index array { k : A[k] == B[0] } that
    :func:`marked_indices` gives.  Successive elimination (Li and Salari, IEEE
    TIP 1995): of the anchors that are valid corners, keep for each further
    small pixel only those whose pixel at the same offset equals it.  Once the
    survivors fill more than a quarter of the corner grid, one strided pass
    per remaining small pixel over the whole grid is cheaper than gathers, so
    repetitive content finishes that way.  Every reported corner has had all
    of its block's pixels compared.
    """
    side, b = big.width, small.width
    span = side - b + 1
    a, s = big.array, small.array
    hits = anchors[(anchors % side < span) & (anchors // side < span)]
    for j in range(1, b * b):
        if 4 * len(hits) > span * span:
            grid = np.zeros((span, span), dtype=bool)
            grid[np.divmod(hits, side)] = True
            a2 = a.reshape(side, side)
            for dy, dx in (divmod(k, b) for k in range(j, b * b)):
                grid &= a2[dy : dy + span, dx : dx + span] == s[dy * b + dx]
            ys, xs = np.nonzero(grid)
            hits = ys * side + xs
            break
        dy, dx = divmod(j, b)
        hits = hits[a[hits + (dy * side + dx)] == s[j]]
    return _frozen(hits.astype(np.int64, copy=False))


def marked_set(state: JointState) -> set[int]:
    """The paper's marked set: :func:`marked_indices` as a Python set."""
    return set(marked_indices(state).tolist())


def dump_branches(state: JointState) -> str:
    """Debug dump: one line per branch, "flag val_a pos_a val_b pos_b amplitude".

    Lines appear in (pos_a, pos_b) lexicographic order.
    """
    lines = []
    for b in state.branches():
        lines.append(f"{b.flag} {b.val_a} {b.pos_a} {b.val_b} {b.pos_b} {b.amplitude!r}")
    return "\n".join(lines) + "\n"
