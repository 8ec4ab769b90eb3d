"""Structured simulation of the compare-and-mark stage.

The entangled register over both images is a uniform superposition over
every (big position, small position) pair, so it is held as the two
intensity vectors and the stage reached: O(4**n + 4**m) numbers, not one
entry per branch.  Each branch is computed on demand.  Its two intensity
registers start as ``big[pos_a]`` and ``small[pos_b]``.  The comparison step
XORs the small intensity into the big intensity register (a ladder of CNOTs,
one per bit plane).  The marking step raises the flag on branches whose
difference register is all-zero while the small position register is zero.
The phase-kickback ancilla is untouched by both steps and is therefore not
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

from .images import GqirImage, MatchDims, ValidationError


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

    ``big`` and ``small`` are read-only int64 intensity vectors indexed by
    position.  Branch (pos_a, pos_b) sits at index ``pos_a * 4**m + pos_b``
    of the array views ``pos_a``, ``val_a``, ``pos_b``, ``val_b`` and
    ``amplitude``; these views are built on each access and take
    O(4**(n+m)) memory, so they are for small instances only.
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

    @property
    def pos_a(self) -> np.ndarray:
        return _frozen(np.repeat(np.arange(len(self.big), dtype=np.int64), len(self.small)))

    @property
    def pos_b(self) -> np.ndarray:
        return _frozen(np.tile(np.arange(len(self.small), dtype=np.int64), len(self.big)))

    @property
    def val_a(self) -> np.ndarray:
        if self.stage is Stage.PREPARED:
            return _frozen(np.repeat(self.big, len(self.small)))
        return _frozen((self.big[:, None] ^ self.small[None, :]).ravel())

    @property
    def val_b(self) -> np.ndarray:
        return _frozen(np.tile(self.small, len(self.big)))

    @property
    def amplitude(self) -> np.ndarray:
        return _frozen(np.full(self.branch_count, self._weight))

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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def prepare_initial(big: GqirImage, small: GqirImage) -> JointState:
    """Build the uniform product state over every (pos_a, pos_b) pair.

    Each of the 4**n * 4**m branches starts with flag 0 and amplitude
    1/2**(n+m).
    """
    if big.side_log2 <= small.side_log2:
        raise ValidationError("big image side must exceed small image side")
    if big.bit_depth != small.bit_depth:
        raise ValidationError("images must share a bit depth after widening")
    dims = MatchDims(n=big.side_log2, m=small.side_log2, bit_depth=big.bit_depth, side=big.side)
    return JointState(
        dims=dims,
        big=_frozen(np.asarray(big.values, dtype=np.int64)),
        small=_frozen(np.asarray(small.values, dtype=np.int64)),
        stage=Stage.PREPARED,
    )


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


def marked_set(state: JointState) -> set[int]:
    """Big-image position indices carrying a raised flag.

    A flag needs small position 0 and a zero difference, so this is
    { k : A[k] == B[0] }: the marking predicate compares each big pixel
    against the small image's top-left pixel only.
    """
    if state.stage is not Stage.MARKED:
        raise StageError(f"marked_set expects a marked state, got {state.stage.value}")
    return set(np.flatnonzero(state.big == state.small[0]).tolist())


def dump_branches(state: JointState) -> str:
    """Debug dump: one line per branch, "flag val_a pos_a val_b pos_b amplitude".

    Lines appear in (pos_a, pos_b) lexicographic order.
    """
    lines = []
    for b in state.branches():
        lines.append(f"{b.flag} {b.val_a} {b.pos_a} {b.val_b} {b.pos_b} {b.amplitude!r}")
    return "\n".join(lines) + "\n"
