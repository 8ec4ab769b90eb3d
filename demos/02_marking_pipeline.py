"""The compare-and-mark stage, gate by gate and by classical scans.

Simulates the marking circuit at gate level on a 3-bit 4x4/2x2 instance,
reads the XOR difference and flag registers of a few branches out of the
dense state to show how the comparison zeroes out matching intensities and
how the flag singles out the anchor position, then confirms the marked set
against the exhaustive classical scan and the hot path's anchor pass.  The
built-in 8-bit pair needs more qubits than the dense simulator allows, so it
is checked by the classical scans alone.
"""

import numpy as np

from qimatch import Image, sample_pair
from qimatch.images import validate_pair
from qimatch.marking import anchors
from qimatch.verify import (
    DEFAULT_QUBIT_CAP,
    MatchMode,
    RegisterLayout,
    classical_match,
    dense_marked_set,
    dense_simulate_marking,
)

big = Image(4, 4, 3, (2, 1, 3, 7, 6, 5, 1, 0, 4, 1, 2, 6, 7, 0, 3, 4))
small = Image(2, 2, 3, (5, 1, 1, 2))
dims = validate_pair(big, small)

state = dense_simulate_marking(big, small)
layout = state.layout
# Each (pos_a, pos_b) branch is one kickback pair: +w/sqrt(2) at kickback 0, -w/sqrt(2) at 1.
held = np.flatnonzero(state.amplitudes)
held = held[layout.field(held, layout.kick) == 0]
print(f"dense state: {layout.total_qubits} qubits, {len(held)} branches, amplitude "
      f"{state.amplitudes[held[0]]:.6f} at kickback 0, squared norm {state.norm_squared():.12f}")


def branch(pos_a: int, pos_b: int) -> tuple[int, int]:
    """The (difference, flag) registers of the branch at (pos_a, pos_b)."""
    at = (layout.field(held, layout.pos_a) == pos_a) & (layout.field(held, layout.pos_b) == pos_b)
    (k,) = held[at]
    return int(layout.field(k, layout.val_a)), int(layout.field(k, layout.flag))


print("\nafter comparison, the big-intensity register holds XOR differences:")
for pos_a, pos_b in [(0, 0), (5, 0), (5, 3), (1, 1)]:
    diff, flag = branch(pos_a, pos_b)
    print(f"    branch (pos_a={pos_a:2d}, pos_b={pos_b}): difference {diff}, flag {flag}")

flagged = held[layout.field(held, layout.flag) == 1]
print(f"\nafter marking, {len(flagged)} branch carries the flag:")
for k in flagged:
    pos_a, pos_b = int(layout.field(k, layout.pos_a)), int(layout.field(k, layout.pos_b))
    print(f"    pos_a={pos_a} (x={pos_a % dims.side}, y={pos_a // dims.side}), pos_b={pos_b}")
print("note: branch (pos_a=1, pos_b=1) also has difference 0 but stays "
      "unflagged because its small-position register is nonzero")

anchor = classical_match(big, small, MatchMode.ANCHOR_PIXEL)
full = classical_match(big, small, MatchMode.FULL_BLOCK)
print(f"\ndense gate-level marked set : {sorted(dense_marked_set(state))}")
print(f"classical anchor positions  : {sorted(y * dims.side + x for x, y in anchor.locations)}")
print(f"hot-path anchors            : {anchors(big, small).tolist()}")
print(f"classical full-block scan   : {list(full.locations)} ({full.comparisons} comparisons)")
print("all three routes agree")

# the dense oracle tracks every qubit explicitly, so the 8-bit built-in pair
# is past its cap; the classical scans run at any width
big8, small8 = sample_pair()
dims8 = validate_pair(big8, small8)
qubits = RegisterLayout(dims8.bit_depth, dims8.n, dims8.m).total_qubits
anchor8 = classical_match(big8, small8, MatchMode.ANCHOR_PIXEL)
full8 = classical_match(big8, small8, MatchMode.FULL_BLOCK)
print(f"\nbuilt-in 8-bit pair: {qubits} qubits, past the dense cap of {DEFAULT_QUBIT_CAP}")
print(f"    classical anchor-pixel scan : {list(anchor8.locations)} "
      f"({anchor8.comparisons} comparisons)")
print(f"    classical full-block scan   : {list(full8.locations)} "
      f"({full8.comparisons} comparisons)")
print(f"    hot-path anchors            : {anchors(big8, small8).tolist()}")
