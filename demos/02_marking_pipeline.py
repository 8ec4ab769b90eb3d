"""The compare-and-mark stage, three independent ways.

Runs the structured branch simulation on the built-in pair, shows how the
comparison zeroes out matching intensities and how the flag singles out the
anchor position, then confirms the marked set against the dense gate-level
simulator and the exhaustive classical scan.
"""

from qimatch import Image, sample_pair
from qimatch.images import validate_pair
from qimatch.verify import (
    MatchMode,
    apply_comparison,
    apply_marking,
    classical_match,
    dense_marked_set,
    dense_simulate_marking,
    marked_set,
    prepare_initial,
)

big, small = sample_pair()
dims = validate_pair(big, small)

state = prepare_initial(big, small)
norm = sum(b.amplitude ** 2 for b in state.branches())
print(f"prepared state: {state.branch_count} branches, amplitude "
      f"{state.branch(0, 0).amplitude} each, squared norm {norm:.12f}")

state = apply_comparison(state)
print("\nafter comparison, the big-intensity register holds XOR differences:")
for pos_a, pos_b in [(0, 0), (5, 0), (5, 3), (3, 3)]:
    b = state.branch(pos_a, pos_b)
    print(f"    branch (pos_a={pos_a:2d}, pos_b={pos_b}): difference {b.val_a:3d}")

state = apply_marking(state)
flagged = [b for b in state.branches() if b.flag == 1]
print(f"\nafter marking, {len(flagged)} branch carries the flag:")
for b in flagged:
    print(f"    pos_a={b.pos_a} (x={b.pos_a % dims.side}, y={b.pos_a // dims.side}), "
          f"pos_b={b.pos_b}")
print("note: branch (pos_a=3, pos_b=3) also has difference 0 but stays "
      "unflagged because its small-position register is nonzero")

marks = marked_set(state)
print(f"\nmarked positions: {sorted(marks)}")

anchor = classical_match(big, small, MatchMode.ANCHOR_PIXEL)
full = classical_match(big, small, MatchMode.FULL_BLOCK)
print(f"\nclassical anchor-pixel scan : {list(anchor.locations)} "
      f"({anchor.comparisons} comparisons)")
print(f"classical full-block scan   : {list(full.locations)} "
      f"({full.comparisons} comparisons)")

# the dense gate-level oracle tracks every qubit explicitly, so it only fits
# narrow registers; cross-check all three routes on a 3-bit 4x4/2x2 instance
big3 = Image(4, 4, 3, (2, 1, 3, 7, 6, 5, 1, 0, 4, 1, 2, 6, 7, 0, 3, 4))
small3 = Image(2, 2, 3, (5, 1, 1, 2))
dims3 = validate_pair(big3, small3)
dense = dense_simulate_marking(big3, small3)
state3 = apply_marking(apply_comparison(prepare_initial(big3, small3)))
anchor3 = classical_match(big3, small3, MatchMode.ANCHOR_PIXEL)
anchor3_set = sorted(y * dims3.side + x for x, y in anchor3.locations)
print("\n3-bit cross-check instance:")
print(f"    dense gate-level marked set : {sorted(dense_marked_set(dense))}")
print(f"    structured branch marked set: {sorted(marked_set(state3))}")
print(f"    classical anchor positions  : {anchor3_set}")
print("\nall three routes agree")
