"""A full randomized match: plant a patch, find it, verify it classically.

Builds an 8x8 image with a 2x2 patch planted at a random location (with the
patch's top-left value kept unique so the marking predicate and the full-block
ground truth coincide), then runs the whole pipeline (``pipeline.match``)
and checks the answer against the classical scans.
"""

import random

from qimatch import Image, pipeline
from qimatch.verify import MatchMode, classical_match

rng = random.Random(2025)

SIDE, PATCH, DEPTH = 8, 2, 4
top = (1 << DEPTH) - 1
anchor = rng.randint(1, top)
big_pixels = [rng.choice([v for v in range(top + 1) if v != anchor]) for _ in range(SIDE * SIDE)]
small_pixels = [anchor] + [rng.randint(0, top) for _ in range(PATCH * PATCH - 1)]
x0, y0 = rng.randint(0, SIDE - PATCH), rng.randint(0, SIDE - PATCH)
for dy in range(PATCH):
    for dx in range(PATCH):
        big_pixels[(y0 + dy) * SIDE + (x0 + dx)] = small_pixels[dy * PATCH + dx]

big = Image(SIDE, SIDE, DEPTH, tuple(big_pixels))
small = Image(PATCH, PATCH, DEPTH, tuple(small_pixels))
print(f"planted the {PATCH}x{PATCH} patch at (x={x0}, y={y0}); anchor value {anchor}")

outcome = pipeline.match(big, small, seed=rng.randint(0, 2**31))
dims, plan = outcome.dims, outcome.plan
print(f"marking stage flagged positions: {outcome.final.marked.tolist()}")
print(f"plan: {plan.iterations} rounds, predicted success "
      f"{outcome.final.probability:.4f}, guaranteed at least {plan.lower_bound:.4f}")

top_index = outcome.final.top_index()
x, y = top_index % dims.side, top_index // dims.side
print(f"most probable position after amplification: index {top_index} -> (x={x}, y={y})")

measured = next(iter(outcome.counts))
print(f"single measurement draw: index {measured} "
      f"-> (x={measured % dims.side}, y={measured // dims.side})")

full = classical_match(big, small, MatchMode.FULL_BLOCK)
anchor_scan = classical_match(big, small, MatchMode.ANCHOR_PIXEL)
print(f"classical full-block scan: {list(full.locations)} "
      f"({full.comparisons} comparisons)")
print(f"classical anchor scan    : {list(anchor_scan.locations)} "
      f"({anchor_scan.comparisons} comparisons)")

assert full.locations == ((x0, y0),)
assert (x, y) == (x0, y0)
print("\nquantum pipeline and classical ground truth agree")
