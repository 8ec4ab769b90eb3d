"""Watching amplitude amplification concentrate probability on the target.

Evolves the built-in instance round by round, in parallel through the vector
engine and the exact two-value recurrence, then samples the final state.
"""

from fractions import Fraction

from qimatch.grover import AmplitudePair, recurrence_step
from qimatch.verify import diffuse, init_subspace, phase_flip, run_grover, sample_measurement

SIDE = 4
TARGET = 5

state = init_subspace(2, {TARGET})
pair = AmplitudePair(unmarked=Fraction(1, SIDE), marked=Fraction(1, SIDE), iteration=0, side=SIDE)

print("round   target amplitude      other amplitude       target probability")
print(f"{0:5d}   {str(pair.marked):>18}   {str(pair.unmarked):>18}   "
      f"{float(pair.marked) ** 2:20.6f}")
for _ in range(4):
    state = diffuse(phase_flip(state))
    pair = recurrence_step(pair)
    vector_value = state.amplitudes[TARGET]
    assert vector_value == float(pair.marked), "vector and recurrence disagree"
    print(f"{pair.iteration:5d}   {str(pair.marked):>18}   {str(pair.unmarked):>18}   "
          f"{float(pair.marked) ** 2:20.6f}")

print()
print("the target probability peaks after 3 rounds and the fourth overshoots,")
print("so the planner stops at 3")

final = run_grover(init_subspace(2, {TARGET}), 3)
counts = sample_measurement(final, seed=7, samples=10000)
print(f"\n10000 measurement draws of the 3-round state (seed 7):")
width = max(counts.values())
for idx in range(final.size):
    c = counts.get(idx, 0)
    bar = "#" * max(1, round(40 * c / width)) if c else ""
    marker = " <- target" if idx == TARGET else ""
    print(f"    {idx:2d} {c:5d} {bar}{marker}")
print(f"\ntarget frequency: {counts[TARGET] / 10000:.4f} "
      f"(model probability {float(Fraction(251, 256)) ** 2:.4f})")
