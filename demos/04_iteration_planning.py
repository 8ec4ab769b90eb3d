"""Planning the number of amplification rounds.

Compares the three planning modes across image sizes and shows the guaranteed
floor under the achieved success probability.  The exact mode locates the sign
change of a quartic in exact integer arithmetic and cross-checks it against
the closed radical form of the same root; the fit mode is a linear shortcut;
the optimal mode takes the peak of the success probability sin^2((2r+1)theta)
in closed form.
"""

from qimatch import PlanMode, closed_form_iterations, plan_csv, plan_iterations

print(f"{'side':>6}  {'exact':>6}  {'fit':>6}  {'optimal':>7}  "
      f"{'success@exact':>14}  {'lower bound':>12}")
side = 4
while side <= 4096:
    exact = plan_iterations(side, PlanMode.EXACT)
    fit = plan_iterations(side, PlanMode.FIT)
    optimal = plan_iterations(side, PlanMode.OPTIMAL)
    print(f"{side:>6}  {exact.iterations:>6}  {fit.iterations:>6}  "
          f"{optimal.iterations:>7}  {exact.predicted_success:>14.6f}  "
          f"{exact.lower_bound:>12.6f}")
    side *= 2

print()
print("the fit tracks the exact count to within one round; the recurrence")
print("peak drifts below both as the side grows (the quartic rule is a")
print("conservative upper envelope, so it stops a little past the peak),")
print("yet the reached probability stays above the guaranteed lower bound")

print()
root = closed_form_iterations(1024)
exact = plan_iterations(1024, PlanMode.EXACT)
print(f"side 1024: quartic root at {root.real:.3f} (imaginary residue "
      f"{abs(root.imag):.1e}), first integer past it: {exact.iterations}")

print()
print("machine-readable plan rows (engine CSV surface):")
print(plan_csv(plan_iterations(a, PlanMode.EXACT) for a in (4, 16, 64)), end="")
