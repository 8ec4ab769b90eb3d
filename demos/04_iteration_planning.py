"""Planning the number of amplification rounds.

Compares the three planning modes across image sizes and shows the guaranteed
floor under the achieved success probability.  The exact mode locates the sign
change of a quartic in exact integer arithmetic, and the demo prints the
closed radical form of the same root beside the exact count; the fit mode is a
linear shortcut; the optimal mode takes the peak of the success probability
sin^2((2r+1)theta) in closed form.  The table is the ``table1`` command's;
``table1 --csv`` writes the same rows as CSV.
"""

from qimatch import PlanMode
from qimatch.cli import main
from qimatch.grover import plan_iterations
from qimatch.verify import closed_form_iterations

main(["table1", "--max-a", "4096"])

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
