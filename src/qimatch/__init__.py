"""Classical simulator and analysis toolkit for Grover-style image matching.

The pipeline locates a small grayscale image inside a big one by

1. encoding both images as uniform position-intensity superpositions
   (:mod:`qimatch.images`),
2. simulating the compare-and-mark circuit that flags candidate positions
   (:mod:`qimatch.marking`),
3. amplifying the flagged positions with phase flips and inversion about the
   mean, planning the round count, and sampling a projective measurement
   (:mod:`qimatch.grover`; the hot path evaluates the two amplitude values in
   closed form, and the full-vector engine stays as its cross-check).

:mod:`qimatch.verify` carries independent oracles (a dense gate-level
simulator and the exhaustive classical matcher) used to cross-check the
pipeline, and :mod:`qimatch.cli` exposes everything as a command line tool.
"""

from .images import (
    GqirImage,
    Image,
    MatchDims,
    PgmError,
    ValidationError,
    encode_gqir,
    load_pgm,
    validate_pair,
    write_pgm,
)
from .marking import (
    Branch,
    JointState,
    Stage,
    StageError,
    apply_comparison,
    apply_marking,
    dump_branches,
    marked_set,
    prepare_initial,
)
from .grover import (
    AmplitudePair,
    IterationPlan,
    PlanMode,
    SubspaceState,
    TwoValueState,
    amplify,
    closed_form_iterations,
    closed_form_pair,
    diffuse,
    init_subspace,
    initial_pair,
    phase_flip,
    plan_csv,
    plan_iterations,
    probability_lower_bound,
    recurrence_step,
    run_grover,
    sample_groups,
    sample_measurement,
    success_probability,
)
from .verify import (
    DenseState,
    MatchMode,
    MatchResult,
    RegisterLayout,
    classical_match,
    dense_marked_set,
    dense_simulate_marking,
)
from .sample import SAMPLE_BIG_PGM, SAMPLE_SMALL_PGM, sample_pair

__version__ = "0.1.0"

__all__ = [
    "AmplitudePair",
    "Branch",
    "DenseState",
    "GqirImage",
    "Image",
    "IterationPlan",
    "JointState",
    "MatchDims",
    "MatchMode",
    "MatchResult",
    "PgmError",
    "PlanMode",
    "RegisterLayout",
    "SAMPLE_BIG_PGM",
    "SAMPLE_SMALL_PGM",
    "Stage",
    "StageError",
    "SubspaceState",
    "TwoValueState",
    "ValidationError",
    "apply_comparison",
    "apply_marking",
    "amplify",
    "classical_match",
    "closed_form_iterations",
    "closed_form_pair",
    "dense_marked_set",
    "dense_simulate_marking",
    "diffuse",
    "dump_branches",
    "encode_gqir",
    "init_subspace",
    "initial_pair",
    "load_pgm",
    "marked_set",
    "phase_flip",
    "plan_csv",
    "plan_iterations",
    "prepare_initial",
    "probability_lower_bound",
    "recurrence_step",
    "run_grover",
    "sample_groups",
    "sample_measurement",
    "sample_pair",
    "success_probability",
    "validate_pair",
    "write_pgm",
]
