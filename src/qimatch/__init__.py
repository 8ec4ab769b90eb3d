"""Classical simulator and analysis toolkit for Grover-style image matching.

:func:`qimatch.pipeline.match` locates a small grayscale image in a big one by

1. encoding both images as uniform position-intensity superpositions, which
   an :class:`~qimatch.images.Image` already is (:mod:`qimatch.images`),
2. simulating the compare-and-mark circuit that flags candidate positions
   (:mod:`qimatch.marking`),
3. planning the rounds for the marked count, amplifying the flagged positions
   in closed form, and sampling a projective measurement (:mod:`qimatch.grover`).

:mod:`qimatch.verify` carries the independent oracles (the full-vector engine,
the planning quartic's radical root, a dense gate-level simulator and the
exhaustive classical matcher) used to cross-check the pipeline, and
:mod:`qimatch.cli` exposes everything as a command line tool.
"""

from .images import (
    Image,
    PgmError,
    ValidationError,
    encode_gqir,
    load_pgm,
    validate_pair,
    write_pgm,
)
from .marking import apply_comparison, apply_marking, marked_set, prepare_initial
from .grover import AmplitudePair, PlanMode, plan_iterations, recurrence_step
from .verify import (
    MatchMode,
    SubspaceState,
    classical_match,
    closed_form_iterations,
    dense_marked_set,
    dense_simulate_marking,
    diffuse,
    init_subspace,
    phase_flip,
    run_grover,
    sample_measurement,
)
from . import pipeline
from .sample import sample_pair

__version__ = "0.1.0"

# The pipeline, its input and error types, and what the demos, tests and
# README import.  SubspaceState, the vector engine's state, is importable too;
# every other name lives in its module.
__all__ = [
    "AmplitudePair",
    "Image",
    "MatchMode",
    "PgmError",
    "PlanMode",
    "ValidationError",
    "apply_comparison",
    "apply_marking",
    "classical_match",
    "closed_form_iterations",
    "dense_marked_set",
    "dense_simulate_marking",
    "diffuse",
    "encode_gqir",
    "init_subspace",
    "load_pgm",
    "marked_set",
    "phase_flip",
    "pipeline",
    "plan_iterations",
    "prepare_initial",
    "recurrence_step",
    "run_grover",
    "sample_measurement",
    "sample_pair",
    "validate_pair",
    "write_pgm",
]
