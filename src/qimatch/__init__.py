"""Classical simulator and analysis toolkit for Grover-style image matching.

:func:`qimatch.pipeline.match` locates a small grayscale image in a big one by

1. encoding both images as uniform position-intensity superpositions, which
   an :class:`~qimatch.images.Image` already is (:mod:`qimatch.images`),
2. finding the positions the compare-and-mark circuit flags, the anchors
   { k : A[k] == B[0] }, in one pass over the big image (:mod:`qimatch.marking`),
3. planning the rounds for the marked count, amplifying the flagged positions
   in closed form, and sampling a projective measurement (:mod:`qimatch.grover`).

:mod:`qimatch.verify` carries the independent oracles (a dense gate-level
simulator of the compare-and-mark circuit, the exhaustive classical matcher,
the full-vector engine, the planning quartic's radical root and the
recurrence's Chebyshev closed form) used to cross-check the pipeline, and
:mod:`qimatch.cli` exposes everything as a command line tool.

The package namespace holds the pipeline, its input and error types and the
built-in pair; every other name is imported from its own module.
"""

from .images import Image, PgmError, ValidationError, load_pgm, write_pgm
from .grover import PlanMode
from . import pipeline
from .sample import sample_pair

__version__ = "0.1.0"

__all__ = [
    "Image",
    "PgmError",
    "PlanMode",
    "ValidationError",
    "load_pgm",
    "pipeline",
    "sample_pair",
    "write_pgm",
]
