"""The compare-and-mark stage on the hot path: anchors, then full-block corners.

The paper's circuit flags a branch when its XOR difference register is zero
and its small position is 0, so the flagged big positions are the anchors
{ k : A[k] == B[0] }.  :mod:`qimatch.verify` walks the circuit's branches as an oracle.
"""

from __future__ import annotations

import numpy as np

from .images import Image, _frozen


def anchors(big: Image, small: Image) -> np.ndarray:
    """Big-image indices k with A[k] == B[0], as a sorted read-only int64 array.

    These are the positions the marking circuit flags.  Pixels compare at
    full width, so a 16-bit small pixel never equals an 8-bit big pixel that
    matches only its low bits.
    """
    return _frozen(np.flatnonzero(big.array == small.array[0]).astype(np.int64, copy=False))


def block_matches(big: Image, small: Image, anchors: np.ndarray) -> np.ndarray:
    """Big-image indices of every full-block upper-left corner, as a sorted read-only int64 array.

    ``anchors`` is the sorted index array { k : A[k] == B[0] } that
    :func:`anchors` gives.  Successive elimination (Li and Salari, IEEE
    TIP 1995): of the anchors that are valid corners, keep for each further
    small pixel only those whose pixel at the same offset equals it.  Once the
    survivors fill more than a quarter of the corner grid, one strided pass
    per remaining small pixel over the whole grid is cheaper than gathers, so
    repetitive content finishes that way.  Every reported corner has had all
    of its block's pixels compared.
    """
    side, b = big.width, small.width
    span = side - b + 1
    a, s = big.array, small.array
    hits = anchors[(anchors % side < span) & (anchors // side < span)]
    for j in range(1, b * b):
        if 4 * len(hits) > span * span:
            grid = np.zeros((span, span), dtype=bool)
            grid[np.divmod(hits, side)] = True
            a2 = a.reshape(side, side)
            for dy, dx in (divmod(k, b) for k in range(j, b * b)):
                grid &= a2[dy : dy + span, dx : dx + span] == s[dy * b + dx]
            ys, xs = np.nonzero(grid)
            hits = ys * side + xs
            break
        dy, dx = divmod(j, b)
        hits = hits[a[hits + (dy * side + dx)] == s[j]]
    return _frozen(hits.astype(np.int64, copy=False))
