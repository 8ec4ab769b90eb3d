"""The compare-and-mark stage: corners whose block agrees with the template.

The paper's circuit flags a branch when its XOR difference register is zero
and its small position is 0, so the flagged big positions are the anchors
{ k : A[k] == B[0] }, agreement at one template pixel; the full-block match
is agreement at all of them.  :func:`agreeing` is one search for any count
(marked sets as in Montanaro, Algorithmica 77, 2017).  :mod:`qimatch.verify`
checks the anchors with two oracles: a gate-level simulation of the circuit
and an exhaustive pixel scan.
"""

from __future__ import annotations

import numpy as np

from .images import Image, _frozen


# Pixels per step of the anchor scan, so its comparison buffer is 64 KiB.
_SCAN_CHUNK = 1 << 16
# Hits the scan collects one by one; the next one hands the rest to one pass.
_FEW_HITS = 16


def _scan(a: np.ndarray, v) -> np.ndarray:
    """Indices k with a[k] == v, as a sorted read-only int64 array.

    Each chunk of _SCAN_CHUNK pixels is compared into one reused buffer, and
    its hits are picked out by ``argmax`` from the last one, which stops at
    the first raised entry.  While there are at most _FEW_HITS hits, that is
    the whole cost: no whole-image mask and no full ``flatnonzero`` pass.
    One more hit ends the scan with a single ``flatnonzero`` over the image
    from the current chunk on; in the first chunk that is the whole image,
    so dense inputs cost one plain pass.
    """
    hits: list[int] = []
    mask = np.empty(min(a.size, _SCAN_CHUNK), dtype=bool)
    for lo in range(0, a.size, _SCAN_CHUNK):
        chunk = a[lo : lo + _SCAN_CHUNK]
        found = np.equal(chunk, v, out=mask[: len(chunk)])
        before = len(hits)
        i = int(found.argmax())
        while found[i]:
            if len(hits) == _FEW_HITS:
                rest = np.flatnonzero(a[lo:] == v).astype(np.int64, copy=False)
                if lo:
                    rest += lo
                    rest = np.concatenate((np.array(hits[:before], dtype=np.int64), rest))
                return _frozen(rest)
            hits.append(lo + i)
            i += 1
            if i == len(found):
                break
            i += int(found[i:].argmax())
    return _frozen(np.array(hits, dtype=np.int64))


def agreeing(big: Image, small: Image, pixels: int) -> np.ndarray:
    """Corners k = y*side + x whose block agrees with ``small`` at its first ``pixels`` pixels.

    Pixels are taken in raster order and compared at full width (a 16-bit
    small pixel never equals an 8-bit big pixel that matches its low bits);
    a corner counts only where all of them lie inside the big image.  One
    pixel gives the anchors over every position, the set the marking circuit
    flags, and b*b the full-block corners.  Returns a sorted read-only int64 array.

    Successive elimination (Li and Salari, IEEE TIP 1995): of the anchors
    inside the corner grid, keep for each further pixel only those whose
    pixel at the same offset equals it.  Once the survivors fill more than a
    quarter of the grid, one strided pass per remaining pixel over the whole
    grid is cheaper than gathers, so repetitive content finishes that way.
    """
    side, b = big.width, small.width
    a, s = big.array, small.array
    hits = _scan(a, s[0])
    rows, cols = side - (pixels - 1) // b, side - min(pixels - 1, b - 1)
    if pixels > 1:
        hits = hits[(hits % side < cols) & (hits // side < rows)]
    for j in range(1, pixels):
        if 4 * len(hits) > rows * cols:
            grid = np.zeros((rows, cols), dtype=bool)
            grid[np.divmod(hits, side)] = True
            a2 = a.reshape(side, side)
            for dy, dx in (divmod(k, b) for k in range(j, pixels)):
                grid &= a2[dy : dy + rows, dx : dx + cols] == s[dy * b + dx]
            ys, xs = np.nonzero(grid)
            hits = ys * side + xs
            break
        dy, dx = divmod(j, b)
        hits = hits[a[hits + (dy * side + dx)] == s[j]]
    return _frozen(hits.astype(np.int64, copy=False))
