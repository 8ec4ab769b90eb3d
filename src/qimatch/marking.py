"""The compare-and-mark stage on the hot path: anchors, then full-block corners.

The paper's circuit flags a branch when its XOR difference register is zero
and its small position is 0, so the flagged big positions are the anchors
{ k : A[k] == B[0] }.  :func:`anchors` finds them in one scan over fixed
chunks of the big image that stops collecting hits one by one after a few:
time is O(4^n), and extra memory is one chunk plus the hits while they are
few.  :mod:`qimatch.verify` checks the same set two ways, as oracles: a
gate-level simulation of the circuit and an exhaustive pixel scan.
"""

from __future__ import annotations

import numpy as np

from .images import Image, _frozen


# Pixels per step of the anchor scan, so its comparison buffer is 64 KiB.
_SCAN_CHUNK = 1 << 16
# Hits the scan collects one by one; the next one hands the rest to one pass.
_FEW_HITS = 16


def anchors(big: Image, small: Image) -> np.ndarray:
    """Big-image indices k with A[k] == B[0], as a sorted read-only int64 array.

    These are the positions the marking circuit flags.  Pixels compare at
    full width, so a 16-bit small pixel never equals an 8-bit big pixel that
    matches only its low bits.

    Each chunk of _SCAN_CHUNK pixels is compared into one reused buffer, and
    its hits are picked out by ``argmax`` from the last one, which stops at
    the first raised entry.  While there are at most _FEW_HITS hits, that is
    the whole cost: no whole-image mask and no full ``flatnonzero`` pass.
    One more hit ends the scan with a single ``flatnonzero`` over the image
    from the current chunk on; in the first chunk that is the whole image,
    so dense inputs cost one plain pass.
    """
    a, v = big.array, small.array[0]
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
