"""Permutations as rows of integer arrays.

A permutation of degree n is the row of its n point images, k of them a
(k, n) array.  The product p * q (q applied first) is the gather p[q], in
row blocks of at most GATHER_BLOCK entries, each a flat take (a put, for
inverses) with row i of a block offset by i * n.  A loop table's row x is
L_x; its scans run y-row blocks of 1, 2, 4, ... rows up to that cap, each
cast to intp once (``cast_blocks``).  The triple scans run the blocks outer
and x inner; the centre's full scan of one x stops at its first failing block.
"""

import numpy as np

GATHER_BLOCK = 1 << 18


def blocks(rows, width):
    """Row slices of at most GATHER_BLOCK entries of the given row width."""
    step = max(1, GATHER_BLOCK // max(1, width))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def ragged_blocks(counts, width):
    """Slices of consecutive entries, entry i standing for counts[i] rows of the given
    width, of at most GATHER_BLOCK entries in all (one entry at least)."""
    ends = np.cumsum(counts)
    step = max(1, GATHER_BLOCK // max(1, width))
    lo = 0
    while lo < len(ends):
        cap = ends[lo] - counts[lo] + step
        hi = max(lo + 1, int(np.searchsorted(ends, cap, side="right")))
        yield slice(lo, hi)
        lo = hi


def cast_blocks(table):
    """(rows, table[rows] as intp) over row blocks of 1, 2, 4, ... rows, at most
    GATHER_BLOCK entries each; no full intp copy is made."""
    cap, lo, step = max(1, GATHER_BLOCK // max(1, table.shape[1])), 0, 1
    while lo < len(table):
        yield slice(lo, lo + step), table[lo:lo + step].astype(np.intp)
        lo, step = lo + step, min(2 * step, cap)


def compose(p, q):
    """Row-wise products p * q.  A single row p is one gather, which reads q's
    entries as they are (no intp copy); otherwise each block is one flat take."""
    if len(p) == 1:
        return p[0][q]
    out = np.empty(q.shape, dtype=p.dtype)
    for b in blocks(len(q), q.shape[1]):
        np.take(p[b], _flat(q[b]), out=out[b])
    return out


def inverse(p):
    """Row-wise inverses, each block one flat put of the identity row."""
    out = np.empty(p.shape, dtype=p.dtype)
    ident = np.arange(p.shape[1], dtype=p.dtype)
    for b in blocks(len(p), p.shape[1]):
        np.put(out[b], _flat(p[b]), ident)
    return out


def _flat(rows):
    """Row i's entries shifted by i * width: indices into the block read as one flat row."""
    return rows + np.arange(len(rows))[:, None] * rows.shape[1]


def row_set(rows):
    """The rows as a frozenset of image tuples, for set comparisons."""
    return frozenset(map(tuple, rows.tolist()))


def row_keys(rows):
    """Each row's bytes as a hashable key, in row order."""
    width = rows.shape[1] * rows.itemsize
    return np.ascontiguousarray(rows).view(np.dtype((np.void, width))).ravel().tolist()


def fresh(rows, seen):
    """The rows whose bytes are not in ``seen``, first occurrence first; records them."""
    return rows[[i for i, key in enumerate(row_keys(rows)) if not (key in seen or seen.add(key))]]
