"""Permutations as rows of integer arrays.

A permutation of degree n is the row of its n point images, and k of them
form a (k, n) array.  The product p * q (q applied first) is the gather
p[q].  Gathers run in row blocks of at most GATHER_BLOCK entries.  A loop
table's row x is L_x, and the table scans run y-row blocks of 1, 2, 4, ...
rows up to that cap, each cast to intp once (``cast_blocks``), each product
a ``take``.  The triple scans run the blocks outer and x inner; the centre's
full scan of one x runs them in turn and stops at its first failing block.
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
    """Row-wise products p * q; p may be a single row."""
    out = np.empty(q.shape, dtype=p.dtype)
    for b in blocks(len(q), q.shape[1]):
        out[b] = np.take_along_axis(p if len(p) == 1 else p[b], q[b], axis=1)
    return out


def inverse(p):
    out = np.empty_like(p)
    ident = np.arange(p.shape[1], dtype=p.dtype)[None]
    for b in blocks(len(p), p.shape[1]):
        np.put_along_axis(out[b], p[b], ident, axis=1)
    return out


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
