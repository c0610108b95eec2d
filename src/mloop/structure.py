"""Subloop structure: generation, normality, lattices, central series, Frattini.

Subloops are element sets of a parent CayleyLoop.  Closures and the full
lattice run on numpy boolean masks; the lattice is grown from the cyclic
subloops, which is provably complete (every subloop is the join of the
cyclic subloops of its elements).  Normality, L' and the upper central series
read the loop's associator tensor A_q on L/Z(L), one row per centre coset.
Normality matrices come for a whole stack of subloops H at once: whether an
associator stays inside H depends on H only through which of A_q's values H
holds, so each group of H holding the same values costs one matrix product.

The lattice is built by canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998), with closure as its only
operation.  Each subloop S has one greedy generating sequence g_1 < g_2 < ...,
g_{i+1} the least member of S outside <g_1 .. g_i>, and each g_i is an atom
generator, the least x with <x> = <g_i>.  S is extended by the atom generators
x past its last g and outside S, and T = S v <x> is kept iff x is the least
member of T outside S, that is iff T's greedy sequence is S's followed by x.
So each subloop is produced once, from its greedy prefix, and a closure stops
at the first y < x outside S.  The argument uses closure alone (no Moufang
law, commutativity or Lagrange property), so it holds for group tables too.
The walk goes one level of greedy sequences at a time: a level's candidates
are pre-tested by one matrix product and closed together, row by row, by
``_close_rows``; the members are sorted once and proved subloops by one
batched check.  ``_close`` stays the kernel for closing a single set.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import (
    NotASubloop,
    NotCML,
    NotNested,
    OrderOverflow,
    ParseError,
)
from .loop_core import _close, _first_index
from .perm_rows import blocks, ragged_blocks

LATTICE_GUARD_DEFAULT = 128


class Subloop:
    """A validated subloop: closed under product, contains the identity.

    Finite product-closure forces identity and inverse closure, but the
    constructor checks all three anyway, save closure on the whole loop, which
    its Latin table gives, and raises NotASubloop with the first offending pair.
    Only ``_proved``, for a mask whose closure its caller has proved, skips them.

    A subloop stores only its read-only bool mask over the parent's elements.
    ``members``, ``elements``, ``size`` and ``key`` (the packed mask) are read off
    it on first use, and ``==``, ``hash``, ``<=``, ``<`` and ``in`` work on masks.
    """

    def __init__(self, parent, elements):
        elems = sorted({int(e) for e in elements})
        if not elems:
            raise NotASubloop("a subloop cannot be empty")
        if elems[0] < 0 or elems[-1] >= parent.n:
            raise ParseError(f"element index out of range 0..{parent.n - 1}")
        if 0 not in elems:
            raise NotASubloop("missing identity element 0")
        inside = np.zeros(parent.n, dtype=bool)
        inside[elems] = True
        if len(elems) < parent.n:
            prods = np.asarray(parent.table[np.ix_(elems, elems)], dtype=np.int64)
            if not inside[prods].all():
                i, j = np.unravel_index(int(np.argmin(inside[prods])), prods.shape)
                raise NotASubloop(f"not closed: {elems[i]} * {elems[j]} = {int(prods[i, j])} escapes")
            if not inside[np.asarray(parent.inverse_array(), dtype=np.int64)[elems]].all():
                raise NotASubloop("not closed under inverses")
        self._fill(parent, inside)

    @classmethod
    def _proved(cls, parent, mask):
        """A subloop whose closure the caller has proved, built without re-validation."""
        return cls.__new__(cls)._fill(parent, mask)

    _picked = cached_property(lambda self: {})  # coset selection -> members
    _coset_subloops = cached_property(lambda self: {})  # coset selection -> Subloop
    _classes = cached_property(lambda self: {})  # H's normality class -> (P, D, result)
    _rows = cached_property(lambda self: {})  # H's packed mask -> its class's (P, D, result)

    def _fill(self, parent, mask):
        self.parent, self._mask, self._cosets = parent, mask, None
        mask.setflags(write=False)
        return self

    @cached_property
    def members(self):
        return tuple(self._mask.nonzero()[0].tolist())

    @cached_property
    def elements(self):
        return frozenset(self._mask.nonzero()[0].tolist())

    @cached_property
    def size(self):
        return int(np.count_nonzero(self._mask))

    @cached_property
    def key(self):
        return np.packbits(self._mask).tobytes()

    def _coset_index(self):
        """(cosets, kpos), computed once: the sorted cosets of Z(L) meeting S, and kpos[j]
        the index in cosets of members[j]'s coset; (arange(m), proj) on the whole loop."""
        if self._cosets is None:
            reps, proj = self.parent.central_cosets()
            self._cosets = ((np.arange(len(reps)), proj) if self.is_full
                            else np.unique(proj[self._mask], return_inverse=True))
        return self._cosets

    def _cosets_meeting(self, mask):
        """Mask over the cosets of ``_coset_index()`` of those meeting the element mask."""
        reps, proj = self.parent.central_cosets()
        return np.bincount(proj[mask], minlength=len(reps))[self._coset_index()[0]] > 0

    def _coset_members(self, sel):
        """Members of S in the cosets that ``sel`` picks from ``_coset_index()``'s, memoized."""
        key = sel.tobytes()
        if key not in self._picked:
            self._picked[key] = tuple(self._mask.nonzero()[0][sel[self._coset_index()[1]]].tolist())
        return self._picked[key]

    @property
    def is_full(self):
        return self.size == self.parent.n

    def mask(self):
        return self._mask

    def __contains__(self, i):
        return 0 <= i < len(self._mask) and self._mask[i]

    def __le__(self, other):
        return self.parent is other.parent and not (self._mask & ~other._mask).any()

    def __lt__(self, other):
        return self.size < other.size and self <= other

    def __eq__(self, other):
        return isinstance(other, Subloop) and self.parent is other.parent and self.key == other.key

    def __hash__(self):
        return hash((id(self.parent), self.key))

    def serialize(self):
        return ",".join(map(str, self._mask.nonzero()[0].tolist()))

    def __repr__(self):
        return f"Subloop(order={self.size} of {self.parent.name})"


def full_subloop(loop):
    return Subloop._proved(loop, np.ones(loop.n, dtype=bool))


def trivial_subloop(loop):
    return Subloop(loop, [0])


def coerce_subloop(loop, value):
    """Accept a Subloop of this loop or a bare element collection."""
    if isinstance(value, Subloop):
        if value.parent is not loop:
            raise NotNested("subloop belongs to a different parent loop")
        return value
    return Subloop(loop, value)


# -- closure -----------------------------------------------------------------


def generate_subloop(loop, indices):
    """Smallest subloop containing the given element indices."""
    return _join_elements(loop, np.arange(loop.n) == 0, indices)


def join(a, b):
    """Smallest subloop containing the subloop a and b, a subloop of the same loop or
    element indices: one closure, grown from a's mask."""
    if isinstance(b, Subloop) and a.parent is not b.parent:
        raise NotNested("subloops of different parents")
    return _join_elements(a.parent, a.mask(), b.members if isinstance(b, Subloop) else b)


def _join_elements(loop, base, elements):
    """The subloop generated by the subloop with mask ``base`` and the element indices: one
    closure, a set with 0 closed under products, so a subloop of the finite loop as it is."""
    indices = [int(i) for i in elements]
    for i in indices:
        if not 0 <= i < loop.n:
            raise ParseError(f"element index {i} out of range 0..{loop.n - 1}")
    seed = np.zeros(loop.n, dtype=bool)
    seed[indices] = True
    return Subloop._proved(loop, _close(loop.table, base, seed, None, loop.commutative))


def _powers(loop, k):
    """x -> x^k for every x, left-iterated as CayleyLoop.power (k >= 0)."""
    out = np.zeros(loop.n, dtype=np.int64)
    for _ in range(k):
        out = loop.table[np.arange(loop.n), out]
    return out


# -- normality ---------------------------------------------------------------


def _normality_rows(loop, masks, k):
    """(K, kpos, meet, tensor) for the (r, n) stack ``masks`` of subloops H of K, after
    the checks every normality test makes: over the c cosets of Z(L) in K's cached
    ``_coset_index`` (cosets, kpos), meet[i] marks those that H_i meets, and tensor is
    A_q[a, b, c] over the f cosets a that some H_i meets, ascending, and all b, c."""
    _require_cml(loop)
    k = full_subloop(loop) if k is None else coerce_subloop(loop, k)
    meet = _meets(loop, masks, k)
    violation = loop.inner_identity_violation()
    if violation is not None:
        raise AssertionError(f"inner-mapping identity fails at {violation}; table corrupted")
    cosets, kpos = k._coset_index()
    tensor = loop.associator_table()[cosets[meet.any(axis=0)]]
    if not k.is_full:
        tensor = tensor.take(cosets, axis=1).take(cosets, axis=2)
    return k, kpos, meet, tensor


def _meets(loop, masks, k):
    """meet[i] marks the cosets of K's ``_coset_index`` that H_i meets, for the (r, n) stack
    ``masks`` of subloops H of K; raises NotNested unless every H_i lies inside K."""
    outside = None if k.is_full else (masks & ~k.mask()).any(axis=1)
    if outside is not None and outside.any():
        order = int(masks[np.argmax(outside)].sum())
        raise NotNested(f"H (order {order}) is not contained in K (order {k.size})")
    if len(masks) == 1:
        return k._cosets_meeting(masks[0])[None]
    reps, proj = loop.central_cosets()
    meet = np.zeros((len(masks), len(reps)), dtype=bool)
    rows, members = np.nonzero(masks)
    meet[rows, proj[members]] = True
    return meet[:, k._coset_index()[0]]


def _same_values(loop, masks):
    """The row groups of the mask stack whose members meet the values of A_q alike."""
    if len(masks) == 1:
        return [np.zeros(1, dtype=np.intp)]
    which = np.unique(masks[:, loop.associator_values()], axis=0, return_inverse=True)[1].ravel()
    return np.split(np.argsort(which, kind="stable"), np.cumsum(np.bincount(which))[:-1])


def _normality_matrix(loop, masks, k):
    """(K, kpos, meet, C) for the (r, n) stack ``masks`` of subloops H of K, with
    C[i, b, c] iff (h, r_b, r_c) stays inside H_i for every h in H_i, over the cosets
    r_b, r_c meeting K (``_normality_rows``); k_j lies in coset kpos[j].

    Associators are constant on the cosets of Z(L), and whether one stays inside H
    depends on H only through which of A_q's values H holds.  So per group of rows
    holding the same values, escapes[a, (b, c)] marks the A_q[a, b, c] outside them,
    and C[i] = ~(meet[i] @ escapes), one matrix product for the whole group (a
    group of one H reads C off its gather with no product).
    H is normal in K iff C[i] is all true (CML only), so one false C[i, b, c] with
    b, c meeting some T <= K proves H_i is not normal in T.
    """
    k, kpos, meet, tensor = _normality_rows(loop, masks, k)
    c, met = meet.shape[1], meet[:, meet.any(axis=0)]  # met[i]: H_i's rows of tensor
    out = np.empty((len(masks), c, c), dtype=bool)
    for rows in _same_values(loop, masks):
        used = met[rows].any(axis=0)
        stays = masks[rows[0]].take(tensor[used])
        if len(rows) == 1:
            out[rows[0]] = stays.all(axis=0)
            continue
        escapes = (~stays).reshape(-1, c * c).astype(np.float32)
        for b in blocks(len(rows), 4 * c * c):  # float32 products, GATHER_BLOCK bytes
            hits = met[rows[b]][:, used].astype(np.float32) @ escapes
            out[rows[b]] = (hits == 0).reshape(-1, c, c)
    return k, kpos, meet, out


def is_normal(loop, h, k=None):
    """True iff every associator (h, y, x) with y, x in K stays inside H.

    Certified per loop to agree with invariance under the inner maps of K.
    """
    _require_cml(loop)
    h = coerce_subloop(loop, h)
    return bool(h.mask().take(_normality_rows(loop, h.mask()[None], k)[3]).all())


def normality_witness(loop, h, k=None):
    """Least triple (h, y, x) over (H, K, K) whose associator escapes H."""
    _require_cml(loop)
    h = coerce_subloop(loop, h)
    k, kpos, _, tensor = _normality_rows(loop, h.mask()[None], k)
    escapes = ~h.mask().take(tensor)
    failing = escapes.any(axis=(1, 2))
    if not failing.any():
        return None
    members = np.flatnonzero(h.mask())
    hs = members[np.unique(loop.central_cosets()[1][members], return_index=True)[1]]
    i = np.flatnonzero(failing)[np.argmin(hs[failing])]
    j, l = _first_index(escapes[i][np.ix_(kpos, kpos)])
    return (int(hs[i]), k.members[j], k.members[l])


def _coset_subloop(loop, k, sel):
    """The subloop of K's members in the cosets of Z(L) that the mask ``sel`` picks
    out of K's, proved once per K and ``sel`` and kept on K.  When Z(L) <= K these
    are whole cosets, and since Z(L) is central and nuclear, (xc)(yc') = (xy)cc',
    so their union is closed iff sel holds the identity coset and is closed under
    L/Z(L)'s product: m^2 reads, not |D|^2.  Otherwise the members are validated
    as any Subloop.
    """
    key = sel.tobytes()
    if key not in k._coset_subloops:
        k._coset_subloops[key] = _prove_cosets(loop, k, sel)
    return k._coset_subloops[key]


def _prove_cosets(loop, k, sel):
    cosets = k._coset_index()[0]
    reps, proj = loop.central_cosets()
    if k.size != len(cosets) * (loop.n // len(reps)):
        return Subloop(loop, k._coset_members(sel))
    ids, r = cosets[sel], reps[cosets[sel]]
    picked = np.bincount(ids, minlength=len(reps)) > 0
    if not (picked[0] and picked.take(proj.take(loop.table.take(r, 0).take(r, 1))).all()):
        raise AssertionError(f"the cosets {ids.tolist()} of Z(L) are not closed on L/Z(L)")
    return Subloop._proved(loop, picked[proj])


# -- the subloop lattice -----------------------------------------------------


# A pair of ``_close_rows`` takes about 16 bytes of index arrays, and so does a
# mask entry of its rows, counting the masks and the entries' indices; so a block
# of GATHER_BLOCK // PAIR_WIDTH pairs, or of rows holding that many mask entries,
# takes about GATHER_BLOCK bytes.
PAIR_WIDTH = 16


def _row_pairs(rows_a, a, rows_b, b, r, index):
    """The pairs (row, a[i], b[j]) with rows_a[i] = rows_b[j] = row, over an r-row stack
    whose entries come as ``np.nonzero`` gives them, as rows of the ``index`` dtype and
    the entries' own dtype, in blocks of at most GATHER_BLOCK // PAIR_WIDTH pairs."""
    count = np.bincount(rows_b, minlength=r)
    counts, first = count[rows_a], (np.cumsum(count) - count)[rows_a]
    for blk in ragged_blocks(counts, PAIR_WIDTH):
        c = counts[blk]
        at = np.repeat((first[blk] - (np.cumsum(c) - c)).astype(index), c)
        at += np.arange(len(at), dtype=index)
        yield np.repeat(rows_a[blk].astype(index), c), np.repeat(a[blk], c), b[at]


def _mark(hit, table, row, x, y):
    """Sets hit[row, x y] on the flattened (r, n) mask ``hit``, with flat indices of
    ``row``'s dtype (int32 ones take half the time of 2-D ones); ``row`` is overwritten."""
    n = table.shape[1]
    xy = x.astype(row.dtype)
    xy *= n
    xy += y
    row *= n
    row += table.ravel()[xy]
    hit[row] = True


def _entries(masks, dtype):
    """``np.nonzero`` of a mask stack, its columns cast to ``dtype``."""
    rows, cols = np.nonzero(masks)
    return rows, cols.astype(dtype)


def _close_rows(table, known, frontier, stop=None, commutative=False):
    """Row-wise ``_close``: closes each row of the (r, n) mask stack ``known``, whose
    members outside its ``frontier`` row form a closed set.  Each round multiplies
    every live row's frontier by that row's known set, x y for x in the frontier and
    y x for y outside it (none on a ``commutative`` table), the pairs expanded in
    blocks (``_row_pairs``), indexed in int32 while the flat indices of ``hit`` and
    of the table fit.  A row that meets its row of the mask stack ``stop`` is
    dropped, possibly before it closes, and flagged.

    Returns (known, stopped).
    """
    known = known | frontier
    stopped = np.zeros(len(known), dtype=bool)
    live = np.arange(len(known))
    while live.size:
        if stop is not None:
            met = (known[live] & stop[live]).any(axis=1)
            stopped[live[met]] = True
            live, frontier = live[~met], frontier[~met]
        current = known[live]
        hit = np.zeros(current.size, dtype=bool)
        index = np.int32 if max(hit.size, table.size) <= np.iinfo(np.int32).max else np.int64
        front = _entries(frontier, table.dtype)
        for row, x, y in _row_pairs(*front, *_entries(current, table.dtype), len(live), index):
            _mark(hit, table, row, x, y)
        if not commutative:
            rest = _entries(current & ~frontier, table.dtype)
            for row, y, x in _row_pairs(*rest, *front, len(live), index):
                _mark(hit, table, row, y, x)
        new = hit.reshape(current.shape) & ~current
        known[live] = current | new
        grew = new.any(axis=1)
        live, frontier = live[grew], new[grew]
    return known, stopped


def _cyclic_masks(loop):
    """The distinct subloops <x>, trivial first, then in x order, as (gens, masks).

    The seeds {0, x} close in row blocks of ``_close_rows``, and each block's
    masks not seen before are kept, so gens[i] is the first x with <x> = masks[i].
    """
    n, t = loop.n, loop.table
    commutative, ids, seen = loop.commutative, np.arange(n), {}
    for rows in blocks(n, PAIR_WIDTH * n):
        seeds = ids[rows, None] == ids
        known = seeds.copy()
        known[:, 0] = True
        closed = _close_rows(t, known, seeds, commutative=commutative)[0]
        for x, mask in zip(ids[rows].tolist(), closed):
            key = mask.tobytes()
            if key not in seen:
                seen[key] = (x, mask.copy())
    gens, masks = zip(*seen.values())
    return np.array(gens, dtype=np.int64), np.array(masks)


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _subloops(loop, packed):
    """The subloops with the member masks packed (``np.packbits``) in the rows of
    ``packed``, sorted by (order, members), each proved a subloop by one batched check.

    At equal order, members compare at the least element in which the two sets
    differ, the set holding it first, so the key after the order is the packed
    row, descending.  The check, row block by row block, raises NotASubloop
    (``python -O`` keeps it) unless closing each row adds nothing, each row holds
    the identity 0 and each is closed under inverses.
    """
    order = np.lexsort((*(~packed).T[::-1], _POPCOUNT[packed].sum(axis=1)))
    masks = np.unpackbits(packed[order], axis=1, count=loop.n).view(bool)
    inv = loop.inverse_array()
    for rows in blocks(len(masks), PAIR_WIDTH * loop.n):
        block = masks[rows]
        bad = _close_rows(loop.table, block, block, ~block)[1]
        bad |= ~block[:, 0] | (block & ~block[:, inv]).any(axis=1)
        if bad.any():
            members = np.flatnonzero(block[np.argmax(bad)]).tolist()
            raise NotASubloop(f"{members} is not a subloop: not closed, or missing 0 or an inverse")
    return [Subloop._proved(loop, m) for m in masks]


def all_subloops(loop, lattice_guard=LATTICE_GUARD_DEFAULT):
    """Every subloop, sorted by (order, members), by canonical augmentation.

    The walk is breadth first, one level of the greedy sequences at a time: the
    candidates of a level are its subloops S with each atom generator x past
    S's last greedy generator and outside S, and S v <x> is kept iff x is its
    least member outside S, so each subloop is produced once, from its greedy
    prefix (see the module docstring for the argument).  For s in S and x
    outside S, neither xs nor sx lies in S (else x would, by division in S),
    so x is ruled out at once when some xs or sx lies below x: one product of
    the level's masks with ``below``.  The survivors close in ``_close_rows``,
    each stopping at its first member below x outside S.
    """
    if loop.n > lattice_guard:
        raise OrderOverflow("lattice", lattice_guard, loop.n)
    table, n, commutative = loop.table, loop.n, loop.commutative
    gens, masks = _cyclic_masks(loop)
    gens, atoms = gens[1:], masks[1:]
    ids = np.arange(n)
    # below[y, a]: x_a y or y x_a is less than x_a
    below = ((table[gens].T < gens) | (table[:, gens] < gens)).astype(np.float32)
    level, last = masks[:1], np.zeros(1, dtype=gens.dtype)
    found = []
    # a level's rows go in blocks of GATHER_BLOCK // 4 mask entries, the float32
    # product's bytes, and its candidates in blocks of _close_rows rows
    while len(level):
        found.append(np.packbits(level, axis=1))
        grown, grown_last = [], []
        for rows in blocks(len(level), 4 * n):
            current = level[rows]
            todo = (gens > last[rows, None]) & ~current[:, gens]
            todo &= current.astype(np.float32) @ below == 0
            s, a = np.nonzero(todo)
            for b in blocks(len(s), PAIR_WIDTH * n):
                base, atom = current[s[b]], atoms[a[b]]
                merged, stopped = _close_rows(table, base | atom, atom & ~base,
                                              ~base & (ids < gens[a[b], None]), commutative)
                grown.append(merged[~stopped])
                grown_last.append(gens[a[b]][~stopped])
        level = np.concatenate(grown) if grown else level[:0]
        last = np.concatenate(grown_last) if grown else last[:0]
    return _subloops(loop, np.concatenate(found))


def _inside(masks, over):
    """held[i, j] iff the mask masks[i] lies inside the mask over[j]: float32 products
    of row blocks of ``masks`` with the complements of ``over`` are zero there, each
    block of ``masks`` and each product at most GATHER_BLOCK entries."""
    held = np.empty((len(masks), len(over)), dtype=bool)
    for b in blocks(len(masks), masks.shape[1]):
        rows = masks[b].astype(np.float32)
        for c in blocks(len(over), len(rows)):
            held[b, c] = rows @ (~over[c]).T.astype(np.float32) == 0
    return held


def _maximal_members(subloops):
    """The proper members of a subloop list not strictly inside another proper member.

    Members are walked one order at a time, largest first.  Members of one order
    cannot strictly contain one another, and one strictly inside a proper member
    lies inside a maximal one, which is larger and so already kept.  So each
    order's members are tested against the kept maxima only, by ``_inside``.
    """
    proper = [s for s in subloops if not s.is_full]
    masks = np.array([s.mask() for s in proper])
    sizes = np.array([s.size for s in proper])
    kept = np.zeros(len(proper), dtype=bool)
    for size in sorted(set(sizes.tolist()), reverse=True):
        level = sizes == size
        kept[level] = ~_inside(masks[level], masks[kept]).any(axis=1)
    return [s for s, keep in zip(proper, kept.tolist()) if keep]


# -- distinguished subloops --------------------------------------------------


def center(loop):
    """Z(L): the elements commuting with everything and lying in the nucleus."""
    return Subloop(loop, np.flatnonzero(loop.central_mask()))


def associator_subloop(loop):
    """Subloop generated by all associators (a, b, c), read off the tensor A_q."""
    return generate_subloop(loop, np.unique(loop.associator_table()))


def cube_subloop(loop):
    """The set of cubes x^3; in a CML this set is itself a subloop."""
    _require_cml(loop)
    return Subloop(loop, np.unique(_powers(loop, 3)))


def _require_cml(loop):
    if not loop.diagnostics().is_cml:
        raise NotCML(f"{loop.name} does not satisfy the commutative Moufang law")


@dataclass(frozen=True)
class CentralSeries:
    """Ascending central series Z_0 <= Z_1 <= ...; terms[0] is trivial."""

    terms: Tuple[Subloop, ...]

    @property
    def reaches_top(self):
        return self.terms[-1].is_full

    @property
    def nilpotency_class(self) -> Optional[int]:
        return len(self.terms) - 1 if self.reaches_top else None


def upper_central_series(loop):
    """Z_{i+1}/Z_i = Z(L/Z_i), read off A_q.  L/Z_i is a CML, so its centre is its nucleus
    {x : (x, y, z) in Z_i for all y, z}; associators are constant on the cosets of Z(L)."""
    _require_cml(loop)
    terms = [trivial_subloop(loop)]
    while not terms[-1].is_full:
        nuclear = terms[-1].mask()[loop.associator_table()].all(axis=(1, 2))
        lifted = Subloop(loop, np.flatnonzero(nuclear[loop.central_cosets()[1]]))
        if lifted == terms[-1]:
            break
        terms.append(lifted)
    return CentralSeries(terms=tuple(terms))


def maximal_subloops(loop):
    """Maximal proper subloops, as the kernels of the functionals on L / L'L^p."""
    return _maximal_over(loop, associator_subloop(loop))


def _maximal_over(loop, derived):
    """maximal_subloops, given L'.  In a finite CML every maximal subloop M is normal
    of prime index p and contains F = L'L^p (Bruck, A Survey of Binary Systems, 1958),
    so the M of index p are the preimages of the hyperplanes of L / F, p over the primes
    dividing |L / L'|: the kernels of the functionals v != 0 with leading coefficient 1
    on the labels d of ``_labels``, all read off one (h, r) @ (r, n) product."""
    masks = []
    for p, f in _frattini_factors(loop, derived):
        labels = _labels(loop, f, p)
        dtype, r = np.min_scalar_type(len(labels) * (p - 1) ** 2), len(labels)  # holds v d(x)
        v = [w for w in itertools.product(range(p), repeat=r) if next(filter(None, w), 0) == 1]
        masks.extend(np.array(v, dtype=dtype) @ labels.astype(dtype) % p == 0)
    masks.sort(key=lambda m: m.nonzero()[0].tolist())
    return [Subloop._proved(loop, m) for m in masks]


def _frattini_factors(loop, derived):
    """(p, F_p = L'L^p) for each prime p dividing |L / L'|, on a CML."""
    _require_cml(loop)
    for p in _prime_factors(loop.n // derived.size):
        yield p, _join_elements(loop, derived.mask(), _powers(loop, p))


def _labels(loop, f, p):
    """d(x) in Z_p^r for F = L'L^p, as (r, n) digits, proved a homomorphism onto with kernel F:
    from S = F, each step gives s b^k = (s b^(k-1)) b, b the least element outside S,
    d(s) + k e_i, and S must grow exactly p-fold; then d(xy) = d(x) + d(y) on all n^2
    products, in row blocks of at most GATHER_BLOCK digits."""
    t, n = loop.table, loop.n
    r = int(round(np.log(n / f.size) / np.log(p)))
    labels, inside = np.zeros((r, n), dtype=np.min_scalar_type(-2 * p)), f.mask().copy()
    for i in range(r):
        b, src = int(np.argmin(inside)), np.flatnonzero(inside)
        dst = src
        for k in range(1, p):
            dst = t[dst, b]
            inside[dst], labels[:, dst] = True, labels[:, src] + k * (np.arange(r) == i)[:, None]
        if np.count_nonzero(inside) != p * len(src):
            raise AssertionError(f"L / L'L^{p} is not elementary abelian: some S b^k meets S")
    if r == 0 or not inside.all():
        raise AssertionError(f"[L : L'L^{p}] is not a positive power of {p}")
    for rows in blocks(n, n * r):
        gap = labels[:, rows, None] + labels[:, None] - labels.take(t[rows], axis=1)
        if ((gap != 0) & (gap != p)).any():
            raise AssertionError(f"the labels of L / L'L^{p} are not additive")
    return labels


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def frattini_subloop(loop):
    """Intersection of all maximal subloops (the whole loop if none exist)."""
    return _frattini_over(loop, associator_subloop(loop))


def _frattini_over(loop, derived):
    """frattini_subloop, given L': the meet of the F_p = L'L^p, since the maximal
    subloops of index p are the preimages of the hyperplanes of L / F_p, which meet in 0."""
    return _meet(loop, [f for _, f in _frattini_factors(loop, derived)])


def _meet(loop, subloops):
    """Intersection of a list of subloops of the loop; the whole loop if empty."""
    mask = np.ones(loop.n, dtype=bool)
    for s in subloops:
        mask &= s.mask()
    return Subloop(loop, np.flatnonzero(mask))


# -- divisibility and non-generators -----------------------------------------


def is_divisible(loop):
    """True iff x -> x^p is onto for every prime p dividing the exponent."""
    return all(np.unique(_powers(loop, p)).size == loop.n for p in _prime_factors(loop.exponent()))


def non_generator_witness(loop, x, maximals):
    """Members of the first M in ``maximals`` with x not in M and <M, x> = L, or None.

    Exact when ``maximals`` lists every maximal subloop: a proper S with
    <S, x> = L lies in some maximal M, L being finite, and then <M, x> = L
    too.  So x is a non-generator iff this returns None.
    """
    seed = np.arange(loop.n) == int(x)
    return next((m.members for m in maximals if not m.mask()[int(x)]
                 and _close(loop.table, m.mask(), seed, None, loop.commutative).all()), None)
