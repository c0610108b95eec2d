"""Subloop structure: generation, normality, lattices, central series, Frattini.

Subloops are element sets of a parent CayleyLoop.  Closures and the full
lattice run on numpy boolean masks; the lattice is grown from the cyclic
subloops, which is provably complete (every subloop is the join of the
cyclic subloops of its elements).  Normality, L' and the upper central series
read the loop's associator tensor A_q on L/Z(L), one row per centre coset.

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
"""

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    NotASubloop,
    NotCML,
    NotNested,
    OrderOverflow,
    ParseError,
)
from .loop_core import _close, _first_index, _greedy_generators

LATTICE_GUARD_DEFAULT = 128


class Subloop:
    """A validated subloop: closed under product, contains the identity.

    Finite product-closure forces identity and inverse closure, but the
    constructor checks all three anyway, save closure on the whole loop, which
    its Latin table gives, and raises NotASubloop with the first offending pair.
    Only ``_proved``, for a set whose closure its caller has proved, skips them.
    """

    def __init__(self, parent, elements):
        elems = sorted({int(e) for e in elements})
        if not elems:
            raise NotASubloop("a subloop cannot be empty")
        if elems[0] < 0 or elems[-1] >= parent.n:
            raise ParseError(f"element index out of range 0..{parent.n - 1}")
        if 0 not in elems:
            raise NotASubloop("missing identity element 0")
        members = np.array(elems, dtype=np.int64)
        inside = np.zeros(parent.n, dtype=bool)
        inside[members] = True
        if len(elems) < parent.n:
            prods = np.asarray(parent.table[np.ix_(members, members)], dtype=np.int64)
            if not inside[prods].all():
                i, j = np.unravel_index(int(np.argmin(inside[prods])), prods.shape)
                raise NotASubloop(f"not closed: {elems[i]} * {elems[j]} = {int(prods[i, j])} escapes")
            if not inside[np.asarray(parent.inverse_array(), dtype=np.int64)[members]].all():
                raise NotASubloop("not closed under inverses")
        self._fill(parent, tuple(elems), inside)

    @classmethod
    def _proved(cls, parent, members, mask):
        """A subloop whose closure the caller has proved, built without re-validation."""
        return cls.__new__(cls)._fill(parent, members, mask)

    def _fill(self, parent, members, mask):
        self.parent, self.members, self.elements = parent, members, frozenset(members)
        self._mask, self._cosets, self._picked = mask, None, {}
        mask.setflags(write=False)
        return self

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
            kept = sel[self._coset_index()[1]].tolist()
            self._picked[key] = tuple(x for x, keep in zip(self.members, kept) if keep)
        return self._picked[key]

    @property
    def size(self):
        return len(self.members)

    @property
    def is_full(self):
        return len(self.members) == self.parent.n

    @property
    def is_trivial(self):
        return len(self.members) == 1

    def mask(self):
        return self._mask

    def __contains__(self, i):
        return int(i) in self.elements

    def __le__(self, other):
        return self.parent is other.parent and self.elements <= other.elements

    def __eq__(self, other):
        return (
            isinstance(other, Subloop)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def serialize(self):
        return ",".join(str(m) for m in self.members)

    def __repr__(self):
        return f"Subloop(order={self.size} of {self.parent.name})"


def full_subloop(loop):
    return Subloop._proved(loop, tuple(range(loop.n)), np.ones(loop.n, dtype=bool))


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
    indices = [int(i) for i in indices]
    for i in indices:
        if not 0 <= i < loop.n:
            raise ParseError(f"element index {i} out of range 0..{loop.n - 1}")
    return _join_elements(loop, np.arange(loop.n) == 0, indices)


def join(a, b):
    if a.parent is not b.parent:
        raise NotNested("subloops of different parents")
    return _join_elements(a.parent, a.mask(), b.members)


def _join_elements(loop, base, elements):
    """The subloop generated by the subloop with mask ``base`` and ``elements``."""
    seed = np.zeros(loop.n, dtype=bool)
    seed[list(elements)] = True
    return Subloop(loop, np.flatnonzero(_close(loop.table, base, seed)))


def _powers(loop, k):
    """x -> x^k for every x, left-iterated as CayleyLoop.power (k >= 0)."""
    out = np.zeros(loop.n, dtype=np.int64)
    for _ in range(k):
        out = loop.table[np.arange(loop.n), out]
    return out


# -- normality ---------------------------------------------------------------


def _stay_rows(loop, h, k):
    """The normality kernel: (H, K, kpos, S).  Associators are constant on the cosets
    of Z(L), so S is one (f, c, c) gather: S[i, b, c] iff (r_a, r_b, r_c) stays inside
    H, over the f cosets a meeting H, ascending, and the c cosets b, c of K's cached
    ``_coset_index`` (cosets, kpos).  H is normal in K iff S is all true (CML only), so
    one false S[:, b, c] with b, c meeting some T <= K proves H is not normal in T.
    """
    _require_cml(loop)
    k = full_subloop(loop) if k is None else coerce_subloop(loop, k)
    h = coerce_subloop(loop, h)
    if (h.mask() & ~k.mask()).any():
        raise NotNested(f"H (order {h.size}) is not contained in K (order {k.size})")
    violation = loop.inner_identity_violation()
    if violation is not None:
        raise AssertionError(f"inner-mapping identity fails at {violation}; table corrupted")
    cosets, kpos = k._coset_index()
    rows = loop.associator_table()[cosets[k._cosets_meeting(h.mask())]]
    if not k.is_full:
        rows = rows.take(cosets, axis=1).take(cosets, axis=2)
    return h, k, kpos, h.mask().take(rows)


def _normality_matrix(loop, h, k):
    """(H, K, kpos, C), C[b, c] iff (h, r_b, r_c) stays inside H for every h in H,
    over the cosets r_b, r_c meeting K; k_j lies in coset kpos[j]."""
    h, k, kpos, stays = _stay_rows(loop, h, k)
    return h, k, kpos, stays.all(axis=0)


def is_normal(loop, h, k=None):
    """True iff every associator (h, y, x) with y, x in K stays inside H.

    Certified per loop to agree with invariance under the inner maps of K.
    """
    return bool(_stay_rows(loop, h, k)[3].all())


def normality_witness(loop, h, k=None):
    """Least triple (h, y, x) over (H, K, K) whose associator escapes H."""
    h, k, kpos, stays = _stay_rows(loop, h, k)
    failing = ~stays.all(axis=(1, 2))
    if not failing.any():
        return None
    members = np.array(h.members, dtype=np.int64)
    hs = members[np.unique(loop.central_cosets()[1][members], return_index=True)[1]]
    i = np.flatnonzero(failing)[np.argmin(hs[failing])]
    j, l = _first_index(~stays[i][np.ix_(kpos, kpos)])
    return (int(hs[i]), k.members[j], k.members[l])


def _coset_subloop(loop, k, sel):
    """The subloop of K's members in the cosets of Z(L) that the mask ``sel`` picks
    out of K's.  When Z(L) <= K these are whole cosets, and since Z(L) is central
    and nuclear, (xc)(yc') = (xy)cc', so their union is closed iff sel holds the
    identity coset and is closed under L/Z(L)'s product: m^2 reads, not |D|^2.
    Otherwise the members are validated as any Subloop.
    """
    cosets, members = k._coset_index()[0], k._coset_members(sel)
    reps, proj = loop.central_cosets()
    if k.size != len(cosets) * (loop.n // len(reps)):
        return Subloop(loop, members)
    ids, r = cosets[sel], reps[cosets[sel]]
    picked = np.bincount(ids, minlength=len(reps)) > 0
    if not (picked[0] and picked.take(proj.take(loop.table.take(r, 0).take(r, 1))).all()):
        raise AssertionError(f"the cosets {ids.tolist()} of Z(L) are not closed on L/Z(L)")
    return Subloop._proved(loop, members, picked[proj])


# -- the subloop lattice -----------------------------------------------------


def _cyclic_masks(loop):
    """The distinct subloops <x>, trivial first, then in x order, as (gens, masks).

    gens[i] is the first x with <x> = masks[i], so it generates masks[i].
    """
    xs = np.arange(loop.n)
    seen = {}
    for x in range(loop.n):
        mask = _close(loop.table, xs == 0, xs == x)
        seen.setdefault(mask.tobytes(), (x, mask))
    gens, masks = zip(*seen.values())
    return np.array(gens, dtype=np.int64), list(masks)


def cyclic_subloops(loop):
    """Distinct subloops <x>, including the trivial one, sorted."""
    return [Subloop(loop, np.flatnonzero(m)) for m in _sorted_masks(_cyclic_masks(loop)[1])]


def _sorted_masks(masks):
    return sorted(masks, key=lambda m: (int(m.sum()), tuple(np.flatnonzero(m))))


def all_subloops(loop, lattice_guard=LATTICE_GUARD_DEFAULT):
    """Every subloop, sorted by (order, members), by canonical augmentation.

    The worklist holds each subloop S with the last generator g of its greedy
    sequence.  S v <x> is built for the atom generators x > g outside S, and
    kept iff x is its least member outside S, so each subloop is produced once,
    from its greedy prefix (see the module docstring for the argument).
    """
    if loop.n > lattice_guard:
        raise OrderOverflow("lattice", lattice_guard, loop.n)
    table = loop.table
    gens, masks = _cyclic_masks(loop)
    gens, atoms = gens[1:], masks[1:]
    out, worklist = [masks[0]], [(masks[0], 0)]
    while worklist:
        current, last = worklist.pop()
        outside, members = ~current, current.nonzero()[0]
        todo = (gens > last) & outside[gens]
        # x s and s x lie in S v <x>: one below x and outside S rules x out
        xs = gens[todo]
        prods = np.concatenate([table[np.ix_(xs, members)], table[np.ix_(members, xs)].T], axis=1)
        todo[todo] = ~((prods < xs[:, None]) & outside[prods]).any(axis=1)
        for a in todo.nonzero()[0]:
            stop = outside[:gens[a]].nonzero()[0]
            merged = _close(table, current, atoms[a], stop)
            if not merged[stop].any():
                out.append(merged)
                worklist.append((merged, gens[a]))
    return [Subloop(loop, np.flatnonzero(m)) for m in _sorted_masks(out)]


def _maximal_members(subloops):
    """The proper members of a subloop list not strictly inside another proper member.

    Members are walked by decreasing order.  One strictly inside a proper member
    lies inside a maximal one, which is larger and so already kept, so each is
    tested against the kept maxima only.
    """
    proper = [s for s in subloops if not s.is_full]
    tops = []
    for s in sorted(proper, key=lambda s: -s.size):
        if not any(s.elements < t.elements for t in tops):
            tops.append(s)
    kept = set(tops)
    return [s for s in proper if s in kept]


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
    """Maximal proper subloops, as the preimages of the hyperplanes of L / L'L^p."""
    _require_cml(loop)
    return _maximal_over(loop, associator_subloop(loop))


def _maximal_over(loop, derived):
    """maximal_subloops, given the associator subloop L' of the loop, by joins in L.

    In a finite CML every maximal subloop M is normal of prime index p and
    contains L'L^p (Bruck, A Survey of Binary Systems, 1958), so L / L'L^p is
    elementary abelian and the M of index p are the preimages of its
    hyperplanes, p over the primes dividing |L / L'|.  With F = L'L^p and a
    basis b_1..b_r of L mod F, the hyperplane with leading index i and weights
    w_j for j > i is the kernel of b_i -> 1, b_j -> 0 below i, b_j -> w_j
    above i; it is spanned by the b_j below i and b_j b_i^(p - w_j) above i,
    so its preimage is F joined with those elements.  Each must have index p.
    """
    _require_cml(loop)
    t, n = loop.table, loop.n
    out = []
    for p in _prime_factors(n // derived.size):
        f = _join_elements(loop, derived.mask(), _powers(loop, p))
        basis = list(_greedy_generators(t, f.mask()))
        for i, lead in enumerate(basis):
            above = basis[i + 1:]
            for weights in itertools.product(range(p), repeat=len(above)):
                gens = basis[:i] + [t[b, loop.power(lead, p - w)] for b, w in zip(above, weights)]
                m = _join_elements(loop, f.mask(), gens)
                assert m.size * p == n, f"a hyperplane of L / L'L^{p} has index {n // m.size}"
                out.append(m)
    uniq = {s.elements: s for s in out}
    return sorted(uniq.values(), key=lambda s: s.members)


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def frattini_subloop(loop):
    """Intersection of all maximal subloops (the whole loop if none exist)."""
    return _meet(loop, maximal_subloops(loop))


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
    return next((m.members for m in maximals
                 if not m.mask()[int(x)] and _close(loop.table, m.mask(), seed).all()), None)
