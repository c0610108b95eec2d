"""Exact permutation groups at desk scale, on integer arrays.

A group's generators, its chain's transversals and its enumerated
elements are (k, degree) arrays of image rows in the loop table's dtype
(int16 up to degree 32768), multiplied by the gathers of ``perm_rows``.
``Permutation`` is the public value type only; no tuple copy of an array
is kept.

Groups carry a stabilizer chain built from Schreier's lemma, a base and
strong generating set by construction: order is the product of
transversal sizes and membership is a sift.  The chain, and with it the
element order, is fixed bit for bit: the base is the least moved point;
the transversal is a breadth-first search over orbit points in sorted
order and generators in order, the first representative of a point
winning; the next level's generators are the Schreier generators
rep(g(pt))^-1 * g * u_pt over sorted points and ordered generators,
without the identity or repeats.  Elements enumerate as rep_1 * rep_2 *
... with each level's representatives in sorted point order.  No
randomization anywhere.

Subgroups of an enumerated G are masks over its element order, a member's
position read off its base point images alone; greedy generators close the
mask one row at a time, in place, so the masks that ``_lifts``, ``_derived``
and ``_frattini`` hand out are read-only.  Only a group a public function
returns gets a chain: ``verify`` and ``mloop invariants`` read the masks.
Each term of the upper central series is one gather of the previous term's
mask at the commutator positions p^-1 g^-1 p g, built once per G.
A normalizer N(H) is the stabilizer of H in the conjugation action: H's
orbit under the reduced generators is enumerated with O(|G|) memory, and
each element is labelled with its conjugate of H down a breadth-first tree
of G's Cayley graph, both built once per G.
"""

from collections import namedtuple
from math import lcm, prod

import numpy as np

from .errors import DegreeMismatch, NotNilpotent, NotSubgroup, OrderOverflow
from .loop_core import CayleyLoop, _index_dtype
from .perm_rows import blocks, compose, fresh, inverse, row_keys, row_set
from .structure import _maximal_members, _meet, _prime_factors, all_subloops

ELEMENT_GUARD_DEFAULT = 10**6
FRATTINI_ORACLE_GUARD = 512


class Permutation:
    """A permutation of {0..n-1}; images[i] is the image of point i."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(int(i) for i in images)
        n = len(imgs)
        if sorted(imgs) != list(range(n)):
            raise DegreeMismatch(f"images {imgs} are not a bijection on 0..{n - 1}")
        self.images = imgs

    @classmethod
    def identity(cls, n):
        return cls._raw(tuple(range(n)))

    @classmethod
    def _raw(cls, images):
        p = object.__new__(cls)
        p.images = images
        return p

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        """Composition: (p * q)(i) = p(q(i))."""
        if len(self.images) != len(other.images):
            raise DegreeMismatch(
                f"degree {len(self.images)} vs {len(other.images)}"
            )
        a, b = self.images, other.images
        return Permutation._raw(tuple(a[b[i]] for i in range(len(a))))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation._raw(tuple(inv))

    def conjugate_by(self, g):
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def is_identity(self):
        return all(i == img for i, img in enumerate(self.images))

    def order(self):
        return lcm(*self.cycle_lengths())

    def cycle_lengths(self):
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            length = 0
            p = start
            while not seen[p]:
                seen[p] = True
                p = self.images[p]
                length += 1
            out.append(length)
        return out

    def serialize(self):
        return list(self.images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def perm_from_cycles(n, cycles):
    """Build a degree-n permutation from disjoint cycles like [(0, 1, 2)]."""
    images = list(range(n))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


def _rows(degree, perms):
    """(k, degree) image rows of Permutations or image sequences, or of an integer array."""
    if not isinstance(perms, np.ndarray):
        perms = [getattr(p, "images", p) for p in perms]
        if any(len(p) != degree for p in perms):
            raise DegreeMismatch(f"a permutation's degree is not the group degree {degree}")
        perms = np.array(perms, dtype=np.int64).reshape(len(perms), degree)
    bad = perms.ndim != 2 or perms.shape[1] != degree
    if bad or (np.sort(perms, axis=1) != np.arange(degree)).any():
        raise DegreeMismatch(f"rows of shape {perms.shape} are not bijections of 0..{degree - 1}")
    return perms.astype(_index_dtype(degree), copy=False)


def _distinct(rows):
    """The rows without the identity and repeats, first occurrence first."""
    return fresh(rows, {np.arange(rows.shape[1], dtype=rows.dtype).tobytes()})


def _perms(rows):
    return [Permutation._raw(tuple(r)) for r in rows.tolist()]


# reps: the transversal, sorted by the point rep(base); inverses: reps^-1;
# slot[pt]: the row of pt's rep, -1 off the orbit
_ChainLevel = namedtuple("_ChainLevel", "base generators reps inverses slot")


class PermGroup:
    """Immutable permutation group with a stabilizer chain.

    ``generators`` may be Permutations or a (k, degree) integer array of
    image rows; the identity and repeats are dropped, first occurrence kept.
    ``_stabilizer``, for ``mult_group`` only, is the first base point's known stabilizer.
    """

    def __init__(self, degree, generators=(), *, _stabilizer=None):
        self.degree = int(degree)
        self.gen_array = _distinct(_rows(self.degree, generators))
        self.gen_array.setflags(write=False)
        self.chain = self._build_chain(_stabilizer)
        self.base = [level.base for level in self.chain]
        self._elements = None
        self._reduced = None
        self._conjugation = None
        self._commutators = None
        self._derived = None

    @property
    def generators(self):
        return tuple(_perms(self.gen_array))

    # -- chain construction --------------------------------------------------

    def _build_chain(self, stabilizer=None):
        levels = []
        gens = self.gen_array
        ident = np.arange(self.degree, dtype=gens.dtype)
        while len(gens):
            base = int(np.flatnonzero((gens != ident).any(axis=0))[0])
            # breadth-first transversal; each round's frontier is the points of
            # its new reps, taken in sorted order, then generators in order
            known = ident == base
            reps = last = ident[None]
            while len(last):
                images = gens[:, last[:, base]].T.ravel()
                unseen = np.flatnonzero(~known[images])
                points, first = np.unique(images[unseen], return_index=True)
                known[points] = True
                pos = unseen[first]  # first find of each new point wins
                last = compose(gens[pos % len(gens)], last[pos // len(gens)])
                reps = np.concatenate([reps, last])
            reps = reps[np.argsort(reps[:, base])]
            slot = np.full(self.degree, -1)
            slot[reps[:, base]] = np.arange(len(reps))
            inverses = inverse(reps)
            levels.append(_ChainLevel(base, gens, reps, inverses, slot))
            if stabilizer is not None:
                return tuple(levels) + stabilizer.chain
            # Schreier generators rep(g(pt))^-1 * (g * u_pt), deduplicated
            seen = {ident.tobytes()}
            stab = []
            for b in blocks(len(reps), len(gens) * self.degree):
                gu = gens[:, reps[b]]  # [g, pt, i] = g(u_pt(i))
                back = inverses[slot[gens[:, reps[b, base]]]]
                s = np.take_along_axis(back, gu, axis=2).transpose(1, 0, 2)
                stab.append(fresh(s.reshape(-1, self.degree), seen))
            gens = np.concatenate(stab)
        return tuple(levels)

    # -- queries -------------------------------------------------------------

    def order(self):
        return prod(len(level.reps) for level in self.chain)

    def _sift(self, rows):
        """Factor each row through the chain: (residues, mask of members)."""
        rows = np.array(rows)
        alive = np.ones(len(rows), dtype=bool)
        for level in self.chain:
            slot = level.slot[rows[:, level.base]]
            alive &= slot >= 0
            live = np.flatnonzero(alive)
            rows[live] = compose(level.inverses[slot[live]], rows[live])
        return rows, alive & (rows == np.arange(self.degree)).all(axis=1)

    def sift(self, p):
        """Factor p through the chain; returns the residue (identity iff member)."""
        residue, _ = self._sift(_rows(self.degree, [p]))
        return _perms(residue)[0]

    def contains_rows(self, rows):
        """Boolean mask: which rows of a (k, degree) array lie in the group."""
        return self._sift(_rows(self.degree, rows))[1]

    def contains(self, p):
        return bool(self.contains_rows([p])[0])

    __contains__ = contains

    def _index(self, images):
        """Positions in ``element_array()`` of the members with base point images
        ``images[..., i]``: level slots are mixed-radix digits; off-orbit is fatal."""
        images = np.array(images, dtype=np.intp)
        index = np.zeros(images.shape[:-1], dtype=np.intp)
        for i, level in enumerate(self.chain):
            slot = level.slot[images[..., i]]
            assert (slot >= 0).all(), "a base image is off its orbit: the row is not in the group"
            index = index * len(level.reps) + slot
            images[..., i + 1:] = level.inverses[slot[..., None], images[..., i + 1:]]
        return index

    def element_array(self):
        """All elements as a read-only (order, degree) array, identity first."""
        if self.order() > ELEMENT_GUARD_DEFAULT:
            raise OrderOverflow("element", ELEMENT_GUARD_DEFAULT, self.order())
        if self._elements is None:
            elems = np.arange(self.degree, dtype=self.gen_array.dtype)[None]
            for level in reversed(self.chain):
                elems = level.reps[:, elems].reshape(-1, self.degree)
            elems.setflags(write=False)
            self._elements = elems
        return self._elements

    def enumerate_elements(self):
        return _perms(self.element_array())

    def element_keys(self):
        """Frozenset of image tuples, for set comparisons of groups."""
        return row_set(self.element_array())

    def is_subgroup_of(self, other):
        return self.degree == other.degree and bool(other.contains_rows(self.gen_array).all())

    def serialize(self):
        return {"degree": self.degree, "order": self.order(), "generators": self.gen_array.tolist()}

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order()})"


def group_from_generators(gens, degree=None):
    if degree is None:
        if not gens:
            raise DegreeMismatch("degree required for an empty generator list")
        degree = gens[0].degree
    return PermGroup(degree, gens)


# -- subgroups, as masks over the element index of G ------------------------


def _inverse_at(G, points):
    """Row g of ``points`` mapped by g^-1, g = rep_1 * rep_2 * ... read off g's position."""
    digits = np.unravel_index(np.arange(len(points)), [len(level.reps) for level in G.chain])
    for level, digit in zip(G.chain, digits):
        points = level.inverses[digit[:, None], points]
    return points


def _close(G, mask, gens):
    """The mask closed under right multiplication by the rows ``gens``, gathering
    the frontier's products in blocks of at most GATHER_BLOCK base images."""
    frontier = np.flatnonzero(mask)
    while len(frontier):
        known = mask.copy()
        for b in blocks(len(frontier), len(gens) * len(G.base)):
            mask[G._index(G.element_array()[frontier[b, None, None], gens[:, G.base]])] = True
        frontier = np.flatnonzero(mask & ~known)
    return mask


def _grow(G, mask, gens, rows):
    """The greedy kernel: append to the generator rows ``gens`` each member row of
    ``rows``, in order, outside the subgroup ``mask`` generated so far, closing
    the mask after each.  Returns (mask, gens)."""
    for i, row in zip(G._index(rows[:, G.base]).tolist(), rows):
        if not mask[i]:
            gens = np.concatenate([gens, row[None]])
            mask = _close(G, mask, gens)
    return mask, gens


def _generators(G, mask):
    """Greedy generator rows of the subgroup ``mask``, from its members in element order."""
    elements = G.element_array()
    return _grow(G, np.arange(G.order()) == 0, elements[:0], elements[mask])[1]


def _reduced_rows(G):
    if G._reduced is None:
        G._reduced = _grow(G, np.arange(G.order()) == 0, G.gen_array[:0], G.gen_array)[1]
    return G._reduced


def reduced_generators(G):
    """A greedy irredundant generating subset (same group, fewer iterations)."""
    return _perms(_reduced_rows(G))


def _powers(G, p):
    """Positions of g^p for each g in G, from g's base point images alone."""
    elements = G.element_array()
    images = np.broadcast_to(np.array(G.base, dtype=np.intp), (len(elements), len(G.base)))
    for _ in range(p):
        images = np.take_along_axis(elements, images, axis=1)
    return G._index(images)


def _conjugation(G):
    """(conj, levels), built once per G: conj[j, i] is the position of
    s_j^-1 e_i s_j for the reduced generators s_j, and levels is a breadth-first
    tree of the right Cayley graph, rounds of (points, parents, j) with
    e_point = e_parent s_j, the first find of a point winning."""
    if G._conjugation is None:
        elements, gens = G.element_array(), _reduced_rows(G)
        conj = np.empty((len(gens), G.order()), dtype=np.intp)
        right = np.empty_like(conj)  # right[j, i]: the position of e_i s_j
        for j, (s, s_inv) in enumerate(zip(gens, inverse(gens))):
            images = elements[:, s[G.base]]  # e_i s_j at the base points
            right[j], conj[j] = G._index(images), G._index(s_inv[images])
        seen, frontier, levels = np.arange(G.order()) == 0, np.zeros(1, dtype=np.intp), []
        while len(frontier):
            points, first = np.unique(right[:, frontier], return_index=True)
            new = ~seen[points]
            seen[points[new]] = True
            j, k = np.divmod(first[new], len(frontier))
            levels.append((points[new], frontier[k], j))
            frontier = points[new]
        assert seen.all(), "the Cayley tree misses an element of G"
        G._conjugation = conj, levels[:-1]  # the last round finds no new point
    return G._conjugation


def _normalizer_mask(G, mask):
    """Mask of N(H) for the subgroup H = ``mask``: the stabilizer of H in the
    conjugation action.  H's orbit, each conjugate keyed by its sorted member
    positions, holds [G:N(H)] * |H| <= |G| positions; each g is labelled with
    H^g down the Cayley tree, H^(e s_j) = (H^e)^(s_j)."""
    conj, levels = _conjugation(G)
    frontier = np.flatnonzero(mask)[None]
    index = dict.fromkeys(row_keys(frontier), 0)
    moves = []  # moves[o][j]: the orbit point of (H^g)^(s_j) for H^g the o-th point
    while len(frontier):
        images = np.sort(conj[:, frontier], axis=2).reshape(-1, frontier.shape[1])
        known = len(index)
        label = np.array([index.setdefault(key, len(index)) for key in row_keys(images)], dtype=np.intp)
        moves.append(label.reshape(len(conj), len(frontier)).T)
        points, first = np.unique(label, return_index=True)
        frontier = images[first[points >= known]]
    moves = np.concatenate(moves)
    label = np.zeros(G.order(), dtype=np.intp)
    for points, parents, j in levels:
        label[points] = moves[label[parents], j]
    return label == 0


def _commutators(G):
    """Read-only (k, |G|) positions, built once per G: [j, i] is the position of
    e_i^-1 s_j^-1 e_i s_j for the reduced generators s_j."""
    if G._commutators is None:
        gens = _reduced_rows(G)
        comm = np.empty((len(gens), G.order()), dtype=np.intp)
        for j, (g, g_inv) in enumerate(zip(gens, inverse(gens))):
            comm[j] = G._index(_inverse_at(G, g_inv[G.element_array()[:, g[G.base]]]))
        comm.setflags(write=False)
        G._commutators = comm
    return G._commutators


def _lifts(G, inside):
    """Read-only mask of the p in G with p^-1 g^-1 p g in the mask ``inside`` for every
    reduced generator g."""
    lifted = inside[_commutators(G)].all(axis=0)
    lifted.setflags(write=False)
    return lifted


def _central_series(G):
    """Masks of the upper central series Z_0 <= Z_1 <= ..., up to its first repeat."""
    masks = [np.arange(G.order()) == 0]
    while not masks[-1].all():
        nxt = _lifts(G, masks[-1])
        if nxt.sum() == masks[-1].sum():
            break
        masks.append(nxt)
    return masks


def _normal_closure(G, seeds):
    """(mask, generator rows) of the least normal subgroup containing the member
    rows ``seeds``: each distinct seed is a generator, then, last in first out,
    each conjugate g^-1 h g of a generator h by the reduced generators g in
    order that lies outside the subgroup so far."""
    conj = _reduced_rows(G)
    conj_inv = inverse(conj)
    gens = _distinct(seeds)
    mask = _close(G, np.arange(G.order()) == 0, gens)
    work = list(gens)
    while work:
        h = work.pop()
        known = len(gens)
        mask, gens = _grow(G, mask, gens, compose(conj_inv, h[conj]))
        work.extend(gens[known:])
    return mask, gens


def _derived(G):
    """(mask, generator rows) of G', the normal closure of the commutators of
    the reduced generators (built once per G; the mask is read-only)."""
    if G._derived is None:
        gens = _reduced_rows(G)
        inv = inverse(gens)
        a, b = np.divmod(np.arange(len(gens) ** 2), len(gens))
        G._derived = _normal_closure(G, compose(compose(inv[a], inv[b]), compose(gens[a], gens[b])))
        G._derived[0].setflags(write=False)
    return G._derived


def center_of_group(G):
    """Elements commuting with every generator (hence with everything)."""
    return PermGroup(G.degree, _generators(G, _lifts(G, np.arange(G.order()) == 0)))


def normal_closure(G, seeds):
    """Least normal subgroup of G containing the seed permutations."""
    rows = _rows(G.degree, seeds)
    if not G.contains_rows(rows).all():
        raise NotSubgroup("a seed is not contained in G (sift failed)")
    return PermGroup(G.degree, _normal_closure(G, rows)[1])


def derived_subgroup(G):
    """Normal closure of the commutators of a generating set."""
    return PermGroup(G.degree, _derived(G)[1])


def upper_central_series_group(G):
    """Ascending chain Z_0 <= Z_1 <= ... over enumerated elements."""
    return [PermGroup(G.degree, _generators(G, mask)) for mask in _central_series(G)]


def is_nilpotent_group(G):
    return bool(_central_series(G)[-1].all())


def _frattini(G):
    """Read-only mask of Phi(G) for a finite nilpotent group G.

    For nilpotent G the maximal subgroups are exactly the index-p
    preimages of hyperplanes mod p, so Phi(G) is the intersection over
    primes p | order(G) of G' * <g^p : g in G>.  (The intersection over
    primes matters as soon as the order is not a prime power.)
    """
    if not is_nilpotent_group(G):
        raise NotNilpotent(f"group of order {G.order()} has a stalled center chain")
    elements = G.element_array()
    inside = np.ones(len(elements), dtype=bool)
    for p in _prime_factors(G.order()):
        mask, gens = _derived(G)
        inside &= _grow(G, mask.copy(), gens, elements[np.unique(_powers(G, p))])[0]
    inside.setflags(write=False)
    return inside


def frattini_subgroup(G):
    """Frattini subgroup of a finite nilpotent group (see ``_frattini``)."""
    return PermGroup(G.degree, _generators(G, _frattini(G)))


def frattini_subgroup_oracle(G):
    """Intersection of maximal subgroups, by exhaustive subgroup search.

    The group's own Cayley table is a (Latin, associative) loop table, so
    the subloop-lattice machinery enumerates exactly the subgroups.
    """
    order = G.order()
    if order > FRATTINI_ORACLE_GUARD:
        raise OrderOverflow("frattini-oracle", FRATTINI_ORACLE_GUARD, order)
    elements = G.element_array()
    # [a, b] = a * b, found by its base images a(b(base))
    cayley = CayleyLoop(G._index(elements[:, elements[:, G.base]]), name="cayley")
    lattice = all_subloops(cayley, lattice_guard=FRATTINI_ORACLE_GUARD)
    common = _meet(cayley, _maximal_members(lattice))
    return PermGroup(G.degree, elements[list(common.members)])


def normalizer_of_subgroup(G, H):
    """{g in G : g^-1 H g = H} over enumerated elements of G."""
    if not H.is_subgroup_of(G):
        raise NotSubgroup("H is not contained in G (generator sift failed)")
    mask = _close(G, np.arange(G.order()) == 0, H.gen_array)
    return PermGroup(G.degree, _generators(G, _normalizer_mask(G, mask)))


def is_divisible_group(G):
    """Finite specialization: p-power maps are onto only in the trivial group.

    The primes dividing the exponent are those dividing the order (Cauchy).
    """
    order = G.order()
    divisible = all(len(np.unique(_powers(G, p))) == order for p in _prime_factors(order))
    assert divisible == (order == 1), "finite divisible group must be trivial"
    return divisible
