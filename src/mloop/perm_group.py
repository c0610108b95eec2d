"""Exact permutation groups at desk scale, on integer arrays.

A group's generators and its chain's transversals are (k, degree) arrays of
image rows in the loop table's dtype (int16 up to degree 32768), multiplied
by the flat gathers of ``perm_rows``; ``Permutation`` is the public value
type only.  Groups carry a stabilizer chain built from Schreier's lemma, a
base and strong generating set by construction: order is the product of
transversal sizes and membership is a sift.  The chain is fixed bit for bit:
the base is the least moved point; the transversal is a breadth-first search
over orbit points in sorted order and generators in order, the first
representative of a point winning; the next level's generators are the
Schreier generators rep(g(pt))^-1 * g * u_pt over sorted points and ordered
generators, without the identity or repeats.  No randomization anywhere.

The element at mixed-radix digits (d_1, ..., d_b), each level's
representatives in sorted point order, is rep_1[d_1] * ... * rep_b[d_b].
Subgroups are read-only masks over this element order, a member's position
read off its base point images alone.  The mask kernels never build the
element table: G keeps, for each point a kernel asks about, the column of
every element's image of it, built once; any other image is a walk of b flat
takes down the chain, and a full row is built only for a generator the
greedy kernel appends.  ``element_array()`` serves callers that need every
row.  Z(G) is tested only on the elements whose image of the first base point
the point stabilizer fixes; a group of prime-power order is nilpotent by its
order, and otherwise iff each Sylow subgroup is normal, counted off the p-th
power positions; Phi(G) grows G' by the reduced generators' p-th powers.  A
normalizer N(H) is the stabilizer of H in the conjugation action, each element
labelled with its conjugate of H down a breadth-first tree of G's Cayley
graph.  The conjugation table and the tree are built once per G.
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
            raise DegreeMismatch(f"degree {len(self.images)} vs {len(other.images)}")
        a, b = self.images, other.images
        return Permutation._raw(tuple(a[b[i]] for i in range(len(a))))

    def inverse(self):
        return Permutation._raw(tuple(np.argsort(self.images).tolist()))

    def order(self):
        return lcm(*self.cycle_lengths())

    def cycle_lengths(self):
        seen, out = set(), []
        for p in range(len(self.images)):
            length = 0
            while p not in seen:
                seen.add(p)
                p, length = self.images[p], length + 1
            if length:
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


# reps: the transversal, sorted by rep(base); inverses: reps^-1; slot[pt]: pt's rep, -1 off the orbit
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
        self._store = np.empty((0, self.order()), dtype=self.gen_array.dtype)  # see _columns
        self._column_of = np.full(self.degree, -1)
        self._elements = self._reduced = self._conjugation = self._derived = None

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
                gu = gens.take(reps[b], axis=1).transpose(1, 0, 2)  # [pt, g, i] = g(u_pt(i))
                back = slot[gens[:, reps[b, base]]].T[..., None] * self.degree
                stab.append(fresh(inverses.take(back + gu).reshape(-1, self.degree), seen))
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
        return _perms(self._sift(_rows(self.degree, [p]))[0])[0]

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
            slot = level.slot.take(images[..., i])
            assert (slot >= 0).all(), "a base image is off its orbit: the row is not in the group"
            index = index * len(level.reps) + slot
            later = images[..., i + 1:]
            later[...] = level.inverses.take(slot[..., None] * self.degree + later)
        return index

    def element_array(self):
        """All elements as a read-only (order, degree) array, identity first."""
        _order(self)
        if self._elements is None:
            elems = np.arange(self.degree, dtype=self.gen_array.dtype)[None]
            for level in reversed(self.chain):
                elems = level.reps.take(elems, axis=1).reshape(-1, self.degree)
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


def _order(G):
    """|G|, asked before any array of |G| entries is made: refused above the element guard."""
    if G.order() > ELEMENT_GUARD_DEFAULT:
        raise OrderOverflow("element", ELEMENT_GUARD_DEFAULT, G.order())
    return G.order()


def _trivial(G):
    return np.arange(_order(G)) == 0


def _walk(G, positions, points, inverted=False):
    """Row i of ``points`` mapped by the element e at ``positions[i]``, or by e^-1:
    e = rep_1 * rep_2 * ... at the mixed-radix digits of its position, one flat
    take per level, innermost first."""
    steps = []
    for level in reversed(G.chain):
        positions, digit = np.divmod(positions, len(level.reps))
        steps.append((level.inverses if inverted else level.reps, digit[:, None] * G.degree))
    for table, offset in reversed(steps) if inverted else steps:
        points = table.take(offset + points)
    return points


def _rows_at(G, positions):
    """The full rows of the elements at ``positions``."""
    ident = np.arange(G.degree, dtype=G.gen_array.dtype)
    return _walk(G, np.asarray(positions), np.tile(ident, (len(positions), 1)))


def _columns(G, points):
    """The rows of G's column store for ``points`` (any shape).  Store row r holds
    every element's image of one point, in element order, built on first use as
    ``element_array`` builds rows, on that point alone; the store doubles when full."""
    order, rows = _order(G), G._column_of[points]
    new = np.unique(np.asarray(points)[rows < 0])
    if len(new):
        cols = new[None]
        for level in reversed(G.chain):
            cols = level.reps.take(cols, axis=1).reshape(-1, len(new))
        used = int(np.count_nonzero(G._column_of >= 0))
        if used + len(new) > len(G._store):
            spare = np.empty_like(G._store, shape=(max(used, len(new)), order))
            G._store = np.concatenate([G._store, spare])
        G._store[used:used + len(new)] = cols.T
        G._column_of[new] = np.arange(used, used + len(new))
        rows = G._column_of[points]
    return rows


def _images(G, points):
    """(|G|, len(points)): every element's images of ``points``, off the column store."""
    rows = _columns(G, points)
    return G._store.take(rows, axis=0).T


def _close(G, mask, gens, closed=0):
    """The mask closed under right multiplication by the rows ``gens``: the frontier's
    products at the base points are read off the columns of the gens' base images,
    in blocks of at most GATHER_BLOCK.  The mask is already closed under the first
    ``closed`` rows, so the first round multiplies by the later rows only."""
    rows = _columns(G, gens[:, G.base])
    frontier, new = np.flatnonzero(mask), rows[closed:]
    while len(frontier) and not mask.all():
        known = mask.copy()
        for b in blocks(len(frontier), new.size):
            mask[G._index(G._store[new, frontier[b, None, None]])] = True
        frontier, new = np.flatnonzero(mask & ~known), rows
    return mask


def _grow(G, mask, gens, positions):
    """The greedy kernel: append to the generator rows ``gens`` each member at
    ``positions``, in order, outside the subgroup ``mask`` generated so far,
    closing the mask after each; only appended rows are built.  Returns (mask, gens)."""
    for i in np.asarray(positions).tolist():
        if not mask[i]:
            gens = np.concatenate([gens, _rows_at(G, [i])])
            mask = _close(G, mask, gens, len(gens) - 1)
    return mask, gens


def _generators(G, mask):
    """Greedy generator rows of the subgroup ``mask``, from its members in element order."""
    return _grow(G, _trivial(G), G.gen_array[:0], np.flatnonzero(mask))[1]


def _reduced_rows(G):
    if G._reduced is None:
        G._reduced = _grow(G, _trivial(G), G.gen_array[:0], G._index(G.gen_array[:, G.base]))[1]
    return G._reduced


def _powers(G, p):
    """Positions of g^p for each g in G, g's base point images walked down the chain."""
    positions = np.arange(_order(G))
    images = np.broadcast_to(np.array(G.base, dtype=np.intp), (len(positions), len(G.base)))
    for _ in range(p):
        images = _walk(G, positions, images)
    return G._index(images)


def _conjugation(G):
    """(conj, levels), built once per G: conj[j, i] is the position of
    s_j^-1 e_i s_j for the reduced generators s_j, and levels is a breadth-first
    tree of the right Cayley graph, rounds of (points, parents, j) with
    e_point = e_parent s_j, the first find of a point winning."""
    if G._conjugation is None:
        gens = _reduced_rows(G)
        conj = np.empty((len(gens), _order(G)), dtype=np.intp)
        right = np.empty_like(conj)  # right[j, i]: the position of e_i s_j
        for j, (s, s_inv) in enumerate(zip(gens, inverse(gens))):
            images = _images(G, s[G.base])  # e_i s_j at the base points
            right[j], conj[j] = G._index(images), G._index(s_inv.take(images))
        seen, frontier, levels = _trivial(G), np.zeros(1, dtype=np.intp), []
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


def _center(G):
    """Read-only mask of Z(G).  For h in the stabilizer G_b of the first base point and
    z central, h z(b) = z h(b) = z(b), so z(b) is fixed by G_b: only the positions whose
    level-0 digit is such a point are tested, each by the base images of cs and sc for
    every reduced generator s, in blocks of at most GATHER_BLOCK."""
    mask = _trivial(G)
    if G.chain:
        orbit = G.chain[0].reps[:, G.base[0]]  # in level-0 digit order
        stab = G.chain[1].generators if len(G.chain) > 1 else G.gen_array[:0]
        width = G.order() // len(orbit)
        fixed = np.flatnonzero((stab[:, orbit] == orbit).all(axis=0))
        cand = (fixed[:, None] * width + np.arange(width)).ravel()
        gens = _reduced_rows(G)
        images = gens[:, G.base]  # s(b_i), one row per generator s
        for c in (cand[b] for b in blocks(len(cand), images.size)):
            cs = _walk(G, c, np.broadcast_to(images.ravel(), (len(c), images.size)))
            sc = gens[:, _walk(G, c, np.broadcast_to(G.base, (len(c), len(G.base))))]
            mask[c] = (cs.reshape(len(c), *images.shape) == sc.transpose(1, 0, 2)).all(axis=(1, 2))
    mask.setflags(write=False)
    return mask


def _normal_closure(G, seeds):
    """(mask, generator rows) of the least normal subgroup containing the member
    rows ``seeds``: each distinct seed is a generator, then, last in first out,
    each conjugate g^-1 h g of a generator h by the reduced generators g in
    order that lies outside the subgroup so far."""
    conj = _reduced_rows(G)
    conj_inv, gens = inverse(conj), _distinct(seeds)
    mask = _close(G, _trivial(G), gens)
    work = list(gens)
    while work:
        h = work.pop()
        known = len(gens)
        mask, gens = _grow(G, mask, gens, G._index(compose(conj_inv, h[conj])[:, G.base]))
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
    return PermGroup(G.degree, _generators(G, _center(G)))


def normal_closure(G, seeds):
    """Least normal subgroup of G containing the seed permutations."""
    rows = _rows(G.degree, seeds)
    if not G.contains_rows(rows).all():
        raise NotSubgroup("a seed is not contained in G (sift failed)")
    return PermGroup(G.degree, _normal_closure(G, rows)[1])


def derived_subgroup(G):
    """Normal closure of the commutators of a generating set."""
    return PermGroup(G.degree, _derived(G)[1])


def _non_normal_sylow(G):
    """The least prime p whose Sylow p-subgroup of G is not normal, or None.  The
    elements of p-power order are the union of the Sylow p-subgroups, so there are
    |G|_p = p^a of them iff that subgroup is unique: a walks of g -> g^p take
    exactly p^a positions to the identity."""
    order = G.order()
    for p in _prime_factors(order):
        step, pos, sylow = _powers(G, p), np.arange(order), 1
        while order % (sylow * p) == 0:
            pos, sylow = step[pos], sylow * p
        if np.count_nonzero(pos == 0) != sylow:
            return p
    return None


def is_nilpotent_group(G):
    """Every group of prime-power order is nilpotent; otherwise G is nilpotent iff each
    Sylow subgroup is normal."""
    return len(_prime_factors(G.order())) <= 1 or _non_normal_sylow(G) is None


def _frattini(G):
    """Read-only mask of Phi(G) for a finite nilpotent group G, whose maximal subgroups
    are the index-p preimages of hyperplanes mod p: Phi(G) is the intersection of
    G' * <g^p : g in G> over every prime p | order(G), which matters as soon as the
    order is not a prime power.  G/G' is abelian, so G' * <s^p : s in S> is the same
    subgroup for any generating set S; S is the reduced generators."""
    if not is_nilpotent_group(G):
        p = _non_normal_sylow(G)
        raise NotNilpotent(f"group of order {G.order()} has a non-normal Sylow {p}-subgroup")
    inside, reduced = np.ones(_order(G), dtype=bool), _reduced_rows(G)
    for p in _prime_factors(G.order()):
        powers = reduced
        for _ in range(p - 1):
            powers = compose(reduced, powers)
        mask, gens = _derived(G)
        inside &= _grow(G, mask.copy(), gens, G._index(powers[:, G.base]))[0]
    inside.setflags(write=False)
    return inside


def frattini_subgroup(G):
    """Frattini subgroup of a finite nilpotent group (see ``_frattini``)."""
    return PermGroup(G.degree, _generators(G, _frattini(G)))


def frattini_subgroup_oracle(G):
    """Intersection of maximal subgroups, by exhaustive subgroup search: the group's
    Cayley table is a (Latin, associative) loop table, whose subloops are its subgroups."""
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
    mask = _close(G, _trivial(G), H.gen_array)
    return PermGroup(G.degree, _generators(G, _normalizer_mask(G, mask)))


def is_divisible_group(G):
    """Finite specialization: p-power maps are onto only in the trivial group.  The
    primes dividing the exponent are those dividing the order (Cauchy)."""
    order = G.order()
    divisible = all(len(np.unique(_powers(G, p))) == order for p in _prime_factors(order))
    assert divisible == (order == 1), "finite divisible group must be trivial"
    return divisible
