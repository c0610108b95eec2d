import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mloop
from mloop import loop_core, mult_group, structure
from mloop import perm_group as pg
from mloop.errors import NotNilpotent, NotSubgroup, OracleDisagreement, OrderOverflow
from mloop.normalizer import ORACLE_SEEDS, NormalizerTrace, _may_join
from mloop.perm_group import ELEMENT_GUARD_DEFAULT, PermGroup, Permutation, _rows
from mloop.perm_rows import cast_blocks, compose, fresh, inverse

# Directory holding the imported `mloop` package (`src/` in a checkout).
MLOOP_SOURCE_ROOT = str(Path(mloop.__file__).resolve().parent.parent)

# Order-6 commutative loop violating the Moufang condition, found by
# exhaustive search over symmetric Latin squares with identity 0.
NONCML6 = np.array(
    [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 3, 4, 5, 0, 1],
        [3, 2, 5, 4, 1, 0],
        [4, 5, 0, 1, 3, 2],
        [5, 4, 1, 0, 2, 3],
    ]
)

# Symmetric group on 3 points, elements enumerated lexicographically,
# table[i][j] = p_i o p_j.  Associative but not commutative.
S3_TABLE = np.array(
    [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 4, 5, 2, 3],
        [2, 3, 0, 1, 5, 4],
        [3, 2, 5, 4, 0, 1],
        [4, 5, 1, 0, 3, 2],
        [5, 4, 3, 2, 1, 0],
    ]
)


@pytest.fixture(scope="session")
def z81():
    return loop_core.gen_zassenhaus81()


@pytest.fixture(scope="session")
def e27():
    return loop_core.gen_abelian((3, 3, 3))


@pytest.fixture(scope="session")
def z81_lattice(z81):
    return structure.all_subloops(z81)


@pytest.fixture(scope="session")
def z81_bundle(z81):
    return mult_group.multiplication_group(z81)


@pytest.fixture()
def noncml6():
    return loop_core.CayleyLoop(NONCML6, name="noncml6")


@pytest.fixture()
def s3_loop():
    return loop_core.CayleyLoop(S3_TABLE, name="sym3")


def run_cli(*args, env_extra=None):
    """Run `python -m mloop ARGS` in a child process and capture its output.

    The child imports the same source tree as the in-process tests: the
    root of the imported package goes first on its PYTHONPATH.
    MLOOP_MAX_ORDER is dropped so that only `env_extra` can set it.
    """
    env = dict(os.environ)
    env.pop("MLOOP_MAX_ORDER", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (MLOOP_SOURCE_ROOT, env.get("PYTHONPATH")) if p
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mloop", *args],
        capture_output=True, text=True, env=env,
    )


def normalizing_maxima(loop, lattice, h):
    """Maximal members of `lattice` in which H is normal, by brute force.

    A route independent of the P/D fixpoint and of greedy saturation:
    every subloop of the lattice that contains H is tested for normality.
    """
    over = [k for k in lattice if h <= k and structure.is_normal(loop, h, k)]
    return [k for k in over if not any(k.elements < t.elements for t in over)]


def gathered_normality_matrix(loop, h, k):
    """(H, K, kpos, C) for one H <= K: C[b, c] iff (h, r_b, r_c) stays inside H for every
    h in H, over the cosets b, c meeting K, read as H's mask gathered at the associators
    A_q[a, b, c] of every coset a meeting H; k_j lies in coset kpos[j].

    A route apart from the value patterns and matrix products of
    `structure._normality_matrix`.
    """
    k = structure.full_subloop(loop) if k is None else structure.coerce_subloop(loop, k)
    h = structure.coerce_subloop(loop, h)
    cosets, kpos = k._coset_index()
    rows = loop.associator_table()[cosets[k._cosets_meeting(h.mask())]]
    rows = rows.take(cosets, axis=1).take(cosets, axis=2)
    return h, k, kpos, h.mask().take(rows).all(axis=0)


def join_oracle(loop, k, h, joins=None):
    """Greedy saturation from H under the seeded orders of ORACLE_SEEDS, as
    `normalizer.normalizer_oracle` runs it but with no coset pre-test: every
    (S, x) pair the runs meet is joined, as S v <x>, and kept iff H's normality
    matrix holds on the cosets it meets; each pair is decided once per call.
    Returns the common subloop or raises OracleDisagreement.  S v <x> depends
    on neither H nor K, so callers on one loop may share the ``joins`` dict
    {(S members, x): S v <x>} between calls.
    """
    h, k, kpos, pairs = gathered_normality_matrix(loop, h, k)
    joins = {} if joins is None else joins
    km, grown_by, outcome = list(k.members), {}, None
    for seed in ORACLE_SEEDS:
        rng = random.Random(seed)
        s, changed = h, True
        while changed:
            changed = False
            candidates = [x for x in k.members if x not in s]
            rng.shuffle(candidates)
            for x in candidates:
                if x in s:
                    continue
                key = (s.members, x)
                if key not in grown_by:
                    if key not in joins:
                        if ((0,), x) not in joins:  # <x> is the join of the trivial S and x
                            joins[(0,), x] = structure.generate_subloop(loop, [x])
                        joins[key] = structure.join(s, joins[(0,), x])
                    sel = np.zeros(len(pairs), dtype=bool)
                    sel[kpos[joins[key].mask()[km]]] = True
                    grown_by[key] = joins[key] if pairs[np.ix_(sel, sel)].all() else None
                if grown_by[key] is not None:
                    s, changed = grown_by[key], True
        if outcome is None:
            outcome = s
        elif s != outcome:
            raise OracleDisagreement(tuple(outcome.members), tuple(s.members))
    return outcome


def maximality_gaps(loop, k, h, trace):
    """Elements x in K outside the result of trace = normalizer(loop, k, h)
    with H still normal in <H, x>.

    An empty list certifies the maximality contrapositive for this input;
    a nonempty list is a counterexample to reading the fixpoint as "the"
    normalizer.  <H, x> is built only for x that pass `normalizer._may_join`.
    """
    h = structure.coerce_subloop(loop, h)
    k, kpos, meet, (pairs,) = structure._normality_matrix(loop, h.mask()[None], k)
    may = _may_join(pairs, meet[0])[kpos]
    gaps = []
    for x, ok in zip(k.members, may.tolist()):
        if ok and x not in trace.result:
            sel = k._cosets_meeting(structure._join_elements(loop, h.mask(), [x]).mask())
            if pairs[sel][:, sel].all():
                gaps.append(int(x))
    return gaps


def cyclic_subloops(loop):
    """Distinct subloops <x>, including the trivial one, sorted by (order, members)."""
    subloops = [structure.Subloop(loop, np.flatnonzero(m)) for m in structure._cyclic_masks(loop)[1]]
    return sorted(subloops, key=lambda s: (s.size, s.members))


def _member_tuples(masks):
    """Member tuples of boolean masks, sorted by (order, members)."""
    return sorted((tuple(int(i) for i in np.flatnonzero(m)) for m in masks),
                  key=lambda members: (len(members), members))


def naive_lattice(loop):
    """Member tuples of every subloop, sorted by (order, members), by the plain
    join-closure: each subloop found is joined with every cyclic subloop
    through `structure._close`, with no early stop.

    A route independent of the greedy generating sequences of `all_subloops`
    and of the atom generators it records.
    """
    base = np.zeros(loop.n, dtype=bool)
    base[0] = True
    found = {}
    for x in range(loop.n):
        seed = base.copy()
        seed[x] = True
        mask = structure._close(loop.table, base, seed)
        found.setdefault(mask.tobytes(), mask)
    atoms = list(found.values())
    worklist = list(atoms)
    while worklist:
        current = worklist.pop()
        for atom in atoms:
            merged = structure._close(loop.table, current, atom)
            if merged.tobytes() not in found:
                found[merged.tobytes()] = merged
                worklist.append(merged)
    return _member_tuples(found.values())


def early_stop_lattice(loop):
    """Member tuples of every subloop, sorted by (order, members), by the
    early-stopping join-closure.  Each subloop S is joined with every atom
    <x_b> outside it, in atom order; if x_b lies in an earlier join
    J_a = S v <x_a>, then S v <x_b> is inside J_a, so once the closure of S
    and <x_b> reaches x_a it contains J_a, and S v <x_b> = J_a.  The
    argument uses closure alone, so it holds for any loop table.

    A route independent of the greedy generating sequences of `all_subloops`.
    """
    gens, masks = structure._cyclic_masks(loop)
    found = {m.tobytes(): m for m in masks}
    atom_gens, atom_masks = gens[1:], masks[1:]
    joins = np.empty((len(atom_masks), loop.n), dtype=bool)
    worklist = list(masks)
    while worklist:
        current = worklist.pop()
        if current.all():
            continue
        # rows not yet joined (or of atoms inside S) hold S itself, which no x_b is in
        joins[:] = current
        for b, (xb, atom) in enumerate(zip(atom_gens, atom_masks)):
            if current[xb]:
                continue
            earlier = joins[:, xb].nonzero()[0]
            stop = atom_gens[earlier]
            merged = structure._close(loop.table, current, atom, stop)
            reached = merged[stop].nonzero()[0]
            if reached.size:
                joins[b] = joins[earlier[reached[0]]]
                continue
            joins[b] = merged
            if merged.tobytes() not in found:
                found[merged.tobytes()] = merged
                worklist.append(merged)
    return _member_tuples(found.values())


def mixed_radix_abelian(moduli):
    """`loop_core.gen_abelian` from the digits of every element at once: the sum
    of x and y is read digit by digit, each mod its modulus, with the strides of
    a mixed-radix code, most significant first."""
    moduli = list(moduli) or [1]
    n = int(np.prod(moduli))
    strides = np.ones(len(moduli), dtype=np.int64)
    for k in range(len(moduli) - 2, -1, -1):
        strides[k] = strides[k + 1] * moduli[k + 1]
    digits = (np.arange(n)[:, None] // strides) % np.array(moduli)
    sums = (digits[:, None, :] + digits[None, :, :]) % np.array(moduli)
    name = "abelian:" + ",".join(str(m) for m in moduli)
    return loop_core.CayleyLoop((sums * strides).sum(axis=2), name=name)


def relabel(loop, seed):
    """(the loop with 1..n-1 renamed by a seeded permutation pi, 0 kept fixed, pi):
    the table conjugated by pi, new[pi(x), pi(y)] = pi(old[x, y])."""
    pi = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(loop.n - 1)])
    table = np.empty_like(loop.table)
    table[np.ix_(pi, pi)] = pi[loop.table]
    return loop_core.CayleyLoop(table, name=f"{loop.name}@{seed}"), pi


def gaussian_binomial(k, j, q=3):
    """The number of j-dimensional subspaces of GF(q)^k."""
    return math.prod(q ** (k - i) - 1 for i in range(j)) // math.prod(q ** (i + 1) - 1 for i in range(j))


def goursat_count(a, k):
    """{order: count} of the subloops of A x Z3^k for a loop A of exponent 3, by
    Goursat's lemma: a subloop is a pair A2 <= A1 of A's subloops with A1/A2
    elementary abelian of rank d (A2 holds every associator of A1, so it is normal
    in A1), a pair B2 <= B1 of subspaces of GF(3)^k with dim B1 - dim B2 = d, and
    an isomorphism A1/A2 -> B1/B2; its order is |A1| * |B2|.  A's lattice is the
    plain join-closure, and its associators are read off the n^3 tensor."""
    assert a.exponent() == 3
    lattice = naive_lattice(a)
    masks = np.zeros((len(lattice), a.n), dtype=bool)
    for row, members in zip(masks, lattice):
        row[list(members)] = True
    tensor, sizes, counts = associator_tensor(a), masks.sum(axis=1), {}
    for size, mask in zip(sizes.tolist(), masks):
        idx = np.flatnonzero(mask)
        below = ~masks[:, ~mask].any(axis=1) & masks[:, tensor[np.ix_(idx, idx, idx)].ravel()].all(axis=1)
        for low in sizes[below].tolist():
            d = round(math.log(size // low, 3))
            for j in range(d, k + 1):
                pairs = gaussian_binomial(k, j) * gaussian_binomial(j, d)
                isos = math.prod(3 ** d - 3 ** i for i in range(d))
                order = size * 3 ** (j - d)
                counts[order] = counts.get(order, 0) + pairs * isos
    return dict(sorted(counts.items()))


def group_cayley_loop(group):
    """A permutation group's Cayley table over its enumerated elements, built
    as `perm_group.frattini_subgroup_oracle` builds it for the lattice."""
    elements = group.element_array()
    return loop_core.CayleyLoop(group._index(elements[:, elements[:, group.base]]), name="cayley")


def element_fixpoint(loop, k, h):
    """The P/D fixpoint as a NormalizerTrace, on H's normality matrix N over
    the members of K: D starts as H, then P = {x : N[D, x] all true} and
    D = {y : N[y, P] all true} until the pair repeats.

    A route independent of the coset stages of `normalizer.normalizer`: the
    (|K| x |K|) matrix is the coset matrix read at each member's coset.
    """
    h, k, kpos, cosets = gathered_normality_matrix(loop, h, k)
    pairs = cosets[np.ix_(kpos, kpos)]
    km = np.array(k.members, dtype=np.int64)
    p_stages, d_stages = [], []
    d_sel = h.mask()[km]
    for _ in range(k.size + 2):
        p_sel = pairs[d_sel].all(axis=0)
        d_sel = pairs[:, p_sel].all(axis=1)
        p_stages.append(tuple(int(i) for i in km[p_sel]))
        d_stages.append(tuple(int(i) for i in km[d_sel]))
        if len(p_stages) >= 2 and p_stages[-1] == p_stages[-2] and d_stages[-1] == d_stages[-2]:
            return NormalizerTrace(p_stages=tuple(p_stages), d_stages=tuple(d_stages),
                                   result=structure.Subloop(loop, d_stages[-1]),
                                   iterations=len(p_stages))
    raise AssertionError(f"the P/D alternation did not settle for H of order {h.size}")


def least_escape(tensor, h, k):
    """Least (h, y, x) over H x K x K with tensor[h, y, x] outside H, or None,
    for the n^3 associator tensor of `associator_tensor`.

    A route independent of the centre cosets of `structure.normality_witness`.
    """
    km = list(k.members)
    inside = h.mask()
    for x in h.members:
        escapes = ~inside[tensor[x][np.ix_(km, km)]]
        if escapes.any():
            j, l = loop_core._first_index(escapes)
            return (x, km[j], km[l])
    return None


def hyperplane_maximals(loop):
    """Member tuples of the maximal subloops, sorted, through quotient loops: for
    each prime p dividing |L/L'|, the preimages of the hyperplanes of
    V = (L/L') / (L/L')^p, each read off the coordinates of V in a basis.

    A route independent of the labelled kernels of `structure.maximal_subloops`
    and of the closures in L of `join_maximals`.
    """
    quot, proj = loop_core.quotient(loop, structure.associator_subloop(loop))
    out = set()
    for p in structure._prime_factors(quot.n):
        powered = structure.Subloop(quot, np.unique([quot.power(x, p) for x in range(quot.n)]))
        vec, vproj = loop_core.quotient(quot, powered)
        for hyper in hyperplanes(vec, p):
            out.add(tuple(int(i) for i in np.flatnonzero(hyper.mask()[vproj][proj])))
    return sorted(out)


def join_maximals(loop):
    """Member tuples of the maximal subloops, sorted, by one closure in L per
    hyperplane of L / F, F = L'L^p: with a greedy basis b_1..b_r of L mod F, the
    hyperplane with leading index i and weights w_j for j > i is spanned by the
    b_j below i and b_j b_i^(p - w_j) above i, so its preimage is F joined with
    those elements, and it must have index p.

    A route independent of the labelled kernels of `structure.maximal_subloops`.
    """
    t, n, out = loop.table, loop.n, set()
    derived = structure.associator_subloop(loop)
    for p in structure._prime_factors(n // derived.size):
        f = structure._join_elements(loop, derived.mask(), structure._powers(loop, p)).mask()
        basis = list(loop_core._greedy_generators(t, f, loop.commutative))
        for i, lead in enumerate(basis):
            above = basis[i + 1:]
            for weights in itertools.product(range(p), repeat=len(above)):
                gens = basis[:i] + [t[b, loop.power(lead, p - w)] for b, w in zip(above, weights)]
                m = structure._join_elements(loop, f, gens)
                assert m.size * p == n, f"a hyperplane of L / L'L^{p} has index {n // m.size}"
                out.add(m.members)
    return sorted(out)


def naive_maximal_members(subloops):
    """`structure._maximal_members` by testing every proper member against every
    other: quadratic in the list length."""
    proper = [s for s in subloops if not s.is_full]
    return [s for s in proper if not any(s.elements < t.elements for t in proper)]


def quotient_central_series(loop):
    """The upper central series through quotient loops: Z_{i+1} is the preimage of
    the centre of L/Z_i, a `loop_core.quotient` whose centre is scanned on its table.

    A route independent of the A_q masks of `structure.upper_central_series`.
    """
    terms = [structure.trivial_subloop(loop)]
    while not terms[-1].is_full:
        quot, proj = loop_core.quotient(loop, terms[-1])
        lifted = structure.Subloop(loop, np.flatnonzero(structure.center(quot).mask()[proj]))
        if lifted == terms[-1]:
            break
        terms.append(lifted)
    return structure.CentralSeries(terms=tuple(terms))


def hyperplanes(vec, p):
    """Index-p subgroups of an elementary abelian p-group given as a loop."""
    basis = []
    span = structure.trivial_subloop(vec)
    for x in range(1, vec.n):
        if x not in span:
            basis.append(x)
            span = structure.join(span, structure.generate_subloop(vec, [x]))
    r = len(basis)
    if r == 0:
        return
    # coordinates of every element in the chosen basis
    coord_arr = np.zeros((vec.n, r), dtype=np.int64)
    elems = [0]
    for k, b in enumerate(basis):
        for e in list(elems):
            acc = e
            for c in range(1, p):
                acc = vec.mul(acc, b)
                coord_arr[acc] = coord_arr[e]
                coord_arr[acc, k] = c
                elems.append(acc)
    # functionals up to scalar: first nonzero weight equals 1
    for lead in range(r):
        tail = r - lead - 1
        for rest in range(p**tail):
            weights = np.zeros(r, dtype=np.int64)
            weights[lead] = 1
            for k in range(tail):
                weights[lead + 1 + k] = (rest // (p ** (tail - 1 - k))) % p
            vals = (coord_arr @ weights) % p
            yield structure.Subloop(vec, np.flatnonzero(vals == 0))


def inner_map_rows(loop):
    """The distinct non-identity inner maps L(xy)^-1 L(x) L(y) over all n^2 pairs,
    in (x, y) order: row y of block x maps z to ldiv[xy, x(yz)].

    A route independent of the centre's cosets, which `multiplication_group` reads.
    """
    t, ld = loop.table, loop.ldiv_table()
    seen = {np.arange(loop.n, dtype=t.dtype).tobytes()}
    return np.concatenate([fresh(ld[t[x][:, None], t[x][t]], seen) for x in range(loop.n)])


def naive_violations(table):
    """(triples breaking (xy)z = x(yz), triples breaking x^2(yz) = (xy)(xz)), each
    list in lexicographic order, by pure-Python triple loops.

    A route independent of the y-block / x-inner `take` scans of `diagnose`;
    accepts any square table with entries in range.
    """
    t = np.asarray(table).tolist()
    assoc, moufang = [], []
    for x, y, z in itertools.product(range(len(t)), repeat=3):
        if t[t[x][y]][z] != t[x][t[y][z]]:
            assoc.append((x, y, z))
        if t[t[x][x]][t[y][z]] != t[t[x][y]][t[x][z]]:
            moufang.append((x, y, z))
    return assoc, moufang


def per_x_least_violations(table, laws, reps):
    """`loop_core._least_violations` with one law call per x per y-block: growing
    y-blocks outer, x inner, and a law found failing at x* tested only at x < x*.

    A route that cuts no x-blocks; each law reads the one-x slice it returns.
    """
    found, bound = [None] * len(laws), [len(reps)] * len(laws)
    for rows, yz in cast_blocks(table[np.ix_(reps, reps)]):
        ys = reps[rows]
        for a in range(max(bound)):
            for i, law in enumerate(laws):
                if a < bound[i]:
                    bad = law(reps[a:a + 1], ys, yz)[0]
                    if bad.any():
                        b, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
                        found[i], bound[i] = (int(reps[a]), int(ys[b]), int(reps[c])), a
    return found


def naive_center(loop):
    """Members of the centre: x commuting with every y and in all three nuclei,
    (xy)z = x(yz), (yx)z = y(xz) and (yz)x = y(zx) for all y, z."""
    t = loop.table.tolist()
    r = range(loop.n)
    return [x for x in r
            if all(t[x][y] == t[y][x] for y in r)
            and all(t[t[x][y]][z] == t[x][t[y][z]] and t[t[y][x]][z] == t[y][t[x][z]]
                    and t[t[y][z]][x] == t[y][t[z][x]] for y in r for z in r)]


def scan_central_mask(loop):
    """Mask of Z(L) by the per-x block scan: growing y-blocks outer, every x that
    commutes and has passed the earlier blocks inner, each tested on
    (xy)z = x(yz) and, unless the table is commutative, x(yz) = y(xz).

    A route that reads no generators and no span: every central x is checked on
    all n^2 pairs (y, z).
    """
    t = loop.table
    central = (t == t.T).all(axis=1)
    commutative = central.all()
    for rows, t_rows in cast_blocks(t):
        for x in central.nonzero()[0]:
            xyz = t[x].take(t_rows)
            central[x] = np.array_equal(t.take(t[x, rows], axis=0), xyz) and (
                commutative or np.array_equal(xyz, t_rows.take(t[x], axis=1)))
    return central


# The full scans of ``central_mask`` on each ``test_scans.centre_scan_loops()`` loop, in
# order, as (name, passing x, failing x), when the pre-filter read the laws at y = g for
# every z, with no pre-test on pairs of L's greedy generators.  The same under each cap.
CENTRE_SCANS = [
    ("sym3", [], []),
    ("noncml6", [1], []),
    ("zassenhaus81", [1], []),
    ("abelian:2,3", [1, 3], []),
    ("abelian:4,4", [1, 4], []),
    ("swapped16", [8], []),
    ("zassenhaus81", [1], []),
    ("noncml6xabelian:3", [1, 3], []),
    ("abelian:3xnoncml6", [1, 6], []),
    ("abelian:2xnoncml6", [1, 6], []),
    ("sym3xabelian:3", [1], []),
    ("swapped16xabelian:3", [1, 24], []),
    ("swapped24xabelian:3", [1, 36], [33, 34, 35, 69, 70, 71]),
    ("abelian:3xswapped24", [12, 24], [11, 23, 35, 47, 59, 71]),
    ("zassenhaus81xabelian:2", [1, 2], []),
    ("abelian:2xzassenhaus81", [1, 81], []),
    ("zassenhaus81xabelian:3", [1, 3], []),
    ("abelian:3xzassenhaus81", [1, 81], []),
    ("zassenhaus81xabelian:2", [1, 2], []),
    ("zassenhaus81xabelian:3", [1, 3], []),
    ("zassenhaus81xabelian:3,3", [1, 3, 9], []),
    ("zassenhaus81xabelian:12", [1, 12], []),
    ("abelian:3,3,3,3,3,3", [1, 3, 9, 27, 81, 243], []),
    ("swapped16", [8], []),
    ("swapped24", [12], [11, 23]),
    ("swapped48", [24], []),
    ("swapped48", [24], [1, 4, 5, 6, 8, 12, 13, 14, 15, 16, 17, 18, 21, 22, 23, 25, 28, 29, 30,
                         32, 36, 37, 38, 39, 40, 41, 42, 45, 46, 47]),
]


def closure_members(table, elements):
    """Sorted members of the subloop generated by ``elements`` and 0: every product
    of two members is added until none is new.  Pure Python, a route apart from
    the frontier rounds of `loop_core._close`."""
    t = table.tolist()
    found = set(int(e) for e in elements) | {0}
    while True:
        grown = found | {t[a][b] for a in found for b in found}
        if grown == found:
            return sorted(found)
        found = grown


def naive_associators(loop):
    """{(a, b, c): k} with (a(bc)) k = (ab)c, read off inverted rows {u k: k} of the table."""
    t = loop.table.tolist()
    ldiv = [{v: k for k, v in enumerate(row)} for row in t]
    return {(a, b, c): ldiv[t[a][t[b][c]]][t[t[a][b]][c]]
            for a, b, c in itertools.product(range(loop.n), repeat=3)}


def swapped_cyclic(n, swaps, seed):
    """Z_n with up to `swaps` seeded intercalates {r, r + n/2} x {c, c + n/2}
    swapped, r, c not in {0, n/2}: a loop which, for the seeds the tests use, is
    neither associative nor Moufang and has far more distinct associator
    columns than z81's 27."""
    rng = np.random.default_rng(seed)
    h = n // 2
    t = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    for _ in range(swaps):
        r, c = rng.integers(1, h, size=2)
        block = np.ix_([r, r + h], [c, c + h])
        if t[r, c] == t[r + h, c + h] and t[r, c + h] == t[r + h, c]:  # still an intercalate
            t[block] = t[block][::-1]
    return loop_core.CayleyLoop(t, name=f"swapped{n}")


def associator_tensor(loop):
    """The n^3 tensor A[x, y, z] = ldiv[x (y z), (x y) z], built straight from the
    table in y-row blocks with x inner.

    A route independent of the centre and of its coset tensor A_q.
    """
    t, n = loop.table, loop.n
    ldiv = loop.ldiv_table().ravel()
    out = np.empty((n, n, n), dtype=t.dtype)
    for rows, t_rows in cast_blocks(t):
        for x in range(n):
            idx = (t[x].astype(np.intp) * n).take(t_rows) + t.take(t[x, rows], axis=0)
            out[x, rows] = ldiv.take(idx)
    return out


def per_rep_associator_table(loop):
    """A_q[a, b, c] = ldiv[r_a (r_b r_c), (r_a r_b) r_c], one (m, m) gather per
    representative r_a: the route apart from ``associator_table``'s blocked gather."""
    t, ldiv = loop.table, loop.ldiv_table()
    reps = loop.central_cosets()[0]
    pairs = t[np.ix_(reps, reps)]  # r_b r_c
    out = np.empty((len(reps),) * 3, dtype=t.dtype)
    for a, x in enumerate(reps):
        out[a] = ldiv[t[x].take(pairs), t.take(t[x, reps], axis=0).take(reps, axis=1)]
    return out


def three_law_central_violation(table, central):
    """``loop_core._central_violation`` with each of its three laws read as written,
    (cy)z = c(yz), (yc)z = y(cz) and (yz)c = y(zc), on an intp copy of the table,
    with no use of commutativity."""
    t = table.astype(np.intp)
    span = np.arange(len(t)) == 0
    for c in np.flatnonzero(central):
        if span[c]:
            continue
        left, right = t[c], t[:, c]
        bad = (t[left] != left.take(t)) | (t[right] != t[:, left]) | (right.take(t) != t[:, right])
        bad |= ((left != right) | (central & ~central[left]))[:, None]
        if bad.any():
            return (int(c),) + loop_core._first_index(bad)
        while not span[left[span]].all():
            span[left[span]] = True
    return None


def lifted_associators(loop):
    """The loop's coset tensor A_q read back on L^3: A_q[x', y', z'] at (x, y, z)."""
    proj = loop.central_cosets()[1]
    return loop.associator_table()[np.ix_(proj, proj, proj)]


def full_tensor_symmetries(loop):
    """(ok, witness) of the three associator laws, each with its least failing
    (x, y, z) over all of L^3, on A_q lifted to L^3.

    A route independent of the coset triples of `verify`'s check.
    """
    assoc, inv = lifted_associators(loop), loop.inverse_array()
    laws = {
        "cyclic": assoc != assoc.transpose(1, 2, 0),  # A[x, y, z] vs A[y, z, x]
        "swap_inverts": assoc != inv[assoc.transpose(1, 0, 2)],  # vs A[y, x, z]^-1
        "inverse_argument": assoc != assoc[inv].transpose(1, 0, 2),  # vs A[y^-1, x, z]
    }
    failures = {label: list(loop_core._first_index(bad)) for label, bad in laws.items() if bad.any()}
    return not failures, failures or None


def full_inner_identity_violation(loop):
    """Least (x, y, z) over all of L^3 with I[x, y, z] != z * (z, y, x), or None:
    row x of the inner-map tensor, I[x, y, z] = ldiv[x y, x (y z)], against
    z * A_q[z', y', x'], one (n, n) gather per x.

    A route independent of the coset representatives, the y-blocks and the
    centre check of `CayleyLoop.inner_identity_violation`.
    """
    t, ldiv = loop.table, loop.ldiv_table()
    assoc, proj = loop.associator_table(), loop.central_cosets()[1]
    z = np.arange(loop.n)[None, :]
    for x in range(loop.n):
        bad = ldiv[t[x][:, None], t[x][t]] != t[z, assoc[proj[z], proj[:, None], proj[x]]]
        if bad.any():
            return (x,) + loop_core._first_index(bad)
    return None


def corrupted_z81(seed, cells):
    """z81 with `cells` seeded cells of a copy of its coset tensor A_q changed."""
    loop = loop_core.gen_zassenhaus81()
    rng = np.random.default_rng(seed)
    assoc = loop.associator_table().copy()
    for w, u, v in rng.integers(0, len(assoc), size=(cells, 3)):
        assoc[w, u, v] = (assoc[w, u, v] + rng.integers(1, 81)) % 81
    assoc.setflags(write=False)
    loop._assoc = assoc
    return loop


EXPANSION_CASES = {
    "sym3": lambda: loop_core.CayleyLoop(S3_TABLE, name="sym3"),
    "noncml6": lambda: loop_core.CayleyLoop(NONCML6, name="noncml6"),
    "abelian:2,3": lambda: loop_core.gen_abelian((2, 3)),
    "swapped24": lambda: swapped_cyclic(24, 10, 24),
    "swapped48": lambda: swapped_cyclic(48, 20, 48),
    **{f"z81-{cells}-cells": (lambda cells=cells: corrupted_z81(cells, cells)) for cells in (1, 2, 3, 4)},
}


def quadruple_product_expansion(loop):
    """(ok, witness) of the product-associator expansion
    (xy, u, v) = [a (a, x, y)] [c (c, y, x)], a = (x, u, v), c = (y, u, v),
    gathered over all (y, u, v) for each x: one verdict per quadruple, with
    the associators read off A_q lifted to L^3.

    A route independent of the column classes of `verify`'s check.
    """
    t = loop.table
    assoc = lifted_associators(loop)
    n = loop.n
    y_col = np.arange(n)[:, None, None]
    violations = 0
    first = None
    for x in range(n):
        a = assoc[x]  # (u, v)
        b = assoc[a[None, :, :], x, y_col]  # (y, u, v)
        c = assoc  # (y, u, v)
        d = assoc[c, y_col, x]
        lhs = assoc[t[x]]  # (y, u, v) = assoc[x*y, u, v]
        rhs = t[t[a[None, :, :], b], t[c, d]]
        bad = lhs != rhs
        if bad.any():
            violations += int(bad.sum())
            if first is None:
                first = (x,) + loop_core._first_index(bad)
    ok = violations == 0
    return ok, None if ok else {"violations": violations, "first_xyuv": list(first)}


# The sift route of the group layer: every conjugate, commutator and power is
# a full degree-n row, sifted through the chain of the subgroup it must lie in,
# and each subgroup is grown by rebuilding its chain for every generator added.
# A route independent of the base-image index and the element masks of
# `perm_group`; the greedy generator choices are the same, so generator rows
# compare bit for bit.


def power(p, k):
    acc = p
    for _ in range(k - 1):
        acc = compose(p, acc)
    return acc


def sift_extend(group, rows, added=None):
    """Add, in order, each row not in the group generated so far.

    One batch sift finds the first non-member; the chain is rebuilt with
    it and the scan resumes after it.  Added rows go to ``added``.
    """
    start = 0
    while True:
        miss = np.flatnonzero(~group.contains_rows(rows[start:]))
        if not len(miss):
            return group
        start += int(miss[0])
        group = PermGroup(group.degree, np.concatenate([group.gen_array, rows[start:start + 1]]))
        if added is not None:
            added.append(rows[start])
        start += 1


def sift_reduced_rows(G):
    return sift_extend(PermGroup(G.degree), G.gen_array).gen_array


def group_from_elements(degree, elements):
    """Group from a (closed) element list, with greedy generator reduction."""
    return sift_extend(PermGroup(degree), _rows(degree, elements))


def sift_normal_closure(G, seeds):
    """Least normal subgroup of G containing the seed permutations."""
    conj = sift_reduced_rows(G)
    conj_inv = inverse(conj)
    H = PermGroup(G.degree, seeds)
    work = list(H.gen_array)
    while work:
        h = work.pop()
        # g^-1 * h * g for each conjugating g, in order
        H = sift_extend(H, compose(conj_inv, h[conj]), work)
    return H


def sift_derived_subgroup(G):
    """Normal closure of the commutators of a generating set."""
    gens = sift_reduced_rows(G)
    inv = inverse(gens)
    a, b = np.divmod(np.arange(len(gens) ** 2), len(gens))
    comms = compose(compose(inv[a], inv[b]), compose(gens[a], gens[b]))
    return sift_normal_closure(G, comms)


def sift_frattini_subgroup(G):
    """Phi(G) of a nilpotent G: the intersection over primes p | order(G) of
    G' * <g^p : g in G>, each sifted as a group of its own."""
    if naive_upper_central_series(G)[-1].order() != G.order():
        raise NotNilpotent(f"group of order {G.order()} has a stalled center chain")
    order = G.order()
    if order == 1:
        return PermGroup(G.degree)
    derived = sift_derived_subgroup(G)
    elements = G.element_array()
    inside = np.ones(len(elements), dtype=bool)
    for p in structure._prime_factors(order):
        gens = np.concatenate([derived.gen_array, power(elements, p)])
        inside &= PermGroup(G.degree, gens).contains_rows(elements)
    return group_from_elements(G.degree, elements[inside])


def sift_is_divisible_group(G):
    """Whether every p-power map is onto, p | order(G), by full power rows."""
    elements = G.element_array()
    return all(len(fresh(power(elements, p), set())) == G.order()
               for p in structure._prime_factors(G.order()))


def naive_lifts(G, N):
    """Mask of the p in G with p^-1 g^-1 p g in N for every reduced generator g."""
    elements = G.element_array()
    inverses = inverse(elements)
    gens = sift_reduced_rows(G)
    mask = np.ones(len(elements), dtype=bool)
    for g, g_inv in zip(gens, inverse(gens)):
        idx = np.flatnonzero(mask)
        comm = compose(inverses[idx], compose(g_inv[None], elements[idx][:, g]))
        mask[idx] = N.contains_rows(comm)
    return mask


def naive_upper_central_series(G):
    """Ascending chain Z_0 <= Z_1 <= ... over enumerated elements."""
    elements = G.element_array()
    terms = [PermGroup(G.degree)]
    while True:
        nxt = group_from_elements(G.degree, elements[naive_lifts(G, terms[-1])])
        if nxt.order() == terms[-1].order():
            break
        terms.append(nxt)
        if nxt.order() == G.order():
            break
    return terms


def naive_normalizer(G, H):
    """{g in G : g^-1 H g = H} over enumerated elements of G."""
    if not H.is_subgroup_of(G):
        raise NotSubgroup("H is not contained in G (generator sift failed)")
    elements = G.element_array()
    inverses = inverse(elements)
    keep = np.ones(len(elements), dtype=bool)
    for h in H.gen_array:
        idx = np.flatnonzero(keep)
        keep[idx] = H.contains_rows(compose(inverses[idx], compose(h[None], elements[idx])))
    return group_from_elements(G.degree, elements[keep])


def conjugation_sweep_normalizer_mask(G, mask):
    """Mask of the g in G with g^-1 h g in the subgroup ``mask`` for each of its
    greedy generators h, every element of G conjugating each h."""
    elements = G.element_array()
    inverses = reference_inverse(elements)
    keep = np.ones(len(mask), dtype=bool)
    for h in pg._generators(G, mask):
        keep &= mask[G._index(np.take_along_axis(inverses, h[elements[:, G.base]], axis=1))]
    return keep


def closure_elements(degree, gens):
    """Brute-force closure enumeration, independent of the chain machinery."""
    identity = Permutation.identity(degree)
    found = {identity.images: identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g * p
                if q.images not in found:
                    if len(found) >= ELEMENT_GUARD_DEFAULT:
                        raise OrderOverflow("element", ELEMENT_GUARD_DEFAULT, len(found) + 1)
                    found[q.images] = q
                    nxt.append(q)
        frontier = nxt
    return list(found.values())


# -- permutation helpers with no caller in src -----------------------------


def conjugate_by(p, g):
    """g^-1 * p * g, for Permutations."""
    return g.inverse() * p * g


def is_identity(p):
    return all(i == img for i, img in enumerate(p.images))


def reduced_generators(G):
    """A greedy irredundant generating subset (same group, fewer iterations)."""
    return pg._perms(pg._reduced_rows(G))


# -- the group kernels on G's element table ---------------------------------
# The routes the kernels took before they read per-point columns and walked
# the chain: every image is a gather from the whole rows of element_array().


def reference_compose(p, q):
    """Row-wise products p * q by take_along_axis; p may be a single row."""
    return np.take_along_axis(p, q, axis=1)


def reference_inverse(p):
    out = np.empty_like(p)
    np.put_along_axis(out, p, np.arange(p.shape[1], dtype=p.dtype)[None], axis=1)
    return out


def table_close(G, mask, gens):
    """``perm_group._close``, each product's base images gathered from the table."""
    elements, mask = G.element_array(), mask.copy()
    frontier = np.flatnonzero(mask)
    while len(frontier):
        known = mask.copy()
        mask[G._index(elements[frontier[:, None, None], gens[:, G.base]])] = True
        frontier = np.flatnonzero(mask & ~known)
    return mask


def table_grow(G, mask, gens, rows):
    """``perm_group._grow`` given member rows rather than positions."""
    for i, row in zip(G._index(rows[:, G.base]).tolist(), rows):
        if not mask[i]:
            gens = np.concatenate([gens, row[None]])
            mask = table_close(G, mask, gens)
    return mask, gens


def table_powers(G, p):
    """Positions of g^p, each g's base images followed through its table row."""
    elements = G.element_array()
    images = np.broadcast_to(np.array(G.base, dtype=np.intp), (len(elements), len(G.base)))
    for _ in range(p):
        images = np.take_along_axis(elements, images, axis=1)
    return G._index(images)
