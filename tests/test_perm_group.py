import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closure_elements,
    conjugate_by,
    conjugation_sweep_normalizer_mask,
    group_from_elements,
    is_identity,
    naive_lifts,
    naive_normalizer,
    naive_upper_central_series,
    reduced_generators,
    reference_compose,
    reference_inverse,
    sift_derived_subgroup,
    sift_frattini_subgroup,
    sift_is_divisible_group,
    sift_normal_closure,
    sift_reduced_rows,
    table_close,
    table_grow,
    table_powers,
)
from mloop import cli
from mloop import perm_group as pg
from mloop import perm_rows
from mloop import verify
from mloop.errors import DegreeMismatch, NotNilpotent, NotSubgroup, OrderOverflow
from mloop.loop_core import direct_product, gen_abelian, gen_zassenhaus81
from mloop.mult_group import multiplication_group
from mloop.perm_group import (
    PermGroup,
    Permutation,
    center_of_group,
    derived_subgroup,
    frattini_subgroup,
    frattini_subgroup_oracle,
    group_from_generators,
    is_divisible_group,
    is_nilpotent_group,
    normal_closure,
    normalizer_of_subgroup,
    perm_from_cycles,
)
from mloop.perm_rows import compose, inverse


def s3():
    return group_from_generators([Permutation((1, 0, 2)), Permutation((1, 2, 0))])


def d4():
    # rotation and a reflection of the square 0-1-2-3
    return group_from_generators([Permutation((1, 2, 3, 0)), Permutation((3, 2, 1, 0))])


def cyclic(n):
    return group_from_generators([Permutation(tuple((i + 1) % n for i in range(n)))])


def a4():
    return group_from_generators([perm_from_cycles(4, [(0, 1, 2)]), perm_from_cycles(4, [(0, 1), (2, 3)])])


def s4():
    return group_from_generators([perm_from_cycles(4, [(0, 1, 2, 3)]), perm_from_cycles(4, [(0, 1)])])


def product_group(G, H):
    """G x H on disjoint points: G moves the first G.degree points, H the rest."""
    n, m = G.degree, H.degree
    left = [g + list(range(n, n + m)) for g in G.gen_array.tolist()]
    right = [list(range(n)) + [n + i for i in h] for h in H.gen_array.tolist()]
    return PermGroup(n + m, left + right)


def test_permutation_algebra():
    p = Permutation((1, 2, 0))
    q = Permutation((1, 0, 2))
    assert (p * q).images == (2, 1, 0)  # p after q
    assert is_identity(p * p.inverse())
    assert p.order() == 3 and q.order() == 2
    assert conjugate_by(q, p) == p.inverse() * q * p
    assert perm_from_cycles(5, [(0, 1, 2), (3, 4)]).order() == 6
    with pytest.raises(DegreeMismatch):
        Permutation((0, 0, 1))
    with pytest.raises(DegreeMismatch):
        p * Permutation((0, 1, 2, 3))


def test_generator_arrays_must_be_bijections():
    """Integer rows are checked as Permutations are: a repeated image (whose
    Schreier generators never reach the identity), a row of the wrong degree
    and an image out of range are all refused."""
    for rows in ([[0, 0, 1, 2]], [[1, 0, 2]], [[1, 2, 3, 4]]):
        with pytest.raises(DegreeMismatch):
            PermGroup(4, np.array(rows))


def test_generators_may_be_plain_image_rows():
    """Lists and tuples of image rows are read as Permutations are, and go
    through the same bijection check as integer arrays."""
    for rows in ([[1, 0, 2, 3]], [(1, 0, 2, 3)], ((1, 0, 2, 3),)):
        assert PermGroup(4, rows).order() == 2
    with pytest.raises(DegreeMismatch):
        PermGroup(4, [[0, 0, 1, 2]])
    assert PermGroup(4, [Permutation((1, 0, 2, 3)), Permutation((0, 2, 3, 1))]).order() == 24


def test_schreier_chain_small_groups():
    g = s3()
    assert g.order() == 6
    assert Permutation((2, 1, 0)) in g
    assert Permutation.identity(3) in g
    elems = g.enumerate_elements()
    assert len(elems) == 6
    assert is_identity(elems[0])
    assert d4().order() == 8
    assert cyclic(12).order() == 12


def test_order_matches_brute_closure():
    for g in (s3(), d4(), cyclic(6)):
        assert g.order() == len(closure_elements(g.degree, g.generators))


def test_subgroup_and_element_keys():
    g = s3()
    a3 = group_from_generators([Permutation((1, 2, 0))])
    assert a3.is_subgroup_of(g)
    assert not g.is_subgroup_of(a3)
    assert a3.element_keys() <= g.element_keys()


def test_group_from_elements_reduces():
    g = s3()
    rebuilt = group_from_elements(3, g.enumerate_elements())
    assert rebuilt.order() == 6
    assert len(rebuilt.generators) < 6
    assert len(reduced_generators(g)) <= len(g.generators)


def test_derived_center_closure():
    g = s3()
    assert derived_subgroup(g).order() == 3
    assert center_of_group(g).order() == 1
    flip = Permutation((1, 0, 2))
    assert normal_closure(g, [flip]).order() == 6
    assert center_of_group(d4()).order() == 2
    assert derived_subgroup(d4()).order() == 2


def test_upper_central_series_and_nilpotency():
    series = naive_upper_central_series(d4())
    assert [t.order() for t in series] == [1, 2, 8]
    assert is_nilpotent_group(d4())
    assert not is_nilpotent_group(s3())


@pytest.mark.parametrize(
    "group,expected",
    [
        (cyclic(4), 2),
        (cyclic(6), 1),
        (cyclic(12), 2),
        (d4(), 2),
    ],
)
def test_frattini_formula_vs_oracle(group, expected):
    phi = frattini_subgroup(group)
    assert phi.order() == expected
    oracle = frattini_subgroup_oracle(group)
    assert phi.element_keys() == oracle.element_keys()


def test_frattini_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        frattini_subgroup(s3())
    # the exhaustive oracle has no such restriction
    assert frattini_subgroup_oracle(s3()).order() == 1
    # A4 has four Sylow 3-subgroups and a normal Klein four; S3 x Z3 has a normal
    # Sylow 3-subgroup Z3 x Z3 and three Sylow 2-subgroups
    with pytest.raises(NotNilpotent, match="non-normal Sylow 3-subgroup"):
        frattini_subgroup(a4())
    with pytest.raises(NotNilpotent, match="non-normal Sylow 2-subgroup"):
        frattini_subgroup(product_group(s3(), cyclic(3)))


NILPOTENCY_GROUPS = {
    "S3": (s3, False),
    "A4": (a4, False),
    "S4": (s4, False),
    "S3xZ3": (lambda: product_group(s3(), cyclic(3)), False),
    "D4xZ3": (lambda: product_group(d4(), cyclic(3)), True),
}


@pytest.mark.parametrize("name", NILPOTENCY_GROUPS)
def test_nilpotency_by_sylow_counts_matches_upper_central_series(name):
    """Each Sylow subgroup normal, counted off the p-th power positions, against
    whether the upper central series over enumerated elements reaches G."""
    make, nilpotent = NILPOTENCY_GROUPS[name]
    G = make()
    assert len(pg._prime_factors(G.order())) == 2
    assert is_nilpotent_group(G) == (naive_upper_central_series(G)[-1].order() == G.order()) == nilpotent


@pytest.mark.parametrize("make, primes", [
    (lambda: direct_product(gen_zassenhaus81(), gen_abelian((2,))), 2),
    (lambda: gen_abelian((6, 10)), 3),
], ids=["z81xZ2", "abelian:6,10"])
def test_mult_groups_are_nilpotent_by_sylow_counts(make, primes):
    """M and I of a CML are nilpotent: |M(z81 x Z2)| = 2 * 3^7, and |M(abelian:6,10)| =
    60 takes three primes; the Sylow counts agree with the upper central series."""
    bundle = multiplication_group(make())
    assert len(pg._prime_factors(bundle.M.order())) == primes
    for G in (bundle.M, bundle.I):
        assert is_nilpotent_group(G)
        assert naive_upper_central_series(G)[-1].order() == G.order()


def test_normalizer_of_subgroup():
    g = s3()
    flip = group_from_generators([Permutation((1, 0, 2))], degree=3)
    assert normalizer_of_subgroup(g, flip).order() == 2
    a3 = group_from_generators([Permutation((1, 2, 0))])
    assert normalizer_of_subgroup(g, a3).order() == 6


def test_divisible_group():
    assert is_divisible_group(group_from_generators([], degree=1))
    assert not is_divisible_group(s3())
    assert not is_divisible_group(cyclic(4))


def test_element_guard(monkeypatch, z81_bundle):
    """The guard refuses a group above it before any array of |G| entries exists:
    no element table, no column, and less traced memory than half an intp array
    of |G| entries (the sift of H's generators takes a few kB)."""
    monkeypatch.setattr(pg, "ELEMENT_GUARD_DEFAULT", 5)
    with pytest.raises(OrderOverflow):
        s3().enumerate_elements()
    monkeypatch.setattr(pg, "ELEMENT_GUARD_DEFAULT", 100)
    m = z81_bundle.M
    h = PermGroup(m.degree, m.gen_array[:1])
    calls = (center_of_group, pg._frattini, is_divisible_group, lambda g: normalizer_of_subgroup(g, h))
    for call in calls:
        g = PermGroup(m.degree, m.gen_array)
        tracemalloc.start()
        try:
            with pytest.raises(OrderOverflow):
                call(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.order() * np.dtype(np.intp).itemsize // 2
        assert g._elements is None and g._store.size == 0 and (g._column_of < 0).all()


def digest(perms):
    text = "\n".join(",".join(map(str, p.images)) for p in perms)
    return hashlib.sha256(text.encode()).hexdigest()


def set_digest(group):
    """Digest of the group's element set, independent of element order."""
    text = "\n".join(",".join(map(str, key)) for key in sorted(group.element_keys()))
    return hashlib.sha256(text.encode()).hexdigest()


def test_zassenhaus_group_layer_pinned(z81_bundle):
    """Chains, element order and subgroup generators of M(zassenhaus81)
    and its subgroups, as the tuple-based implementation produced them,
    and the sorted element sets of its distinguished subgroups."""
    m, inner = z81_bundle.M, z81_bundle.I
    assert [level.base for level in m.chain] == [0, 3, 9, 27]
    assert [len(level.generators) for level in m.chain] == [80, 26, 8, 2]
    assert digest(m.enumerate_elements()) == (
        "b96a926f6ddf275bbd38070ea3a56bdd4990d96a2ccc1ee1413dd0c407c6f9b0"
    )
    assert digest(inner.enumerate_elements()) == (
        "d5c4635e57f2d9aba72f64f912cc371ae4742501f013b407dcc0932ded347879"
    )
    assert digest(inner.generators) == (
        "ead0f3ef624485aca450cc430fdcbc5a691fe633de133ada8d469cfe75712e07"
    )
    z1 = "74c8745ada4be9fb8ead8903626b2266f254e2bb93988fc895bafdcbe33a1452"
    z2 = "d1e59b0c69842b043de461b0f1b4ec56a9a4e498557f6dae6d130411888b8d77"
    pinned = [
        (center_of_group, 3, "2d2bdc78992618192cfedf9a4c939d690ace346ff72144271d2540096f705e96", z1),
        (derived_subgroup, 81, "70426d4f64490fac91d6c99224fde2bb321cddce8c2b4641c95ff329b181d9e3", z2),
        (frattini_subgroup, 81, "c69fc2986d6209af6dccf24a3109de01c98d3c28e6b7c975ec1f29c2b17ce4bd", z2),
    ]
    for fn, order, gens_digest, elements_digest in pinned:
        sub = fn(m)
        assert (sub.order(), digest(sub.generators)) == (order, gens_digest), fn.__name__
        assert set_digest(sub) == elements_digest, fn.__name__
    assert [(t.order(), set_digest(t)) for t in naive_upper_central_series(m)] == [
        (1, "596573831ef84f97a78c5b36afa324241ad91427df935a03487964605e345107"),
        (3, z1),
        (81, z2),
        (2187, "ac7679e3ff1fe598878728f6036e83366f5a9acf0a65a1cf84f08b9a344d3281"),
    ]


def reference_chain(n, gens):
    """The stabilizer chain by the plain algorithm on image tuples:
    [(base, level generators, transversal reps in sorted point order)]."""
    levels = []
    gens = list(dict.fromkeys(g for g in gens if g != tuple(range(n))))
    while gens:
        base = min(i for g in gens for i in range(n) if g[i] != i)
        trans = {base: tuple(range(n))}
        frontier = [base]
        while frontier:
            nxt = []
            for pt in frontier:
                for g in gens:
                    if g[pt] not in trans:
                        trans[g[pt]] = tuple(g[u] for u in trans[pt])
                        nxt.append(g[pt])
            frontier = sorted(nxt)
        stab = {}
        for pt in sorted(trans):
            for g in gens:
                rep = trans[g[pt]]
                inv = {img: i for i, img in enumerate(rep)}
                s = tuple(inv[g[u]] for u in trans[pt])
                if s != tuple(range(n)):
                    stab.setdefault(s, None)
        levels.append((base, gens, [trans[pt] for pt in sorted(trans)]))
        gens = list(stab)
    return levels


def reference_sift(levels, p):
    for base, _, reps in levels:
        rep = {r[base]: r for r in reps}.get(p[base])
        if rep is None:
            return p
        inv = {img: i for i, img in enumerate(rep)}
        p = tuple(inv[x] for x in p)
    return p


def reference_elements(n, levels):
    elems = [tuple(range(n))]
    for _, _, reps in reversed(levels):
        elems = [tuple(rep[i] for i in e) for rep in reps for e in elems]
    return elems


@st.composite
def perm_lists(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    count = draw(st.integers(min_value=1, max_value=3))
    perms = []
    for _ in range(count):
        images = draw(st.permutations(range(n)))
        perms.append(Permutation(tuple(images)))
    probes = [Permutation(tuple(draw(st.permutations(range(n))))) for _ in range(3)]
    return n, perms, probes


@given(perm_lists())
@settings(max_examples=40, deadline=None)
def test_chain_order_equals_closure(data):
    n, gens, probes = data
    group = PermGroup(n, gens)
    closure = closure_elements(n, gens)
    assert group.order() == len(closure)
    for g in gens:
        assert group.contains(g)
    # one batch sift over members and random probes agrees with the closure
    members = {p.images for p in closure}
    batch = closure + probes
    mask = group.contains_rows(np.array([p.images for p in batch]))
    assert mask.tolist() == [p.images in members for p in batch]


@given(perm_lists())
@settings(max_examples=40, deadline=None)
def test_chain_matches_reference_algorithm(data):
    n, gens, probes = data
    group = PermGroup(n, gens)
    levels = reference_chain(n, [g.images for g in gens])
    assert [level.base for level in group.chain] == [base for base, _, _ in levels]
    for level, (_, level_gens, reps) in zip(group.chain, levels):
        assert level.generators.tolist() == [list(g) for g in level_gens]
        assert level.reps.tolist() == [list(r) for r in reps]
    assert [p.images for p in group.enumerate_elements()] == reference_elements(n, levels)
    for p in probes:
        assert group.sift(p).images == reference_sift(levels, p.images)


def same_rows(ours, theirs):
    """Bit-for-bit equality of two row arrays: dtype, shape and bytes."""
    return (ours.dtype, ours.shape, ours.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes())


def same_group(ours, theirs):
    return same_rows(ours.gen_array, theirs.gen_array) and (
        sorted(ours.element_keys()) == sorted(theirs.element_keys())
    )


def assert_closures_match_sift_route(G, seed_lists):
    """Reduced generators, the normal closure of each seed list, G', nilpotency,
    Phi(G) (where G is nilpotent) and divisibility against the sift route."""
    assert same_rows(pg._reduced_rows(G), sift_reduced_rows(G))
    for seeds in seed_lists:
        assert same_group(normal_closure(G, seeds), sift_normal_closure(G, seeds))
    assert same_group(derived_subgroup(G), sift_derived_subgroup(G))
    assert is_nilpotent_group(G) == (naive_upper_central_series(G)[-1].order() == G.order())
    if is_nilpotent_group(G):
        assert same_group(frattini_subgroup(G), sift_frattini_subgroup(G))
    else:
        for frattini in (frattini_subgroup, sift_frattini_subgroup):
            with pytest.raises(NotNilpotent):
                frattini(G)
    assert is_divisible_group(G) == sift_is_divisible_group(G)


def subgroup_mask(G, H):
    """H's members as a mask over G's element order, by row keys."""
    keys = H.element_keys()
    return np.array([tuple(row) in keys for row in G.element_array().tolist()])


@given(perm_lists())
@settings(max_examples=40, deadline=None)
def test_mask_layer_matches_sift_route_on_random_groups(data):
    n, gens, _ = data
    group = PermGroup(n, gens)
    elements = group.element_array()
    assert group._index(elements[:, group.base]).tolist() == list(range(len(elements)))
    sub = PermGroup(n, gens[:1])
    ours, theirs = normalizer_of_subgroup(group, sub), naive_normalizer(group, sub)
    assert ours.gen_array.tolist() == theirs.gen_array.tolist()
    mask = subgroup_mask(group, sub)
    assert np.array_equal(pg._normalizer_mask(group, mask), conjugation_sweep_normalizer_mask(group, mask))
    assert np.array_equal(pg._center(group), naive_lifts(group, PermGroup(n)))
    assert_closures_match_sift_route(group, [sub.gen_array, np.array([p.images for p in gens])])


def every_subgroup(G):
    """Each subgroup generated by at most two elements of G, once, in order of first find."""
    found = {}
    for a in G.element_array():
        for b in G.element_array():
            sub = PermGroup(G.degree, np.stack([a, b]))
            found.setdefault(sub.element_keys(), sub)
    return list(found.values())


@pytest.mark.parametrize(
    "make,count",
    [
        (s3, 6),
        (lambda: cyclic(4), 3),
        (lambda: multiplication_group(gen_abelian((3, 3))).M, 6),
        (d4, 10),
        (lambda: cyclic(12), 6),
    ],
    ids=["s3", "cyclic4", "M(abelian:3,3)", "d4", "cyclic12"],
)
def test_mask_layer_matches_sift_route(make, count):
    """Normalizers, Z(G), normal closures, G', nilpotency, Phi(G) and
    divisibility agree with the sift route, generators included, for every
    subgroup of a few small groups (G' is trivial in the abelian ones)."""
    G = make()
    subgroups = every_subgroup(G)
    assert len(subgroups) == count
    for sub in subgroups:
        ours, theirs = normalizer_of_subgroup(G, sub), naive_normalizer(G, sub)
        assert ours.gen_array.tolist() == theirs.gen_array.tolist()
        mask = subgroup_mask(G, sub)
        assert np.array_equal(pg._normalizer_mask(G, mask), conjugation_sweep_normalizer_mask(G, mask))
    central = naive_lifts(G, PermGroup(G.degree))
    assert np.array_equal(pg._center(G), central)
    naive_center = group_from_elements(G.degree, G.element_array()[central])
    assert center_of_group(G).gen_array.tolist() == naive_center.gen_array.tolist()
    assert_closures_match_sift_route(G, [sub.gen_array for sub in subgroups])


def test_prop4_chains_match_sift_route(z81_bundle):
    """The 20 mask-walked normalizer chains of M(zassenhaus81) against chains of
    PermGroups built by the sift route: step counts, orders and element sets."""
    m = z81_bundle.M
    limit = 6  # verify's bound 2 * class - 1 = 3, plus 3
    elements = m.element_array()
    naive, seen = [], set()
    for row in elements[1:]:
        h = PermGroup(m.degree, row[None])
        if h.element_keys() in seen:
            continue
        seen.add(h.element_keys())
        chain = [h]
        while chain[-1].order() < m.order() and len(chain) <= limit:
            chain.append(naive_normalizer(m, chain[-1]))
        naive.append(chain)
        if len(naive) == verify.GROUP_CHAIN_SAMPLES:
            break
    chains = verify._group_chains(m, limit)
    assert [[int(mask.sum()) for mask in c] for c in chains] == [[g.order() for g in c] for c in naive]
    assert [[sorted(map(tuple, elements[mask].tolist())) for mask in c] for c in chains] == [
        [sorted(g.element_keys()) for g in c] for c in naive
    ]
    assert max(len(c) - 1 for c in chains) == 2


@pytest.mark.parametrize("factors", [(), (2,), (3,)], ids=["z81", "z81xZ2", "z81xZ3"])
def test_prop4_chain_normalizers_match_conjugation_sweep(factors):
    """The orbit-stabilizer normalizer of every member of the 20 prop4 chains of
    M(zassenhaus81), M(zassenhaus81 x Z2) and M(zassenhaus81 x Z3), against H's
    greedy generators conjugated by every element, mask for mask."""
    loop = direct_product(gen_zassenhaus81(), gen_abelian(factors)) if factors else gen_zassenhaus81()
    m = multiplication_group(loop).M
    chains = verify._group_chains(m, 6)
    assert len(chains) == verify.GROUP_CHAIN_SAMPLES
    for chain in chains:
        for h in chain:
            assert np.array_equal(pg._normalizer_mask(m, h), conjugation_sweep_normalizer_mask(m, h))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_normalizers_in_symmetric_groups_match_conjugation_sweep(n):
    """Seeded random subgroups of the non-nilpotent S5, S6 and S7, whose
    conjugation orbits outnumber the reduced generators; the Cayley tree spans
    G with e_point = e_parent s_j, and conj[j] is conjugation by s_j."""
    G = PermGroup(n, [perm_from_cycles(n, [tuple(range(n))]), perm_from_cycles(n, [(0, 1)])])
    assert not is_nilpotent_group(G)
    elements, gens = G.element_array(), pg._reduced_rows(G)
    conj, levels = pg._conjugation(G)
    assert np.array_equal(conj, [G._index(compose(inverse(s[None]), elements[:, s])[:, G.base]) for s in gens])
    assert sorted(np.concatenate([[0]] + [points for points, _, _ in levels])) == list(range(G.order()))
    for points, parents, j in levels:
        assert np.array_equal(elements[points], compose(elements[parents], gens[j]))
    rng = np.random.default_rng(n)
    orbits = []
    for _ in range(40):
        h = pg._close(G, np.arange(G.order()) == 0, elements[rng.integers(0, G.order(), rng.integers(1, 3))])
        mask = pg._normalizer_mask(G, h)
        assert np.array_equal(mask, conjugation_sweep_normalizer_mask(G, h))
        orbits.append(G.order() // int(mask.sum()))
    assert max(orbits) > len(gens)


@pytest.mark.parametrize("degree,gens", [(1, [Permutation([0])]), (4, [])], ids=["degree1", "identity4"])
def test_conjugation_of_the_trivial_group(degree, gens):
    """No reduced generators: conj is (0, 1) and the Cayley tree is its root alone."""
    G = PermGroup(degree, gens)
    conj, levels = pg._conjugation(G)
    assert conj.shape == (0, 1) and levels == []
    assert pg._normalizer_mask(G, np.ones(1, dtype=bool)).tolist() == [True]
    assert normalizer_of_subgroup(G, G).order() == 1


@pytest.fixture(scope="module")
def z243_bundle():
    return multiplication_group(direct_product(gen_zassenhaus81(), gen_abelian((3,))))


def test_index_and_upper_central_series_at_orders_2187_and_6561(z81_bundle, z243_bundle):
    """The index of every element at its base images, and the orders of the upper
    central series, which reaches M: M is nilpotent of class 3."""
    for m, orders in ((z81_bundle.M, [1, 3, 81, 2187]), (z243_bundle.M, [1, 9, 243, 6561])):
        elements = m.element_array()
        assert np.array_equal(m._index(elements[:, m.base]), np.arange(m.order()))
        assert [t.order() for t in naive_upper_central_series(m)] == orders
        assert is_nilpotent_group(m)


CENTRE_LOOPS = {
    "z81": gen_zassenhaus81,
    "z81xZ2": lambda: direct_product(gen_zassenhaus81(), gen_abelian((2,))),
    "z81xZ3": lambda: direct_product(gen_zassenhaus81(), gen_abelian((3,))),
    "abelian:2,4,3": lambda: gen_abelian((2, 4, 3)),  # I is trivial, M has one chain level
}


@pytest.mark.parametrize("name", CENTRE_LOOPS)
def test_center_matches_commutators_of_every_element(name):
    """Z(G) read off the candidates whose first base image the point stabilizer fixes,
    against every element's commutators with the reduced generators, on M and I."""
    bundle = multiplication_group(CENTRE_LOOPS[name]())
    for G in (bundle.M, bundle.I):
        assert np.array_equal(pg._center(G), naive_lifts(G, PermGroup(G.degree)))


def test_center_reads_every_reduced_generator(monkeypatch, z81_bundle):
    """Without the last reduced generator the commute test keeps elements outside Z(M)."""
    m = z81_bundle.M
    want, real = pg._center(m), pg._reduced_rows
    monkeypatch.setattr(pg, "_reduced_rows", lambda G: real(G)[:-1])
    assert not np.array_equal(pg._center(m), want)


def test_invariants_build_no_group_wide_table(monkeypatch, tmp_path):
    """`invariants` on z81 x Z3 (|M| = 6,561) reads Z(M) off the point stabilizer's
    fixed points, the nilpotency of the 3-group M off its order and Phi(M) off the
    reduced generators' cubes: no power table over every element."""

    def never(*args):
        raise AssertionError("an |M|-wide table was built")

    monkeypatch.setattr(pg, "_powers", never)
    out = tmp_path / "invariants.json"
    assert cli.main(["invariants", "--gen", "product:zassenhaus81xabelian:3", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["invariants"] == {
        "order": 243, "center_order": 9, "derived_order": 3, "cube_order": 1,
        "nilpotency_class": 2, "frattini_order": 3, "mult_group_order": 6561,
        "inner_group_order": 27, "mult_center_order": 9, "mult_derived_order": 81,
        "mult_frattini_order": 81,
    }


def test_closures_match_sift_route_at_orders_2187_and_6561(z81_bundle, z243_bundle):
    """The reduced generators, M', Phi(M), the normal closure of the inner
    mapping group's generators (lemma7) and divisibility of M(zassenhaus81)
    and M(zassenhaus81 x Z3) against the sift route."""
    for bundle in (z81_bundle, z243_bundle):
        assert_closures_match_sift_route(bundle.M, [bundle.I.gen_array])


def test_normal_closure_refuses_seeds_outside_g(z81_bundle):
    """A seed outside G fails the sift guard before any index lookup."""
    with pytest.raises(NotSubgroup):
        normal_closure(cyclic(3), [Permutation((1, 0, 2))])
    m = z81_bundle.M
    swap = perm_from_cycles(m.degree, [(0, 1)])
    assert swap not in m
    with pytest.raises(NotSubgroup):
        normal_closure(m, [m.generators[0], swap])


def test_index_certifies_non_members(z81_bundle):
    """A base image off its level's orbit is a non-member: the kernel refuses it,
    and normalizer_of_subgroup refuses an H outside G."""
    m = z81_bundle.M
    orbit = set(m.chain[1].reps[:, m.base[1]].tolist())
    outside = min(set(range(1, m.degree)) - orbit)
    swap = perm_from_cycles(m.degree, [(m.base[1], outside)])
    assert swap not in m
    with pytest.raises(AssertionError, match="off its orbit"):
        m._index(np.array([swap.images])[:, m.base])
    # the public normalizer sifts a user-supplied H before any index lookup
    with pytest.raises(NotSubgroup):
        normalizer_of_subgroup(m, group_from_generators([swap]))
    with pytest.raises(NotSubgroup):
        normalizer_of_subgroup(cyclic(3), group_from_generators([Permutation((1, 0, 2))]))


def test_mask_subgroups_unchanged_by_small_gather_blocks(monkeypatch, z81_bundle):
    """``_close`` gathers base images in frontier blocks of at most
    GATHER_BLOCK entries; with blocks of a few frontier rows, Phi(M) (grown
    from the p-th powers), M', Z(M), a normalizer and a normal closure keep
    their generators and element sets."""

    def subgroups(m):
        g = PermGroup(m.degree, m.gen_array)  # fresh caches
        h = PermGroup(m.degree, g.element_array()[5:6])
        return [frattini_subgroup(g), derived_subgroup(g), center_of_group(g),
                normalizer_of_subgroup(g, h), normal_closure(g, z81_bundle.I.gen_array)]

    def summary(groups):
        return [(s.gen_array.tolist(), sorted(s.element_keys())) for s in groups]

    want = summary(subgroups(z81_bundle.M))
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", 256)
    assert summary(subgroups(z81_bundle.M)) == want


def symmetric_subgroup(n, seed):
    """S_n for seed 0, else a seeded random subgroup of it generated by one to three elements."""
    G = PermGroup(n, [perm_from_cycles(n, [tuple(range(n))]), perm_from_cycles(n, [(0, 1)])])
    rng = np.random.default_rng([n, seed])
    return PermGroup(n, G.element_array()[rng.integers(0, G.order(), rng.integers(1, 4))]) if seed else G


KERNEL_GROUPS = {
    "trivial4": lambda request: PermGroup(4),  # the trivial groups have empty chains
    "trivial1": lambda request: PermGroup(1, [Permutation([0])]),
    **{f"S{n}-{seed}": (lambda request, n=n, seed=seed: symmetric_subgroup(n, seed))
       for n in (5, 6, 7) for seed in range(5)},
    "M(z81)": lambda request: request.getfixturevalue("z81_bundle").M,
    "M(z81xZ3)": lambda request: request.getfixturevalue("z243_bundle").M,
}


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_walk_and_columns_match_element_table(request, name):
    """The chain walk (e and e^-1 at any points), full rows at positions, the
    column store's gathers and the kernels reading them (``_close`` and
    ``_powers``), against gathers from element_array()'s whole rows."""
    G = KERNEL_GROUPS[name](request)
    fresh_g = PermGroup(G.degree, G.gen_array)
    elements, inverses = G.element_array(), reference_inverse(G.element_array())
    rng = np.random.default_rng(G.order())
    positions = np.concatenate([[0, G.order() - 1], rng.integers(0, G.order(), 30)])
    points = rng.integers(0, G.degree, (len(positions), 3))
    assert np.array_equal(pg._walk(fresh_g, positions, points),
                          np.take_along_axis(elements[positions], points, axis=1))
    assert np.array_equal(pg._walk(fresh_g, positions, points, inverted=True),
                          np.take_along_axis(inverses[positions], points, axis=1))
    assert same_rows(pg._rows_at(fresh_g, positions), elements[positions])
    # columns added one point at a time: the store is reallocated only when it doubles
    store, grown = fresh_g._store, 0
    for used, q in enumerate(rng.permutation(G.degree).tolist(), start=1):
        assert same_rows(pg._images(fresh_g, [q]), elements[:, [q]])
        grown, store = grown + (fresh_g._store is not store), fresh_g._store
        assert used <= len(store) <= 2 * used
    assert grown <= G.degree.bit_length() + 1
    assert same_rows(pg._images(fresh_g, np.arange(G.degree)), elements)
    assert fresh_g._elements is None
    for _ in range(3):
        gens = elements[rng.integers(0, G.order(), rng.integers(1, 3))]
        start = pg._trivial(G) if rng.integers(2) else pg._derived(G)[0].copy()
        assert np.array_equal(pg._close(G, start.copy(), gens), table_close(G, start, gens))
    for p in (2, 3):
        assert np.array_equal(pg._powers(G, p), table_powers(G, p))


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_grow_from_positions_matches_grow_from_rows(request, name):
    """``_grow`` given member positions appends the same generator rows, bit for bit,
    and closes the same masks as the table route given the members' rows; seeded
    position lists, the p-th powers over G' and every member in element order."""
    G = KERNEL_GROUPS[name](request)
    elements = G.element_array()
    rng = np.random.default_rng(G.order() + 1)
    derived, derived_gens = pg._derived(G)
    cases = [(pg._trivial(G), G.gen_array[:0], rng.integers(0, G.order(), 8)),
             (pg._trivial(G), G.gen_array[:0], np.arange(G.order())),
             (derived, derived_gens, np.unique(pg._powers(G, 2)))]
    for mask, gens, positions in cases:
        ours = pg._grow(G, mask.copy(), gens, positions)
        theirs = table_grow(G, mask.copy(), gens, elements[positions])
        assert np.array_equal(ours[0], theirs[0]) and same_rows(ours[1], theirs[1])


@pytest.mark.parametrize("block", [perm_rows.GATHER_BLOCK, 60])
def test_compose_and_inverse_match_take_along_axis(monkeypatch, block):
    """Flat-take products and flat-put inverses against take_along_axis and
    put_along_axis, on int16 rows whose count crosses a GATHER_BLOCK boundary
    (at the default and at a block of a few rows), for a single-row p too."""
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
    rng = np.random.default_rng(block)
    n = 16
    rows = block // n + 5
    p = np.argsort(rng.random((rows, n)), axis=1).astype(np.int16)
    q = np.argsort(rng.random((rows, n)), axis=1).astype(np.int16)
    assert same_rows(compose(p, q), reference_compose(p, q))
    assert same_rows(compose(p[3:4], q), reference_compose(p[3:4], q))
    assert same_rows(inverse(p), reference_inverse(p))
    assert same_rows(compose(p, inverse(p)), np.tile(np.arange(n, dtype=np.int16), (rows, 1)))


def test_powers_are_walked_once_per_prime(monkeypatch):
    """The checks of ``run_suite(z81 x Z2, "all")``, run in order on one context, ask
    for the square and cube positions of M (|M| = 4,374) for Phi(M)'s nilpotency test,
    and for the squares again for divisibility; the chain is walked p times once per
    prime, so 2 + 3 walks in all, and the kept positions are those of the element table."""
    calls, inside, walks = [], [], []
    real_powers, real_walk = pg._powers, pg._walk

    def powers(G, p):
        calls.append((G.order(), p))
        inside.append(p)
        try:
            return real_powers(G, p)
        finally:
            inside.pop()

    def walk(*args, **kwargs):
        walks.append(bool(inside))
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(pg, "_powers", powers)
    monkeypatch.setattr(pg, "_walk", walk)
    ctx = verify.LoopContext(direct_product(gen_zassenhaus81(), gen_abelian((2,))),
                             lattice_guard=162)
    for _, _, check in verify.CHECK_REGISTRY:
        check(ctx)
    assert calls == [(4374, 2), (4374, 3), (4374, 2)]
    assert sum(walks) == 2 + 3
    m = ctx.bundle.M
    assert sorted(m._powers) == [2, 3]
    for p in (2, 3):
        assert np.array_equal(real_powers(m, p), table_powers(m, p))
