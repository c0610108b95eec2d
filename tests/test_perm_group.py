import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mloop import perm_group as pg
from mloop.errors import DegreeMismatch, NotNilpotent, OrderOverflow
from mloop.perm_group import (
    PermGroup,
    Permutation,
    center_of_group,
    closure_elements,
    derived_subgroup,
    frattini_subgroup,
    frattini_subgroup_oracle,
    group_from_elements,
    group_from_generators,
    is_divisible_group,
    is_nilpotent_group,
    normal_closure,
    normalizer_of_subgroup,
    perm_from_cycles,
    reduced_generators,
    upper_central_series_group,
)


def s3():
    return group_from_generators([Permutation((1, 0, 2)), Permutation((1, 2, 0))])


def d4():
    # rotation and a reflection of the square 0-1-2-3
    return group_from_generators([Permutation((1, 2, 3, 0)), Permutation((3, 2, 1, 0))])


def cyclic(n):
    return group_from_generators([Permutation(tuple((i + 1) % n for i in range(n)))])


def test_permutation_algebra():
    p = Permutation((1, 2, 0))
    q = Permutation((1, 0, 2))
    assert (p * q).images == (2, 1, 0)  # p after q
    assert (p * p.inverse()).is_identity()
    assert p.order() == 3 and q.order() == 2
    assert q.conjugate_by(p) == p.inverse() * q * p
    assert perm_from_cycles(5, [(0, 1, 2), (3, 4)]).order() == 6
    with pytest.raises(DegreeMismatch):
        Permutation((0, 0, 1))
    with pytest.raises(DegreeMismatch):
        p * Permutation((0, 1, 2, 3))


def test_schreier_chain_small_groups():
    g = s3()
    assert g.order() == 6
    assert Permutation((2, 1, 0)) in g
    assert Permutation.identity(3) in g
    elems = g.enumerate_elements()
    assert len(elems) == 6
    assert elems[0].is_identity()
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
    series = upper_central_series_group(d4())
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


def test_element_guard(monkeypatch):
    monkeypatch.setattr(pg, "ELEMENT_GUARD_DEFAULT", 5)
    with pytest.raises(OrderOverflow):
        s3().enumerate_elements()


def digest(perms):
    text = "\n".join(",".join(map(str, p.images)) for p in perms)
    return hashlib.sha256(text.encode()).hexdigest()


def test_zassenhaus_group_layer_pinned(z81_bundle):
    """Chains, element order and subgroup generators of M(zassenhaus81)
    and its subgroups, as the tuple-based implementation produced them."""
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
    pinned = [
        (center_of_group, 3, "2d2bdc78992618192cfedf9a4c939d690ace346ff72144271d2540096f705e96"),
        (derived_subgroup, 81, "70426d4f64490fac91d6c99224fde2bb321cddce8c2b4641c95ff329b181d9e3"),
        (frattini_subgroup, 81, "c69fc2986d6209af6dccf24a3109de01c98d3c28e6b7c975ec1f29c2b17ce4bd"),
    ]
    for fn, order, gens_digest in pinned:
        sub = fn(m)
        assert (sub.order(), digest(sub.generators)) == (order, gens_digest), fn.__name__


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
