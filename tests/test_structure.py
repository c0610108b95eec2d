import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NONCML6,
    S3_TABLE,
    associator_tensor,
    closure_members,
    cyclic_subloops,
    early_stop_lattice,
    goursat_count,
    group_cayley_loop,
    hyperplane_maximals,
    join_maximals,
    naive_lattice,
    naive_maximal_members,
    quotient_central_series,
    swapped_cyclic,
)
from mloop.errors import (
    NotASubloop,
    NotCML,
    NotNested,
    OrderOverflow,
    ParseError,
)
from mloop.loop_core import (
    CayleyLoop,
    direct_product,
    gen_abelian,
    gen_zassenhaus81,
    quotient,
)
from mloop import perm_rows, structure
from mloop.loop_core import _close
from mloop.mult_group import multiplication_group
from mloop.perm_group import PermGroup
from mloop.structure import (
    PAIR_WIDTH,
    Subloop,
    _close_rows,
    _cyclic_masks,
    _entries,
    _mark,
    _maximal_members,
    _meet,
    _powers,
    _row_pairs,
    _subloops,
    all_subloops,
    associator_subloop,
    center,
    coerce_subloop,
    cube_subloop,
    frattini_subloop,
    full_subloop,
    generate_subloop,
    is_divisible,
    is_normal,
    join,
    maximal_subloops,
    non_generator_witness,
    normality_witness,
    trivial_subloop,
    upper_central_series,
)
from mloop.verify import run_suite


def test_subloop_validation(z81):
    with pytest.raises(NotASubloop, match="empty"):
        Subloop(z81, [])
    with pytest.raises(NotASubloop, match="missing identity"):
        Subloop(z81, [3, 6])
    with pytest.raises(NotASubloop, match=r"not closed: 3 \* 3 = 6 escapes"):
        Subloop(z81, [0, 3])
    with pytest.raises(ParseError):
        Subloop(z81, [0, 99])
    h = Subloop(z81, [0, 3, 6])
    assert h.size == 3 and 3 in h and 4 not in h
    assert h <= full_subloop(z81)
    assert trivial_subloop(z81).size == 1


def test_mask_comparisons_match_frozensets(z81, z81_lattice, e27):
    """==, <=, <, hash and ``in`` read masks; over every pair of z81's 185 lattice
    members they agree with frozensets of the plain join-closure's member tuples."""
    ref = [frozenset(members) for members in naive_lattice(z81)]
    assert len(ref) == len(z81_lattice) == 185
    for s, a in zip(z81_lattice, ref):
        assert s.members == tuple(sorted(a)) and s.elements == a and s.size == len(a)
        assert s.key == np.packbits(s.mask()).tobytes()
        assert [x in s for x in range(z81.n)] == [x in a for x in range(z81.n)]
        assert -1 not in s and z81.n not in s
        for t, b in zip(z81_lattice, ref):
            assert ((s == t), (s <= t), (s < t)) == ((a == b), (a <= b), (a < b))
            assert (s != t) == (a != b)
    rebuilt = [Subloop(z81, sorted(a)) for a in ref]
    assert [hash(s) for s in rebuilt] == [hash(s) for s in z81_lattice]
    assert len(set(z81_lattice) | set(rebuilt)) == len(ref)
    other = trivial_subloop(e27)
    assert other != trivial_subloop(z81) and not other <= full_subloop(z81)


def test_coerce_subloop(z81, e27):
    h = Subloop(z81, [0, 1, 2])
    assert coerce_subloop(z81, h) is h
    assert coerce_subloop(z81, [0, 1, 2]) == h
    with pytest.raises(NotNested):
        coerce_subloop(e27, h)


def test_generate_and_join(z81):
    assert generate_subloop(z81, [27]).members == (0, 27, 54)
    nine = generate_subloop(z81, [3, 9])
    assert nine.members == (0, 3, 6, 9, 12, 15, 18, 21, 24)
    assert join(generate_subloop(z81, [3]), generate_subloop(z81, [9])) == nine
    # e1, e2, e3 together force the associator e4, hence the whole loop
    assert join(generate_subloop(z81, [27]), nine).is_full


def test_cyclic_subloops(z81):
    z9 = gen_abelian((9,))
    assert sorted(s.size for s in cyclic_subloops(z9)) == [1, 3, 9]
    # every non-identity element of z81 has order 3
    assert len(cyclic_subloops(z81)) == 41


@pytest.mark.parametrize(
    "moduli,count",
    [
        ((4,), 3),
        ((9,), 3),
        ((2, 2), 5),
        ((2, 3), 4),
        ((3, 3), 6),
        ((3, 3, 3), 28),
    ],
)
def test_abelian_subloop_counts(moduli, count):
    lattice = all_subloops(gen_abelian(moduli))
    assert len(lattice) == count


def test_zassenhaus_lattice(z81_lattice):
    histogram = {}
    for s in z81_lattice:
        histogram[s.size] = histogram.get(s.size, 0) + 1
    assert histogram == {1: 1, 3: 40, 9: 130, 27: 13, 81: 1}
    assert len(z81_lattice) == 185
    sizes = [s.size for s in z81_lattice]
    assert sizes == sorted(sizes)
    assert z81_lattice[0].size == 1 and z81_lattice[-1].is_full


def test_lattice_of_z81xZ3_matches_goursat_count():
    """The 1,854 subloops of z81 x Z3, order by order, against Goursat's count from
    z81's own lattice: the first count of a lattice above order 81 that does not
    come from the lattice walk."""
    loop = direct_product(gen_zassenhaus81(), gen_abelian((3,)))
    histogram = {}
    for s in all_subloops(loop, lattice_guard=loop.n):
        histogram[s.size] = histogram.get(s.size, 0) + 1
    assert histogram == goursat_count(gen_zassenhaus81(), 1)
    assert sum(histogram.values()) == 1854


LATTICE_LOOPS = {
    "sym3": lambda: CayleyLoop(S3_TABLE, name="sym3"),
    "noncml6": lambda: CayleyLoop(NONCML6, name="noncml6"),
    "abelian:4": lambda: gen_abelian((4,)),
    "abelian:9": lambda: gen_abelian((9,)),
    "abelian:2,2": lambda: gen_abelian((2, 2)),
    "abelian:2,3": lambda: gen_abelian((2, 3)),
    "abelian:4,4": lambda: gen_abelian((4, 4)),
    "abelian:3,3,3": lambda: gen_abelian((3, 3, 3)),
    "zassenhaus81": gen_zassenhaus81,
    # the group tables that perm_group.frattini_subgroup_oracle hands to the lattice
    "cayley:M(abelian:4,4)": lambda: group_cayley_loop(multiplication_group(gen_abelian((4, 4))).M),
    "cayley:dihedral8": lambda: group_cayley_loop(
        PermGroup(4, np.array([[1, 2, 3, 0], [3, 2, 1, 0]]))),
}


CLOSE_KERNEL_LOOPS = {
    "zassenhaus81": gen_zassenhaus81,
    "z81xZ2": lambda: direct_product(gen_zassenhaus81(), gen_abelian((2,))),
    "abelian:4,4": lambda: gen_abelian((4, 4)),
    "sym3": lambda: CayleyLoop(S3_TABLE, name="sym3"),
    "swapped48": lambda: swapped_cyclic(48, 4, 2),
}


class CountedTable(np.ndarray):
    """A table recording the entries of each of its fancy-index reads."""

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, tuple) and any(isinstance(k, np.ndarray) for k in key):
            self.reads.append(np.asarray(out).ravel().tolist())
        return out


@pytest.mark.parametrize("name", CLOSE_KERNEL_LOOPS)
def test_close_matches_pure_python_closure(name):
    """`_close` of a closed base and seeded new elements is the product closure of both,
    with or without the ``commutative`` flag where the table is commutative, and every
    frontier round gains an element: none is spent once the mask is the whole loop.
    With a stop array it returns the closure when that holds no stop index, and
    otherwise a mask between base | new and the closure that holds one."""
    loop = CLOSE_KERNEL_LOOPS[name]()
    rng = np.random.default_rng(20261020)
    flags = (False, True) if loop.commutative else (False,)
    ids = np.arange(loop.n)
    whole = stopped = 0
    for _ in range(30):
        base = np.isin(ids, closure_members(loop.table, rng.choice(loop.n, rng.integers(0, 2))))
        new = rng.random(loop.n) < rng.choice([1, 2, 3]) / loop.n
        want = np.isin(ids, closure_members(loop.table, np.flatnonzero(base | new)))
        whole += want.all()
        for commutative in flags:
            table = loop.table.view(CountedTable)
            table.reads = []
            got = _close(table, base, new, commutative=commutative)
            assert np.array_equal(got, want), (name, commutative)
            # a round reads x y, and y x unless the flag is set; only a last round
            # may gain nothing, when it proves a proper subloop closed
            per_round = 1 if commutative else 2
            rounds = [sum(table.reads[i:i + per_round], [])
                      for i in range(0, len(table.reads), per_round)]
            known, gains = set(np.flatnonzero(base | new).tolist()), []
            for r in rounds:
                gains.append(not set(r) <= known)
                known |= set(r)
            assert gains[:-1] == [True] * (len(rounds) - 1), (name, commutative)
            assert not rounds or gains[-1] == bool(want.all()), (name, commutative)
            stop = rng.choice(loop.n, 2)
            early = _close(loop.table, base, new, stop, commutative)
            assert (early <= want).all() and ((base | new) <= early).all()
            if want[stop].any():
                stopped += 1
                assert early[stop].any()
            else:
                assert np.array_equal(early, want)
    assert 0 < whole < 30 and stopped


@pytest.mark.parametrize("name", LATTICE_LOOPS)
def test_lattice_matches_naive_join_closure(name):
    """Canonical augmentation finds the same subloops, in the same order, as
    the early-stopping joins and as joining every subloop with every cyclic
    subloop to the end.  sym3 and dihedral8 are not commutative and noncml6
    is not Moufang: the greedy-prefix rule rests on closure alone.
    abelian:4,4 has cyclic subloops nested in others, so an atom x can hold
    members below x that lie outside S.  No set of found subloops is kept, so
    a subloop reached from two greedy prefixes would be listed twice."""
    loop = LATTICE_LOOPS[name]()
    lattice = [s.members for s in all_subloops(loop)]
    assert len(set(lattice)) == len(lattice)
    assert lattice == early_stop_lattice(loop) == naive_lattice(loop)


def test_lattice_of_z81xZ2_matches_early_stop_joins():
    loop = direct_product(gen_zassenhaus81(), gen_abelian((2,)))
    lattice = [s.members for s in all_subloops(loop, lattice_guard=162)]
    assert len(set(lattice)) == len(lattice) == 370
    assert lattice == early_stop_lattice(loop)


CLOSE_LOOPS = ("zassenhaus81", "sym3", "abelian:4,4", "cayley:dihedral8")


@pytest.mark.parametrize("block", [1, 20, perm_rows.GATHER_BLOCK])
@pytest.mark.parametrize("name", CLOSE_LOOPS)
def test_close_rows_matches_close(monkeypatch, name, block):
    """Each row of the row-wise kernel is `_close` of its closed base and new elements,
    seeded, with and without stop rows, whatever the pair block: a row is flagged iff
    it met its stop row, and then holds what `_close` holds when it stops."""
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
    loop = LATTICE_LOOPS[name]()
    commutative = np.array_equal(loop.table, loop.table.T)
    lattice = all_subloops(loop, lattice_guard=loop.n)
    rng = np.random.default_rng(7)
    base = np.array([lattice[i].mask() for i in rng.integers(len(lattice), size=40)])
    new = rng.random(base.shape) < 3 / loop.n
    stop = rng.random(base.shape) < 2 / loop.n
    plain, never = _close_rows(loop.table, base | new, new & ~base, commutative=commutative)
    merged, stopped = _close_rows(loop.table, base | new, new & ~base, stop, commutative)
    assert not never.any()
    for i in range(len(base)):
        assert np.array_equal(plain[i], _close(loop.table, base[i], new[i]))
        at = np.flatnonzero(stop[i])
        assert np.array_equal(merged[i], _close(loop.table, base[i], new[i], at))
        assert stopped[i] == merged[i][at].any()
    assert stopped.any() and not stopped.all()


def test_pair_indices_agree_in_int32_and_int64(z81, z81_lattice):
    """The int64 indices taken once a stack's flat indices pass int32 give the same
    pairs and marks as the int32 ones."""
    masks = np.array([h.mask() for h in z81_lattice[::20]])
    entries = _entries(masks, z81.table.dtype)
    hits = {}
    for index in (np.int32, np.int64):
        hit = np.zeros(masks.size, dtype=bool)
        for row, x, y in _row_pairs(*entries, *entries, len(masks), index):
            assert row.dtype == index
            _mark(hit, z81.table, row, x, y)
        hits[index] = hit.reshape(masks.shape)
    assert np.array_equal(hits[np.int32], hits[np.int64])
    assert np.array_equal(hits[np.int32], masks)


@pytest.mark.parametrize("moduli", [(2, 2, 2, 2, 2), (4, 2, 2)])
def test_lattice_of_elementary_and_mixed_abelian_matches_joins(moduli):
    """Many atoms per level (31 in Z2^5) and atoms nested in atoms (Z4 x Z2 x Z2)."""
    loop = gen_abelian(moduli)
    lattice = [s.members for s in all_subloops(loop)]
    assert lattice == early_stop_lattice(loop) == naive_lattice(loop)


def test_lattice_with_small_pair_blocks(monkeypatch, z81_lattice):
    """Blocks of 20 mask entries split every level's rows and every round's pairs."""
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", 20)
    z81 = gen_zassenhaus81()
    lattice = [s.members for s in all_subloops(z81)]
    assert lattice == [s.members for s in z81_lattice] == early_stop_lattice(z81)


@pytest.mark.parametrize("bad", [[0, 27], []], ids=["not-closed", "no-identity"])
def test_batched_member_check_rejects(z81, bad):
    """The lattice's one batched check raises on a row that is not a subloop."""
    rows = np.zeros((3, z81.n), dtype=bool)
    rows[:, 0] = True
    rows[1, [1, 2]] = True
    rows[2] = False
    rows[2, bad] = True
    with pytest.raises(NotASubloop, match="is not a subloop"):
        _subloops(z81, np.packbits(rows, axis=1))
    assert [s.members for s in _subloops(z81, np.packbits(rows[:2], axis=1))] == [(0,), (0, 1, 2)]


@pytest.mark.parametrize("name", ["zassenhaus81", "sym3", "abelian:9"])
def test_atom_generators(name):
    """Each recorded x is the first element generating its cyclic subloop."""
    loop = LATTICE_LOOPS[name]()
    gens, masks = _cyclic_masks(loop)
    assert len(set(gens)) == len(gens) == len(masks)
    for x, mask in zip(gens, masks):
        assert np.array_equal(generate_subloop(loop, [x]).mask(), mask)
        assert not any(np.array_equal(generate_subloop(loop, [y]).mask(), mask)
                       for y in range(x))
    if name == "abelian:9":
        assert {int(m.sum()): int(x) for x, m in zip(gens, masks)} == {1: 0, 9: 1, 3: 3}


@pytest.mark.parametrize("block", [1, 5 * PAIR_WIDTH * 81])
def test_cyclic_masks_in_small_row_blocks(monkeypatch, z81, block):
    """The seeds closed one row or 5 rows at a time give the masks and generators
    that one block of all 81 rows gives."""
    gens, masks = _cyclic_masks(z81)
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
    small_gens, small_masks = _cyclic_masks(z81)
    assert np.array_equal(small_gens, gens) and np.array_equal(small_masks, masks)
    assert len(gens) == 41


def test_lattice_guard(z81):
    big = direct_product(z81, gen_abelian((3,)))
    with pytest.raises(OrderOverflow, match="243 exceeds limit 128"):
        all_subloops(big)
    assert len(all_subloops(gen_abelian((3,)), lattice_guard=3)) == 2


def test_center_derived_cubes(z81, e27):
    assert center(z81).members == (0, 1, 2)
    assert associator_subloop(z81).members == (0, 1, 2)
    assert cube_subloop(z81).size == 1
    assert center(e27).is_full
    assert associator_subloop(e27).size == 1
    assert cube_subloop(e27).size == 1


@pytest.mark.parametrize("build", [cube_subloop, upper_central_series])
def test_cube_subloop_requires_cml(noncml6, build):
    """The cubes form a subloop, and the series' centres are nuclei, only in a CML."""
    with pytest.raises(NotCML):
        build(noncml6)


def test_upper_central_series(z81, e27):
    series = upper_central_series(z81)
    assert [t.size for t in series.terms] == [1, 3, 81]
    assert series.nilpotency_class == 2
    assert series.reaches_top
    assert upper_central_series(e27).nilpotency_class == 1


SERIES_LOOPS = {
    "z81": gen_zassenhaus81,
    "abelian:1": lambda: gen_abelian((1,)),
    "abelian:4,4": lambda: gen_abelian((4, 4)),
    "abelian:9,3": lambda: gen_abelian((9, 3)),
    "abelian:2,2,2,3": lambda: gen_abelian((2, 2, 2, 3)),
    "abelian:3,3,3": lambda: gen_abelian((3, 3, 3)),
    "abelian:3,3,3,3,3": lambda: gen_abelian((3,) * 5),
    "z81xZ2": lambda: direct_product(gen_zassenhaus81(), gen_abelian((2,))),
    "Z2xz81": lambda: direct_product(gen_abelian((2,)), gen_zassenhaus81()),
    "z81xZ3": lambda: direct_product(gen_zassenhaus81(), gen_abelian((3,))),
    "Z3xz81": lambda: direct_product(gen_abelian((3,)), gen_zassenhaus81()),
    "z81xZ4": lambda: direct_product(gen_zassenhaus81(), gen_abelian((4,))),
}


@pytest.mark.parametrize("name", SERIES_LOOPS)
def test_upper_central_series_matches_quotient_route(name):
    """The A_q masks give the terms of the quotient-and-centre route: on the
    trivial loop, on abelian loops (m = 1), and on z81 with a cyclic factor on
    either side, where the centre cosets interleave when the factor comes first."""
    loop = SERIES_LOOPS[name]()
    ours, theirs = upper_central_series(loop), quotient_central_series(loop)
    assert [t.members for t in ours.terms] == [t.members for t in theirs.terms]
    assert ours.nilpotency_class == theirs.nilpotency_class
    if loop.n > 1:
        assert ours.terms[1] == center(loop)


def test_maximal_subloops(z81):
    maxima = maximal_subloops(z81)
    assert len(maxima) == 13
    assert all(m.size == 27 for m in maxima)
    assert [m.members for m in maximal_subloops(gen_abelian((6,)))] == [
        (0, 2, 4),
        (0, 3),
    ]
    assert [m.members for m in maximal_subloops(gen_abelian((2, 3)))] == [
        (0, 1, 2),
        (0, 3),
    ]
    assert len(maximal_subloops(gen_abelian((3, 3, 3)))) == 13


def test_maximals_match_lattice(z81, z81_lattice):
    proper = [s for s in z81_lattice if not s.is_full]
    from_lattice = {
        s.members
        for s in proper
        if not any(s.elements < t.elements for t in proper)
    }
    assert from_lattice == {m.members for m in maximal_subloops(z81)}


MAXIMAL_LOOPS = {
    "abelian:2,3": (lambda: gen_abelian((2, 3)), 128),
    "abelian:4,4": (lambda: gen_abelian((4, 4)), 128),
    "abelian:9,3": (lambda: gen_abelian((9, 3)), 128),
    "abelian:2,2,2,3": (lambda: gen_abelian((2, 2, 2, 3)), 128),
    "abelian:8": (lambda: gen_abelian((8,)), 128),
    "z81xZ2": (lambda: direct_product(gen_zassenhaus81(), gen_abelian((2,))), 162),
}  # z81 is test_maximals_match_lattice


def assert_maximal_routes(loop, guard):
    """The labelled kernels give the member lists, in order, of the joins in L, of
    the quotient-loop route and, up to order ``guard``, of the lattice's maxima, and
    Phi(L) = the meet of the L'L^p is the meet of each list."""
    got = [m.members for m in maximal_subloops(loop)]
    routes = [join_maximals(loop), hyperplane_maximals(loop)]
    if loop.n <= guard:
        lattice = all_subloops(loop, lattice_guard=guard)
        routes.append(sorted(s.members for s in _maximal_members(lattice)))
    phi = frattini_subloop(loop)
    for want in routes:
        assert got == want
        assert phi == _meet(loop, [Subloop(loop, m) for m in want])


@pytest.mark.parametrize("name", MAXIMAL_LOOPS)
def test_maximal_subloops_match_lattice_maxima(name):
    """The labelled kernels give the maximal members of the exhaustive lattice:
    with two primes, and with cyclic factors of order 4, 8 and 9, where F = L'L^p
    is more than L'."""
    make, guard = MAXIMAL_LOOPS[name]
    assert_maximal_routes(make(), guard)


MAXIMA_LISTS = {
    "zassenhaus81": (gen_zassenhaus81, 128),
    "z81xZ3": (lambda: direct_product(gen_zassenhaus81(), gen_abelian((3,))), 243),
    "abelian:2,2,2,2,2,2": (lambda: gen_abelian((2,) * 6), 128),
    "cayley:dihedral8": (lambda: group_cayley_loop(
        PermGroup(4, np.array([[1, 2, 3, 0], [3, 2, 1, 0]]))), 128),
}


@pytest.mark.parametrize("name", MAXIMA_LISTS)
def test_maximal_members_match_the_quadratic_scan(name):
    """The scan by decreasing order lists the maxima of the pairwise scan, in lattice order."""
    make, guard = MAXIMA_LISTS[name]
    lattice = all_subloops(make(), lattice_guard=guard)
    assert _maximal_members(lattice) == naive_maximal_members(lattice)


QUOTIENT_LOOPS = {
    "z81xZ3": lambda: direct_product(gen_zassenhaus81(), gen_abelian((3,))),
    "Z3xz81": lambda: direct_product(gen_abelian((3,)), gen_zassenhaus81()),
    "abelian:3,3,3,3,3": lambda: gen_abelian((3,) * 5),
    "z81xZ3xZ3": lambda: direct_product(gen_zassenhaus81(), gen_abelian((3, 3))),
    "z81xZ4": lambda: direct_product(gen_zassenhaus81(), gen_abelian((4,))),
    "z81xZ12": lambda: direct_product(gen_zassenhaus81(), gen_abelian((12,))),
}


@pytest.mark.parametrize("name", QUOTIENT_LOOPS)
def test_maximal_subloops_match_hyperplanes_of_quotients(name):
    """The labelled kernels give the member lists, in order, of the quotient-loop
    route, up to order 972 and with two primes (z81xZ12), and the lattice's maxima
    up to order 324."""
    assert_maximal_routes(QUOTIENT_LOOPS[name](), 324)


@pytest.mark.parametrize("fake, match", [
    (lambda loop, k: np.zeros(loop.n, dtype=np.int64), "not additive"),
    (lambda loop, k: np.arange(loop.n), "not a positive power"),
], ids=["F-is-derived", "F-is-whole"])
def test_labels_refuse_a_wrong_frattini_factor(monkeypatch, fake, match):
    """With a wrong F_p in place of L'L^p on abelian:9,3, the labelling walk or its
    additivity check raises: L / L' = Z9 x Z3 is not elementary abelian, and L / L
    has no label."""
    monkeypatch.setattr(structure, "_powers", fake)
    with pytest.raises(AssertionError, match=match):
        maximal_subloops(gen_abelian((9, 3)))


def test_frattini(z81):
    assert frattini_subloop(z81).members == (0, 1, 2)
    assert frattini_subloop(gen_abelian((4,))).members == (0, 2)
    assert frattini_subloop(gen_abelian((6,))).size == 1
    assert frattini_subloop(gen_abelian((3, 3, 3))).size == 1
    assert frattini_subloop(gen_abelian((1,))).is_full


def test_is_normal(z81, e27):
    assert is_normal(z81, center(z81))
    h = generate_subloop(z81, [27])
    assert not is_normal(z81, h)
    assert normality_witness(z81, h) == (27, 3, 9)
    # relative normality: inside the abelian plane <e1, e2> everything is normal
    k = generate_subloop(z81, [27, 9])
    assert k.size == 9
    assert is_normal(z81, h, k)
    # abelian parents have no non-normal subloops at all
    for s in all_subloops(e27):
        assert is_normal(e27, s)


def test_normality_witness_is_least_in_h_when_cosets_interleave():
    """In Z3 x z81 the cosets of Z = {0, 1, 2, 81, 82, 83, 162, 163, 164}
    interleave, so coset order is not the order of H's least members: in
    H = <135> = {0, 135, 189}, 189 lies in the coset of 27 and 135 in the later
    coset of 54.  The witness is still the least escaping triple over
    H x L x L, read off the n^3 tensor built straight from the table."""
    loop = direct_product(gen_abelian((3,)), gen_zassenhaus81())
    h = generate_subloop(loop, [135])
    assert h.members == (0, 135, 189)
    proj = loop.central_cosets()[1]
    assert (proj[189], proj[135]) == (9, 18)
    escapes = ~h.mask()[associator_tensor(loop)[list(h.members)]]
    i, y, x = (int(v) for v in np.unravel_index(int(np.argmax(escapes)), escapes.shape))
    assert normality_witness(loop, h) == (h.members[i], y, x)
    assert h.members[i] == 135


def test_corrupted_associator_fails_the_certificate():
    """One wrong cell A_q[9, 3, 25] of the coset tensor, the cosets of 27, 9
    and 75, breaks the inner-mapping certificate: every normality test
    raises, and the identity check reports the least failing triple
    (x, y, z) = (75, 9, 27), which lies past the first row block of the scan."""
    loop = gen_zassenhaus81()
    proj = loop.central_cosets()[1]
    assert (proj[27], proj[9], proj[75]) == (9, 3, 25)
    assoc = loop.associator_table().copy()
    assert assoc[9, 3, 25] != 0
    assoc[9, 3, 25] = 0
    assoc.setflags(write=False)
    loop._assoc = assoc
    with pytest.raises(AssertionError, match=r"identity fails at \(75, 9, 27\)"):
        is_normal(loop, center(loop))
    (check,) = [c for c in run_suite(loop, "identities").checks
                if c.name == "inner_mapping_identity"]
    assert (check.status, check.witness) == ("fail", {"xyz": [75, 9, 27]})


WRONG_CENTRES = {
    "z81-not-closed": (gen_zassenhaus81, (0, 1, 2, 27), (1, 27, 0)),
    "z81-closed": (gen_zassenhaus81, (0, 1, 2, 27, 28, 29, 54, 55, 56), (27, 3, 9)),
    "z81-inside-z-not-closed": (gen_zassenhaus81, (0, 1), (1, 1, 0)),
    "swapped16-not-nuclear": (lambda: swapped_cyclic(16, 2, 5), (0, 4, 8, 12), (4, 1, 2)),
    "sym3-not-commuting": (lambda: CayleyLoop(S3_TABLE, name="sym3"), (0, 1), (1, 2, 0)),
}


@pytest.mark.parametrize("case", list(WRONG_CENTRES))
def test_wrong_centre_fails_the_certificate(case):
    """A wrong centre, set before its cosets are built, fails the certificate's
    check of Z, where the reps^3 scan alone finds no violation or the wrong
    one.  In z81 (Z = {0, 1, 2}): Z plus 27 is not closed under * 1
    (1 * 27 = 28), in the subloop <1, 27> the generator 27 is not in the
    nucleus, and {0, 1} is not closed under * 1.  In swapped16 (Z = {0, 8}),
    4 commutes and associates in first position only; in sym3, 1 does not
    commute.  The identity check fails, and in the CML z81 every normality test
    raises, on the claimed centre where it is a subloop."""
    make, members, xyz = WRONG_CENTRES[case]
    loop = make()
    loop._central = np.isin(np.arange(loop.n), members)
    closed = generate_subloop(loop, members).members == members
    if not closed:
        with pytest.raises(NotASubloop):
            center(loop)
    if make is gen_zassenhaus81:
        with pytest.raises(AssertionError, match=rf"identity fails at \({xyz[0]}, {xyz[1]}, {xyz[2]}\)"):
            is_normal(loop, center(loop) if closed else trivial_subloop(loop))
    assert loop.inner_identity_violation() == xyz
    (check,) = [c for c in run_suite(loop, "identities").checks
                if c.name == "inner_mapping_identity"]
    assert (check.status, check.witness) == ("fail", {"xyz": list(xyz)})


def test_certificate_streams_inner_map_rows(monkeypatch):
    """The certificate compares inner-map rows block by block, so deciding
    normality on a fresh loop never builds the n^3 inner-mapping tensor."""

    def never(self):
        raise AssertionError("the inner-mapping tensor was built")

    monkeypatch.setattr(CayleyLoop, "inner_mapping_table", never)
    loop = gen_zassenhaus81()
    assert is_normal(loop, center(loop))
    assert not is_normal(loop, generate_subloop(loop, [27]))
    assert loop.inner_identity_violation() is None


def test_is_normal_matches_inner_mapping_definition(z81, z81_lattice):
    """On every H <= K of the z81 lattice: H is normal in K iff every inner
    mapping L(x, y) with x, y in K maps H into H (read off the tensor I)."""
    inner = z81.inner_mapping_table()
    pairs = normal = 0
    for k in z81_lattice:
        maps = inner[np.ix_(k.members, k.members)]  # (|K|, |K|, n)
        for h in z81_lattice:
            if h <= k:
                invariant = bool(h.mask()[maps[:, :, list(h.members)]].all())
                assert is_normal(z81, h, k) == invariant, (h.members, k.members)
                pairs += 1
                normal += invariant
    assert 0 < normal < pairs


def test_normality_requires_cml(s3_loop):
    """<(1 2)> is not normal in S3, yet all its associators are trivial:
    the associator criterion holds only in CMLs, so others are refused."""
    with pytest.raises(NotCML):
        is_normal(s3_loop, [0, 1])
    with pytest.raises(NotCML):
        quotient(s3_loop, [0, 1])


def test_non_generator_witness(z81):
    maxima = maximal_subloops(z81)
    for x in (0, 1, 2):  # the Frattini subloop
        assert non_generator_witness(z81, x, maxima) is None
    w = non_generator_witness(z81, 27, maxima)
    assert w is not None
    assert not generate_subloop(z81, w).is_full
    assert generate_subloop(z81, w + (27,)).is_full
    # <1, 3> avoids 27, but <1, 3, 27> has order 27: no witness
    assert non_generator_witness(z81, 27, [generate_subloop(z81, [1, 3])]) is None


@pytest.mark.parametrize("moduli", [(2, 3), (4, 4), None], ids=["abelian:2,3", "abelian:4,4", "zassenhaus81"])
def test_non_generator_witness_is_exact(moduli):
    """Over every maximal subloop, x has no witness iff x is in Phi(L); each
    witness is a proper subloop that x joins to the whole loop."""
    loop = gen_zassenhaus81() if moduli is None else gen_abelian(moduli)
    maxima, phi = maximal_subloops(loop), frattini_subloop(loop)
    for x in range(loop.n):
        w = non_generator_witness(loop, x, maxima)
        assert (w is None) == (x in phi), x
        if w is not None:
            s = Subloop(loop, w)
            assert not s.is_full and join(s, generate_subloop(loop, [x])).is_full


@pytest.mark.parametrize("make", [gen_zassenhaus81, lambda: gen_abelian((9, 3)),
                                  lambda: CayleyLoop(NONCML6, name="noncml6")])
def test_powers_match_the_scalar_power(make):
    loop = make()
    for k in range(5):
        assert _powers(loop, k).tolist() == [loop.power(x, k) for x in range(loop.n)]


def test_is_divisible():
    assert is_divisible(gen_abelian((1,)))
    assert not is_divisible(gen_abelian((3, 3)))
    assert not is_divisible(gen_zassenhaus81())


@given(st.sets(st.integers(min_value=0, max_value=80), max_size=3))
@settings(max_examples=30, deadline=None)
def test_generate_subloop_idempotent(seeds):
    loop = gen_zassenhaus81()
    s = generate_subloop(loop, seeds)
    assert set(seeds) <= s.elements
    assert generate_subloop(loop, s.members) == s
    assert s.size in (1, 3, 9, 27, 81)
