"""The table scans against pure-Python references and the exhaustive n^3
routes, over one and many y-blocks.

`perm_rows.GATHER_BLOCK` is patched small so that the scans' growing y-row
blocks are capped at a few rows or one, as the cap does for real above
order 512.
"""

import numpy as np
import pytest

from conftest import (
    CENTRE_SCANS,
    EXPANSION_CASES,
    NONCML6,
    S3_TABLE,
    associator_tensor,
    full_inner_identity_violation,
    lifted_associators,
    naive_associators,
    naive_center,
    naive_violations,
    per_rep_associator_table,
    per_x_least_violations,
    scan_central_mask,
    swapped_cyclic,
    three_law_central_violation,
)
from mloop import loop_core, perm_rows
from mloop.loop_core import (
    CayleyLoop,
    diagnose,
    direct_product,
    gen_abelian,
    gen_zassenhaus81,
)
from mloop.structure import associator_subloop, center, generate_subloop

# the default (one y-block below order 513), a few rows per block, one row per block
BLOCKS = [perm_rows.GATHER_BLOCK, 20, 1]


def raw_tables():
    """Seeded square tables for n = 2..12: arbitrary, symmetric, and Z_n with
    three cells changed (symmetrically in every other table), so that their
    violations are few and scattered over x and y."""
    rng = np.random.default_rng(20261018)
    for n in range(2, 13):
        yield rng.integers(0, n, size=(n, n))
        sym = rng.integers(0, n, size=(n, n))
        yield np.minimum(sym, sym.T)
        for symmetric in (False, True):
            t = gen_abelian((n,)).table.astype(np.int64)
            for x, y, v in rng.integers(0, n, size=(3, 3)):
                t[x, y] = v
                if symmetric:
                    t[y, x] = v
            yield t


@pytest.mark.parametrize("block", BLOCKS)
def test_diagnose_matches_naive_on_raw_tables(monkeypatch, block):
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
    earlier_block_larger_x = 0
    for t in raw_tables():
        assoc, moufang = naive_violations(t)
        d = diagnose(t)
        law = moufang or assoc
        assert d.first_violation == (law[0] if law else None), t.tolist()
        assert d.is_associative == (not assoc)
        assert d.is_cml == (d.is_commutative and not moufang)
        # the reported law also fails in a y-row before the least triple's
        earlier_block_larger_x += bool(law) and any(y < law[0][1] for _, y, _ in law)
    assert earlier_block_larger_x >= 10


def test_later_block_at_smaller_x_wins(monkeypatch, z81):
    """With one y per block, associativity first fails in block y = 3 at some
    x > 3, and only in the later block y = 9 at x = 3; diagnose reports the
    lexicographically least triple (3, 9, 27) from the later block."""
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", 1)
    assoc, moufang = naive_violations(z81.table)
    assert moufang == [] and assoc[0] == (3, 9, 27)
    first_row = min(y for _, y, _ in assoc)
    assert first_row == 3 and min(x for x, y, _ in assoc if y == first_row) > 3
    d = diagnose(z81.table)
    assert (d.is_cml, d.is_associative, d.first_violation) == (True, False, (3, 9, 27))


@pytest.mark.parametrize("block", BLOCKS)
def test_center_and_associators_match_naive(monkeypatch, block):
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
    loops = [CayleyLoop(S3_TABLE), CayleyLoop(NONCML6), gen_zassenhaus81(), gen_abelian((2, 3)),
             swapped_cyclic(16, 2, 5)]
    for loop in loops:
        assert list(center(loop).members) == naive_center(loop), loop.name
        values = naive_associators(loop)
        want = np.array(list(values.values())).reshape((loop.n,) * 3)
        assert np.array_equal(lifted_associators(loop), want), loop.name
        assert associator_subloop(loop) == generate_subloop(loop, set(values.values()))


def test_center_is_nuclear_on_a_non_commutative_table():
    """In swapped16, 4 and 12 commute with everything and associate in first
    position, but are not in the middle or right nucleus."""
    loop = swapped_cyclic(16, 2, 5)
    assert center(loop).members == (0, 8)
    assert list(loop.central_cosets()[0]) == list(range(8))


@pytest.mark.parametrize("block", [1, 81 * 8 * 10, perm_rows.GATHER_BLOCK])
def test_certificate_reports_least_triple_across_blocks(monkeypatch, block):
    """Three wrong cells of A_q: A_q[z', y', x'] breaks the inner-mapping
    identity at every (x, y, z) over those cosets of Z = {0, 1, 2}, whose
    least members are 3x', 3y', 3z'.  With one y per block, block y = 9 fails
    at x = 75, the later block y = 60 at x = 39 and the last one, y = 69, at
    x = 69; with growing blocks y = 9 and y = 60 still fall in different
    blocks.  Each schedule reports (39, 60, 3)."""
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
    assert three_wrong_cells().inner_identity_violation() == (39, 60, 3)


def three_wrong_cells():
    """zassenhaus81 with A_q[9, 3, 25], A_q[1, 20, 13] and A_q[1, 23, 23] changed."""
    loop = gen_zassenhaus81()
    assert list(loop.central_cosets()[0]) == list(range(0, 81, 3))
    assoc = loop.associator_table().copy()
    for z, y, x in ((9, 3, 25), (1, 20, 13), (1, 23, 23)):
        assoc[z, y, x] = (assoc[z, y, x] + 1) % loop.n
    assoc.setflags(write=False)
    loop._assoc = assoc
    return loop


def coset_law_loops():
    """Loops whose two laws ``diagnose`` reads on L/Z(L): commutative and not
    Moufang with a nontrivial centre, non-commutative (m = n), and CMLs and
    abelian groups of orders 16 to 243.  In swapped16, 4 and 12 commute with
    everything and associate in first position without being nuclear, so its
    scan is exact only because the centre scan tests the whole nucleus."""
    z2, z3, z81 = gen_abelian((2,)), gen_abelian((3,)), gen_zassenhaus81()
    noncml6, swapped16 = CayleyLoop(NONCML6, name="noncml6"), swapped_cyclic(16, 2, 5)
    swapped24 = swapped_cyclic(24, 10, 24)
    pairs = [(noncml6, z3), (z3, noncml6), (z2, noncml6), (CayleyLoop(S3_TABLE, name="sym3"), z3),
             (swapped16, z3), (swapped24, z3), (z3, swapped24), (z81, z2), (z2, z81), (z81, z3),
             (z3, z81)]
    return [gen_abelian((4, 4)), swapped16, z81] + [direct_product(a, b) for a, b in pairs]


def test_certificate_matches_the_full_scan():
    """The certificate, read on reps^3 after its check of Z, gives the least
    failing (x, y, z) of the inner-map identity over all of L^3, or None: on
    loops that break the identity (non-Moufang, non-commutative), on loops
    that keep it, and on z81 with wrong cells in A_q."""
    loops = coset_law_loops() + [case() for case in EXPANSION_CASES.values()] + [three_wrong_cells()]
    failing = 0
    for loop in loops:
        found = loop.inner_identity_violation()
        assert found == full_inner_identity_violation(loop), loop.name
        failing += found is not None
    assert (len(loops), failing) == (24, 11)


CERTIFICATE_LOOPS = {
    "z81": gen_zassenhaus81,
    "z81xZ2": lambda: direct_product(gen_zassenhaus81(), gen_abelian((2,))),
    "z81xZ3": lambda: direct_product(gen_zassenhaus81(), gen_abelian((3,))),
    "z81xZ3xZ3": lambda: direct_product(gen_zassenhaus81(), gen_abelian((3, 3))),
}


# 27 * 27 * 2: blocks of two representatives a over m = 27 cosets; 1: one a per block
@pytest.mark.parametrize("block", [perm_rows.GATHER_BLOCK, 27 * 27 * 2, 1])
@pytest.mark.parametrize("name", CERTIFICATE_LOOPS)
def test_associator_table_matches_the_per_rep_loop(monkeypatch, name, block):
    """A_q built as gathers over blocks of representatives equals the table built
    one (m, m) gather per representative."""
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
    loop = CERTIFICATE_LOOPS[name]()
    assert np.array_equal(loop.associator_table(), per_rep_associator_table(loop))
    assert len(loop.central_cosets()[0]) == 27


@pytest.mark.parametrize("name", CERTIFICATE_LOOPS)
def test_central_violation_matches_the_three_laws(name):
    """The centre check, which reads two comparisons for each c that commutes with every
    element (every c of a commutative table), gives the three-law route's witness: None
    on the true centre, and the same (c, y, z) on seeded wrong claims, each with one or
    two non-central elements added or one central element dropped."""
    loop = CERTIFICATE_LOOPS[name]()
    t, central = loop.table, loop.central_mask()
    assert loop.commutative and loop.central_violation() is None
    assert three_law_central_violation(t, central) is None
    rng = np.random.default_rng(loop.n)
    claims = []
    for added in (1, 1, 2):
        claim = central.copy()
        claim[rng.choice(np.flatnonzero(~central), added, replace=False)] = True
        claims.append(claim)
    for _ in range(2):
        claim = central.copy()
        claim[rng.choice(np.flatnonzero(central)[1:])] = False
        claims.append(claim)
    for claim in claims:
        want = three_law_central_violation(t, claim)
        assert want is not None
        assert loop_core._central_violation(t, claim) == want, np.flatnonzero(claim)


def test_central_violation_on_non_commutative_tables():
    """On tables that are not commutative the check gives the three-law route's witness:
    None on the true centre, whose generator 8 of swapped16 commutes with every element,
    and a failure on claims adding an element that does not commute, or swapped16's 4,
    which commutes with every element but is not in the middle or right nucleus."""
    for loop, added in ((CayleyLoop(S3_TABLE), [[1]]), (swapped_cyclic(16, 2, 5), [[4], [1, 4]])):
        assert not loop.commutative
        central = loop.central_mask()
        assert loop_core._central_violation(loop.table, central) is None
        assert three_law_central_violation(loop.table, central) is None
        for extra in added:
            claim = central.copy()
            claim[extra] = True
            want = three_law_central_violation(loop.table, claim)
            assert want is not None and loop_core._central_violation(loop.table, claim) == want


@pytest.mark.parametrize("block", BLOCKS)
def test_diagnose_on_cosets_matches_raw_table(monkeypatch, block):
    """The laws read on coset representatives give the fields of the exhaustive
    n^3 scan of the bare table, and below order 19 those of the pure-Python
    triple loops."""
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
    non_moufang = {}
    for loop in coset_law_loops():
        d = diagnose(loop)
        assert d == diagnose(loop.table), loop.name
        if loop.n <= 18:
            assoc, moufang = naive_violations(loop.table)
            law = moufang or assoc
            assert d.first_violation == (law[0] if law else None), loop.name
            assert (d.is_associative, d.is_cml) == (not assoc, d.is_commutative and not moufang)
        if d.is_commutative and not d.is_cml:
            assert len(loop.central_cosets()[0]) < loop.n, loop.name
            non_moufang[loop.name] = d.first_violation
    assert non_moufang == {"noncml6xabelian:3": (6, 0, 12), "abelian:3xnoncml6": (2, 0, 4),
                           "abelian:2xnoncml6": (2, 0, 4)}


# 8 * 27: y-blocks of up to 8 rows over m = 27 cosets, so the x's of each y-block
# are cut into blocks of 8 // rows (8, 4, 2 and 1 x's)
@pytest.mark.parametrize("block", BLOCKS + [8 * 27])
def test_x_blocked_scans_match_the_per_x_route(monkeypatch, block):
    """diagnose's two laws and the inner-map certificate, read on blocks of x's,
    give the least triples of the per-x route: on raw tables, on the coset-law
    loops, on the expansion cases and on z81 with wrong cells in A_q."""
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)

    def scans():
        loops = coset_law_loops() + [case() for case in EXPANSION_CASES.values()]
        loops.append(three_wrong_cells())
        return ([diagnose(t) for t in raw_tables()] + [diagnose(loop) for loop in loops],
                [loop.inner_identity_violation() for loop in loops])

    diagnosed, certified = scans()
    monkeypatch.setattr(loop_core, "_least_violations", per_x_least_violations)
    assert scans() == (diagnosed, certified)
    assert sum(d.first_violation is not None for d in diagnosed) == 63
    assert sum(v is not None for v in certified) == 11


@pytest.mark.parametrize("block", BLOCKS)
def test_central_mask_matches_full_associator_tensor(monkeypatch, block):
    """Z(L) is the set of x whose row commutes and whose slice of the n^3
    associator tensor, built straight from the table, is all identity."""
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
    z2, z3, z81 = gen_abelian((2,)), gen_abelian((3,)), gen_zassenhaus81()
    for loop in (direct_product(z81, z2), direct_product(z3, z81), direct_product(z81, z3)):
        t = loop.table
        want = (t == t.T).all(axis=1) & ~associator_tensor(loop).any(axis=(1, 2))
        assert np.array_equal(loop.central_mask(), want), loop.name


def centre_scan_loops():
    """The scan tests' loops, z81 times Z2, Z3, Z3 x Z3 and Z12, the abelian 3^6
    (|Z| = n = 729) and the non-commutative swapped16, swapped24 and swapped48."""
    z81 = gen_zassenhaus81()
    scan_loops = [CayleyLoop(S3_TABLE, name="sym3"), CayleyLoop(NONCML6, name="noncml6"), z81,
                  gen_abelian((2, 3))] + coset_law_loops()
    products = [direct_product(z81, gen_abelian(moduli)) for moduli in ((2,), (3,), (3, 3), (12,))]
    swapped = [swapped_cyclic(16, 2, 5), swapped_cyclic(24, 10, 24), swapped_cyclic(48, 20, 48),
               swapped_cyclic(48, 4, 2)]
    return scan_loops + products + [gen_abelian((3,) * 6)] + swapped


def test_central_mask_matches_the_per_x_scan(monkeypatch):
    """The pre-filter on L's greedy generators and the walk over the span of
    Z's generators give the mask of the per-x block scan, over one and many
    y-blocks."""
    for loop in centre_scan_loops():
        want = scan_central_mask(loop)
        for block in BLOCKS:
            monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
            got = CayleyLoop(loop.table, name=loop.name).central_mask()
            assert np.array_equal(got, want), (loop.name, block)
        monkeypatch.undo()  # the reference scans at the default blocks


def count_full_scans(monkeypatch):
    """Record each ``_central_scan`` of ``central_mask`` as (x, passed)."""
    scans, real = [], loop_core._central_scan

    def counted(table, x, commutative):
        scans.append((int(x), real(table, x, commutative)))
        return scans[-1][1]

    monkeypatch.setattr(loop_core, "_central_scan", counted)
    return scans


@pytest.mark.parametrize("make, generators", [
    (lambda: direct_product(gen_zassenhaus81(), gen_abelian((3, 3))), [1, 3, 9]),
    (lambda: gen_abelian((3,) * 6), [1, 3, 9, 27, 81, 243]),
], ids=["z81xZ3xZ3", "abelian3^6"])
def test_full_scans_run_once_per_greedy_generator_of_the_centre(monkeypatch, make, generators):
    """On z81 x Z3 x Z3 (|Z| = 27) and the abelian 3^6 (|Z| = 729) no
    non-central x survives the pre-filter, and only the greedy generators
    of Z run the n^2 scan; every other central x lies in their span."""
    loop = make()
    scans = count_full_scans(monkeypatch)
    central = loop.central_mask()
    assert scans == [(g, True) for g in generators]
    assert int(central.sum()) == 3 ** len(generators)


@pytest.mark.parametrize("make, passed, failed, centre", [
    (lambda: swapped_cyclic(48, 4, 2), [24], 30, (0, 24)),
    (lambda: swapped_cyclic(16, 2, 5), [8], 0, (0, 8)),
], ids=["swapped48", "swapped16"])
def test_survivors_outside_the_centre_fall_back_to_the_full_scan(monkeypatch, make, passed,
                                                                 failed, centre):
    """Both loops are generated by 1.  In swapped_cyclic(48, 4, 2), 30 non-central
    x pass the pre-filter at y = 1, and each fails its own scan.  In swapped16,
    4 and 12 commute and have (x1)z = x(1z), but the pre-filter's second law,
    x(1z) = 1(xz), drops them, so only Z's generator 8 is scanned."""
    loop = make()
    assert list(loop_core._greedy_generators(loop.table, np.arange(loop.n) == 0)) == [1]
    scans = count_full_scans(monkeypatch)
    assert tuple(np.flatnonzero(loop.central_mask())) == centre
    assert [x for x, ok in scans if ok] == passed
    assert sum(not ok for _, ok in scans) == failed


def test_pair_pre_filter_keeps_the_full_scans(monkeypatch):
    """Each pair (g, h) of L's greedy generators is one of the (g, z) that the laws at
    y = g read, so testing the pairs first rules out no x those laws keep: on every
    scan-test loop, under each cap, the passing full scans are those of the y = g
    pre-filter alone (``CENTRE_SCANS``) and the failing ones are among its."""
    loops = centre_scan_loops()
    assert [loop.name for loop in loops] == [name for name, _, _ in CENTRE_SCANS]
    for loop, (name, passed, failed) in zip(loops, CENTRE_SCANS):
        for block in BLOCKS:
            monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
            scans = count_full_scans(monkeypatch)
            CayleyLoop(loop.table, name=name).central_mask()
            assert [x for x, ok in scans if ok] == passed, (name, block)
            assert {x for x, ok in scans if not ok} <= set(failed), (name, block)
            monkeypatch.undo()


def test_diagnose_reads_the_loop_flag_as_the_raw_scan_reads_the_table():
    """``diagnose`` of a loop takes commutativity from the constructor's test and its
    laws from reps^3; of the bare table, from its own test and all n^3 triples.  The
    loops of ``coset_law_loops`` are compared in the test above."""
    compared = {loop.name for loop in coset_law_loops()}
    for loop in centre_scan_loops():
        assert loop.commutative == bool(np.array_equal(loop.table, loop.table.T)), loop.name
        if loop.name not in compared:
            assert diagnose(loop) == diagnose(loop.table), loop.name


@pytest.mark.parametrize("block", [1, 3, 7, 64, 100, perm_rows.GATHER_BLOCK])
def test_cast_blocks_grow_to_the_gather_cap(monkeypatch, block):
    """Row blocks of 1, 2, 4, ... rows, at most GATHER_BLOCK entries each (and
    at least one row), cover 0..n-1 in order, each cast to intp."""
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
    for n in range(1, 71):
        for width in (n, 3):
            table = np.arange(n * width, dtype=np.int16).reshape(n, width)
            cap, lo = max(1, block // width), 0
            for k, (rows, t_rows) in enumerate(perm_rows.cast_blocks(table)):
                assert (rows.start, rows.stop) == (lo, lo + min(2 ** k, cap))
                assert t_rows.dtype == np.intp and np.array_equal(t_rows, table[lo:rows.stop])
                lo = min(rows.stop, n)
            assert lo == n
