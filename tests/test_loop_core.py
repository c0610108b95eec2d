import gc
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NONCML6,
    S3_TABLE,
    associator_tensor,
    lifted_associators,
    mixed_radix_abelian,
    swapped_cyclic,
)
from mloop import loop_core
from mloop.errors import (
    BadDimension,
    CrossLoop,
    NoIdentity,
    NotLatinSquare,
    NotNormal,
    OrderOverflow,
    ParseError,
)
from mloop.loop_core import (
    CayleyLoop,
    associator,
    diagnose,
    direct_product,
    gen_abelian,
    gen_zassenhaus81,
    parse_loop,
    quotient,
)
from mloop.structure import center, generate_subloop, is_normal


def test_zassenhaus_diagnostics(z81):
    d = z81.diagnostics()
    assert d.is_latin and d.has_identity and d.is_commutative
    assert d.is_cml
    assert not d.is_associative
    # first associativity failure in lexicographic scan order
    assert d.first_violation == (3, 9, 27)


def test_abelian_diagnostics():
    d = gen_abelian((3, 3)).diagnostics()
    assert d.is_cml and d.is_associative
    assert d.first_violation is None


def test_noncml_diagnostics(noncml6):
    d = noncml6.diagnostics()
    assert d.is_latin and d.has_identity and d.is_commutative
    assert not d.is_cml and not d.is_associative
    assert d.first_violation == (2, 0, 4)


def test_s3_diagnostics(s3_loop):
    d = s3_loop.diagnostics()
    assert d.is_associative
    assert not d.is_commutative
    assert not d.is_cml
    assert d.first_violation == (1, 2, 0)


def test_diagnose_accepts_raw_tables(z81):
    """Tables the validating constructor rejects can still be inspected: a raw
    table is scanned for both laws, while a CayleyLoop has them by construction."""
    shifted = (np.arange(3)[:, None] + np.arange(3)[None, :] + 1) % 3
    with pytest.raises(NoIdentity):
        CayleyLoop(shifted)
    d = diagnose(shifted)
    assert d.is_latin
    assert not d.has_identity
    not_latin = np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    with pytest.raises(NotLatinSquare):
        CayleyLoop(not_latin)
    d = diagnose(not_latin)
    assert not d.is_latin
    assert d.has_identity
    d = diagnose(np.array([[1, 0], [0, 0]]))
    assert not d.is_latin and not d.has_identity
    d = diagnose(z81)
    assert d.is_latin and d.has_identity
    assert d == diagnose(z81.table)
    # both share one raw-table validator: same rejections, same exception types
    bad_tables = [
        (np.zeros((2, 3), dtype=np.int64), BadDimension),
        (np.zeros((0, 0), dtype=np.int64), BadDimension),
        (np.zeros((2, 2)), ParseError),
        (np.array([[0, 1], [1, 7]]), ParseError),
        (np.array([[0, 1], [1, -1]]), ParseError),
    ]
    for table, exc in bad_tables:
        with pytest.raises(exc) as from_diagnose:
            diagnose(table)
        with pytest.raises(exc) as from_constructor:
            CayleyLoop(table)
        assert type(from_diagnose.value) is type(from_constructor.value)
        assert str(from_diagnose.value) == str(from_constructor.value)
    with pytest.raises(ParseError, match=r"value 7 out of range 0\.\.1"):
        diagnose(np.array([[0, 1], [1, 7]]))


def test_constructor_rejections():
    with pytest.raises(BadDimension):
        CayleyLoop(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ParseError):
        CayleyLoop(np.zeros((2, 2)))  # float dtype
    with pytest.raises(ParseError):
        CayleyLoop(np.array([[0, 1], [1, 7]]))
    with pytest.raises(NotLatinSquare, match="row=1 repeats value 1"):
        CayleyLoop(np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1]]))
    with pytest.raises(NoIdentity):
        CayleyLoop(np.array([[1, 0, 2], [0, 2, 1], [2, 1, 0]]))


def two_axis_violation(table):
    """(axis, index, least repeated value) of the first repeating row, else column."""
    for axis, lines in (("row", table.tolist()), ("col", table.T.tolist())):
        for i, line in enumerate(lines):
            repeated = [v for v in sorted(set(line)) if line.count(v) > 1]
            if repeated:
                return axis, i, repeated[0]
    return None


def test_symmetric_tables_report_the_two_axis_violation():
    """A commutative table's columns are its rows, so only its rows are sorted; on
    seeded symmetric non-Latin tables, Z_n with a cell pair changed and arbitrary
    ones, the constructor raises the violation that both axes give."""
    rng = np.random.default_rng(20261020)
    tables = []
    for n in range(2, 13):
        sym = rng.integers(0, n, size=(n, n))
        tables.append(np.minimum(sym, sym.T))
        t = gen_abelian((n,)).table.astype(np.int64)
        x, y, v = rng.integers(0, n, size=3)
        t[x, y] = t[y, x] = (t[x, y] + 1 + v % (n - 1)) % n
        tables.append(t)
    for t in tables:
        want = two_axis_violation(t)
        assert want is not None and want[0] == "row"
        with pytest.raises(NotLatinSquare) as err:
            CayleyLoop(t)
        assert (err.value.axis, err.value.index, err.value.value) == want
        assert not diagnose(t).is_latin


def test_latin_rows_with_a_repeating_column_are_rejected():
    """Every row is a permutation and the table is not commutative, so the columns
    are sorted too: column 1 repeats 1, column 2 repeats 0."""
    t = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    assert two_axis_violation(t) == ("col", 1, 1)
    with pytest.raises(NotLatinSquare, match="col=1 repeats value 1"):
        CayleyLoop(t)
    d = diagnose(t)
    assert not d.is_latin and not d.is_commutative


def test_gen_abelian_validates_its_table_once(monkeypatch):
    """The last fold is named directly, so the order-729 table passes one Latin check,
    and the table and name are those of the mixed-radix build."""
    orders, real = [], loop_core._latin_violation

    def counted(arr, commutative=False):
        orders.append(len(arr))
        return real(arr, commutative)

    monkeypatch.setattr(loop_core, "_latin_violation", counted)
    loop = gen_abelian((3,) * 6)
    assert orders.count(729) == 1
    want = mixed_radix_abelian((3,) * 6)
    assert loop.name == want.name == "abelian:3,3,3,3,3,3"
    assert loop.table.dtype == want.table.dtype and np.array_equal(loop.table, want.table)
    assert loop.commutative and not loop.table.flags.writeable
    assert gen_abelian((2, 3), name="six").name == "six"
    trivial = gen_abelian(())
    assert (trivial.name, trivial.n) == ("abelian:1", 1)


def test_mul_inv_ldiv(z81):
    rng = random.Random(7)
    for _ in range(50):
        i, j = rng.randrange(81), rng.randrange(81)
        assert z81.mul(i, z81.ldiv(i, j)) == j
        assert z81.mul(i, z81.inv(i)) == 0
        assert z81.power(i, 3) == 0
        assert z81.element_order(i) in (1, 3)
    assert z81.exponent() == 3


def test_power_negative_and_wraparound():
    z5 = gen_abelian((5,))
    assert z5.power(2, -1) == z5.inv(2) == 3
    assert z5.power(2, 7) == (2 * 7) % 5
    assert z5.exponent() == 5


def test_element_objects(z81):
    e1, e2, e3 = z81.element(27), z81.element(9), z81.element(3)
    assert (e1 * e2).index == z81.mul(27, 9)
    assert e1 * e2 == e2 * e1
    assert (e1 ** 3).index == 0
    assert e1.order() == 3
    # (e1, e2, e3) has associator e4 = element 1
    assert associator(e1, e2, e3).index == 1
    other = gen_abelian((3,))
    with pytest.raises(CrossLoop):
        e1 * other.element(1)
    with pytest.raises(TypeError):
        e1 * 4


def test_assoc_matches_definition_and_tensor(z81):
    tensor = z81.associator_table()
    assert tensor.shape == (27, 27, 27)
    proj = z81.central_cosets()[1]
    rng = random.Random(3)
    for _ in range(40):
        a, b, c = (rng.randrange(81) for _ in range(3))
        k = z81.assoc(a, b, c)
        assert z81.mul(z81.mul(a, z81.mul(b, c)), k) == z81.mul(z81.mul(a, b), c)
        assert int(tensor[proj[a], proj[b], proj[c]]) == k


TIER1_LOOPS = {
    "sym3": lambda: CayleyLoop(S3_TABLE, name="sym3"),
    "noncml6": lambda: CayleyLoop(NONCML6, name="noncml6"),
    **{"abelian:" + ",".join(map(str, m)): (lambda m=m: gen_abelian(m)) for m in ((1,), (4,), (6,), (2, 3), (3, 3), (3, 3, 3))},
    "swapped24": lambda: swapped_cyclic(24, 10, 24),
    "swapped48": lambda: swapped_cyclic(48, 20, 48),
    "zassenhaus81": gen_zassenhaus81,
    "z81xZ2": lambda: direct_product(gen_zassenhaus81(), gen_abelian((2,))),
    "Z2xz81": lambda: direct_product(gen_abelian((2,)), gen_zassenhaus81()),
    "z81xZ3": lambda: direct_product(gen_zassenhaus81(), gen_abelian((3,))),
}  # loops of order at most 300 from across the tests


@pytest.mark.parametrize("name", list(TIER1_LOOPS))
def test_coset_tensor_lifts_to_the_full_associator_tensor(name):
    """A_q read back through the central cosets is the n^3 tensor built
    straight from the table, and its representatives are the least members
    of their cosets of Z(L), in increasing order."""
    loop = TIER1_LOOPS[name]()
    reps, proj = loop.central_cosets()
    assert np.array_equal(reps, np.unique(proj, return_index=True)[1])
    assert np.array_equal(lifted_associators(loop), associator_tensor(loop))
    assert len(reps) == loop.n // center(loop).size


def test_inner_mapping_tensor(z81):
    inner = z81.inner_mapping_table()
    rng = random.Random(5)
    for _ in range(40):
        x, y, z = (rng.randrange(81) for _ in range(3))
        assert int(inner[x, y, z]) == z81.ldiv(z81.mul(x, y), z81.mul(x, z81.mul(y, z)))


def test_serialize_roundtrip(z81):
    again = parse_loop(z81.serialize())
    assert again.name == "zassenhaus81"
    assert np.array_equal(again.table, z81.table)


def test_parse_header_beats_fallback_name():
    text = "# name: cyclic3\n3\n0 1 2\n1 2 0\n2 0 1\n"
    assert parse_loop(text, name="file.txt").name == "cyclic3"
    assert parse_loop(text.splitlines()[1] + "\n0 1 2\n1 2 0\n2 0 1\n", name="file.txt").name == "file.txt"


@pytest.mark.parametrize(
    "text,exc,fragment",
    [
        ("", ParseError, "empty input"),
        ("# only a comment\n", ParseError, "empty input"),
        ("two\n0 1\n1 0\n", ParseError, "order is not an integer"),
        ("0\n", BadDimension, "not positive"),
        ("3\n0 1 2\n1 2 0\n", BadDimension, "found 2 table rows"),
        ("2\n0 1\n1 0 0\n", BadDimension, "expected 2 entries"),
        ("2\n0 1\n1 x\n", ParseError, "non-integer token"),
        ("3\n0 1 2\n1 1 0\n2 0 1\n", NotLatinSquare, "repeats value"),
    ],
)
def test_parse_errors(text, exc, fragment):
    with pytest.raises(exc, match=fragment):
        parse_loop(text)


def test_gen_abelian_two_encodings_of_z6():
    flat = gen_abelian((6,))
    split = gen_abelian((2, 3))
    for loop in (flat, split):
        d = loop.diagnostics()
        assert d.is_cml and d.is_associative
        assert loop.exponent() == 6
    assert not np.array_equal(flat.table, split.table)


def test_gen_abelian_guard():
    with pytest.raises(OrderOverflow):
        gen_abelian((40, 40), max_order=1024)
    with pytest.raises(BadDimension, match="positive"):
        gen_abelian((3, 0))


@pytest.mark.parametrize("moduli", [(), (1,), (6,), (2, 3), (4, 4), (3,) * 6],
                         ids=lambda m: ",".join(map(str, m)) or "empty")
def test_gen_abelian_is_the_mixed_radix_table(moduli):
    """The fold of direct_product writes the mixed-radix code of the digit route."""
    loop, want = gen_abelian(moduli), mixed_radix_abelian(moduli)
    assert loop.table.dtype == want.table.dtype
    assert np.array_equal(loop.table, want.table)
    assert loop.name == want.name


def test_direct_product(z81):
    prod = direct_product(z81, gen_abelian((3,)))
    assert prod.n == 243
    assert prod.name == "zassenhaus81xabelian:3"
    assert prod.diagnostics().is_cml
    with pytest.raises(OrderOverflow):
        direct_product(z81, z81, max_order=1024)


def _s3_power(k):
    """S3^k as the nested products ((S3 x S3) x S3) x ..."""
    loop = sym3 = CayleyLoop(S3_TABLE, name="sym3")
    for _ in range(k - 1):
        loop = direct_product(loop, sym3, max_order=6 ** k)
    return loop


FACTOR_PRODUCTS = {
    "z81xZ2": lambda: direct_product(gen_zassenhaus81(), gen_abelian((2,))),
    "Z2xz81": lambda: direct_product(gen_abelian((2,)), gen_zassenhaus81()),
    "z81xZ3": lambda: direct_product(gen_zassenhaus81(), gen_abelian((3,))),
    "Z3xz81": lambda: direct_product(gen_abelian((3,)), gen_zassenhaus81()),
    "z81xZ3xZ3": lambda: direct_product(gen_zassenhaus81(), gen_abelian((3, 3))),
    "z81xZ12": lambda: direct_product(gen_zassenhaus81(), gen_abelian((12,))),
    "noncml6xZ3": lambda: direct_product(CayleyLoop(NONCML6, name="noncml6"), gen_abelian((3,))),
    "Z2xnoncml6": lambda: direct_product(gen_abelian((2,)), CayleyLoop(NONCML6, name="noncml6")),
    "sym3xZ51": lambda: direct_product(CayleyLoop(S3_TABLE, name="sym3"), gen_abelian((51,))),
    "S3^4": lambda: _s3_power(4),
    "abelian3^6": lambda: gen_abelian((3,) * 6),
}  # every direct product the tests build, non-commutative and non-CML factors included


@pytest.mark.parametrize("name", list(FACTOR_PRODUCTS))
def test_products_read_off_their_factors_match_the_table_scans(name):
    """A direct product's centre, inverses and left division are read off its
    factors; the same table rebuilt with no factors scans its own rows.  Both
    give the same arrays, cosets, certificate verdict, diagnostics and A_q.  The
    last two read reps^3, 1296^3 triples on S3^4 (about 2.5 s per diagnose), so
    they are compared where m <= 300; diagnose reads only the table, the flag
    and the representatives, which the test compares on every product."""
    loop = FACTOR_PRODUCTS[name]()
    scanned = CayleyLoop(loop.table, name=loop.name)
    assert loop._factors is not None and scanned._factors is None
    assert loop.commutative == scanned.commutative
    for artifact in ("central_mask", "inverse_array", "ldiv_table"):
        got, want = getattr(loop, artifact)(), getattr(scanned, artifact)()
        assert got.dtype == want.dtype and not got.flags.writeable, artifact
        assert np.array_equal(got, want), artifact
    for got, want in zip(loop.central_cosets(), scanned.central_cosets()):
        assert np.array_equal(got, want)
    assert loop.central_violation() == scanned.central_violation() is None
    if len(loop.central_cosets()[0]) <= 300:
        assert loop.diagnostics() == scanned.diagnostics()
        assert np.array_equal(loop.associator_table(), scanned.associator_table())


def test_quotient_by_center(z81):
    q, proj = quotient(z81, center(z81))
    assert q.n == 27
    assert isinstance(proj, np.ndarray)
    assert proj.dtype == z81.table.dtype
    assert not proj.flags.writeable
    assert q.diagnostics().is_associative
    assert q.exponent() == 3
    assert proj[0] == 0
    for x in range(0, 81, 7):
        for c in center(z81).members:
            assert proj[z81.mul(x, c)] == proj[x]


def test_quotient_requires_normal(z81):
    with pytest.raises(NotNormal):
        quotient(z81, generate_subloop(z81, [27]))


def test_tensor_guard():
    """The associator guard bounds m = |L/Z(L)|, also on a non-commutative table;
    the inner-mapping tensor stays bounded by n."""
    sym3 = CayleyLoop(S3_TABLE, name="sym3")
    big = direct_product(sym3, gen_abelian((51,)))
    assert big.associator_table().shape == (6, 6, 6)  # Z(S3 x Z51) = Z51
    with pytest.raises(OrderOverflow, match="inner mapping table guard: 306 exceeds limit 300"):
        big.inner_mapping_table()
    s3_4 = _s3_power(4)
    with pytest.raises(OrderOverflow, match="associator table guard: 1296 exceeds limit 300"):
        s3_4.associator_table()  # Z(S3^4) is trivial
    abelian = gen_abelian((17, 19))
    assert abelian.associator_table().shape == (1, 1, 1)
    with pytest.raises(OrderOverflow, match="inner mapping table guard: 323 exceeds limit 300"):
        abelian.inner_mapping_table()


def test_loop_is_freed_by_refcount_alone():
    """A loop's caches hold arrays only, never a Subloop (which holds its
    parent), so a loop dies with its last reference, without the cyclic GC."""
    loop = gen_zassenhaus81()
    loop.associator_table()
    assert is_normal(loop, center(loop))
    ref = weakref.ref(loop)
    gc.disable()
    try:
        del loop
        assert ref() is None
    finally:
        gc.enable()


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_gen_abelian_always_group(moduli):
    loop = gen_abelian(moduli)
    d = loop.diagnostics()
    assert d.is_cml and d.is_associative
    assert loop.exponent() == math.lcm(*moduli)
