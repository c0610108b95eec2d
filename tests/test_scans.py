"""The n^3 table scans against pure-Python references, over one and many y-blocks.

`perm_rows.GATHER_BLOCK` is patched small so that the scans' y-row blocks
hold a few rows or one, as they do for real above order 512.
"""

import numpy as np
import pytest

from conftest import (
    NONCML6,
    S3_TABLE,
    lifted_associators,
    naive_associators,
    naive_center,
    naive_violations,
)
from mloop import perm_rows
from mloop.loop_core import CayleyLoop, diagnose, gen_abelian, gen_zassenhaus81
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
    loops = [CayleyLoop(S3_TABLE), CayleyLoop(NONCML6), gen_zassenhaus81(), gen_abelian((2, 3))]
    for loop in loops:
        assert list(center(loop).members) == naive_center(loop), loop.name
        values = naive_associators(loop)
        want = np.array(list(values.values())).reshape((loop.n,) * 3)
        assert np.array_equal(lifted_associators(loop), want), loop.name
        assert associator_subloop(loop) == generate_subloop(loop, set(values.values()))


def test_certificate_reports_least_triple_across_blocks(monkeypatch):
    """Three wrong cells of A_q: A_q[z', y', x'] breaks the inner-mapping
    identity at every (x, y, z) over those cosets of Z = {0, 1, 2}, whose
    least members are 3x', 3y', 3z'.  Block y = 9 fails at x = 75, the later
    block y = 60 at x = 39 and the last one, y = 69, at x = 69; the
    certificate reports (39, 60, 3)."""
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", 1)
    loop = gen_zassenhaus81()
    assert list(loop.central_cosets()[0]) == list(range(0, 81, 3))
    assoc = loop.associator_table().copy()
    for z, y, x in ((9, 3, 25), (1, 20, 13), (1, 23, 23)):
        assoc[z, y, x] = (assoc[z, y, x] + 1) % loop.n
    assoc.setflags(write=False)
    loop._assoc = assoc
    assert loop.inner_identity_violation() == (39, 60, 3)
