import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import MLOOP_SOURCE_ROOT, NONCML6, inner_map_rows, naive_upper_central_series
from mloop.errors import NotCommutative, NotNormal, NotSubgroup
from mloop.loop_core import CayleyLoop, direct_product, gen_abelian, gen_zassenhaus81
from mloop.mult_group import (
    h_star,
    multiplication_group,
    orbit_of_identity,
    translation,
    verify_lemma1,
    verify_lemma7,
    verify_prop1,
)
from mloop.perm_group import (
    PermGroup,
    center_of_group,
    derived_subgroup,
    frattini_subgroup,
)
from mloop.perm_rows import row_set
from mloop.structure import associator_subloop, center, generate_subloop, trivial_subloop


@pytest.fixture(scope="module")
def e27_bundle():
    return multiplication_group(gen_abelian((3, 3, 3)))


def test_abelian_bundle(e27_bundle):
    # a group is its own multiplication group; inner mappings collapse
    assert e27_bundle.M.order() == 27
    assert e27_bundle.I.order() == 1


def test_zassenhaus_bundle(z81, z81_bundle):
    assert z81_bundle.M.order() == 2187
    assert z81_bundle.I.order() == 27
    assert z81_bundle.M.order() == 81 * z81_bundle.I.order()
    for x in (0, 1, 27, 80):
        assert translation(z81, x).images == tuple(int(v) for v in z81.table[x])


INNER_LOOPS = {
    "z81": gen_zassenhaus81,
    "z81xZ2": lambda: direct_product(gen_zassenhaus81(), gen_abelian((2,))),
    "z81xZ3": lambda: direct_product(gen_zassenhaus81(), gen_abelian((3,))),
    "Z3xz81": lambda: direct_product(gen_abelian((3,)), gen_zassenhaus81()),
    "abelian:4,4": lambda: gen_abelian((4, 4)),
    "abelian:3,3,3": lambda: gen_abelian((3, 3, 3)),
    "noncml6xZ3": lambda: direct_product(CayleyLoop(NONCML6, name="noncml6"), gen_abelian((3,))),
    "Z2xnoncml6": lambda: direct_product(gen_abelian((2,)), CayleyLoop(NONCML6, name="noncml6")),
}


@pytest.mark.parametrize("name", INNER_LOOPS)
def test_inner_generators_from_centre_coset_pairs(name):
    """The inner maps built on pairs of least centre-coset members are the
    first occurrences, in the same order, of those over all n^2 pairs; the two
    noncml6 products are commutative but not Moufang, with |Z| = 3 and 2."""
    loop = INNER_LOOPS[name]()
    assert len(loop.central_cosets()[0]) < loop.n
    gens = multiplication_group(loop).I.gen_array
    assert np.array_equal(gens, inner_map_rows(loop))


def same_array(a, b):
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("name", INNER_LOOPS)
def test_chain_matches_the_reference_build(name):
    """M's chain, one level of translations over I's chain, is the chain that
    Schreier-Sims builds from the table's rows alone: the same order and bases,
    the same generator set at each level, and the same transversals and elements."""
    loop = INNER_LOOPS[name]()
    got, want = multiplication_group(loop).M, PermGroup(loop.n, loop.table)
    assert (got.order(), got.base) == (want.order(), want.base)
    assert [len(level.generators) for level in got.chain] == [
        len(level.generators) for level in want.chain]
    for mine, ref in zip(got.chain, want.chain):
        assert row_set(mine.generators) == row_set(ref.generators)
        assert same_array(mine.reps, ref.reps)
    assert same_array(got.element_array(), want.element_array())


def test_wrong_centre_stops_the_build_under_optimize():
    """I is built from centre-coset pairs, so a claimed centre that is not central
    and nuclear would leave M's chain short of inner maps; the check survives -O."""
    script = "\n".join([
        "import numpy as np",
        "from mloop.loop_core import gen_zassenhaus81",
        "from mloop.mult_group import multiplication_group",
        "loop = gen_zassenhaus81()",
        "loop._central = np.isin(np.arange(loop.n), (0, 1, 2, 27, 28, 29, 54, 55, 56))",
        "multiplication_group(loop)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=MLOOP_SOURCE_ROOT))
    assert proc.returncode == 1
    assert "AssertionError: Z(L) is not central and nuclear at (c, y, z) = (27, 3, 9)" in proc.stderr


def test_left_equals_right_translation(z81):
    # commutativity makes T(x) = L(x)^-1 R(x) trivially the identity
    for x in range(0, 81, 5):
        assert np.array_equal(z81.table[x, :], z81.table[:, x])


def test_h_star(z81, z81_bundle):
    derived = associator_subloop(z81)
    star = h_star(z81_bundle, derived)
    assert star.order() == 81
    assert h_star(z81_bundle, trivial_subloop(z81)).order() == 1
    with pytest.raises(NotNormal):
        h_star(z81_bundle, generate_subloop(z81, [27]))


def test_orbit_of_identity(z81, z81_bundle):
    derived = associator_subloop(z81)
    star = h_star(z81_bundle, derived)
    assert orbit_of_identity(z81_bundle, star) == derived
    assert orbit_of_identity(z81_bundle, derived_subgroup(z81_bundle.M)).members == (0, 1, 2)


def test_orbit_of_identity_refuses_a_point_stabilizer(z81_bundle):
    # I fixes 0, so its orbit is the trivial subloop, whose H* is trivial
    with pytest.raises(NotSubgroup, match="does not stabilize the cosets"):
        orbit_of_identity(z81_bundle, z81_bundle.I)


def test_mult_group_structure(z81_bundle):
    m = z81_bundle.M
    assert center_of_group(m).order() == 3
    assert derived_subgroup(m).order() == 81
    assert frattini_subgroup(m).order() == 81
    assert [t.order() for t in naive_upper_central_series(m)] == [1, 3, 81, 2187]


def test_lemma1_bridge(z81, z81_bundle, e27_bundle):
    ok, witness = verify_lemma1(z81_bundle, associator_subloop(z81))
    assert ok, witness
    ok, witness = verify_lemma1(e27_bundle, trivial_subloop(e27_bundle.loop))
    assert ok, witness


def test_prop1_bridge(z81_bundle, e27_bundle):
    for bundle in (z81_bundle, e27_bundle):
        ok, witness = verify_prop1(bundle, center(bundle.loop))
        assert ok, witness


@pytest.mark.parametrize("elements, loop_center_order", [([0], 1), ([0, 27, 54], 3)])
def test_prop1_wrong_center_pinned_witness(z81_bundle, elements, loop_center_order):
    want = {"loop_center_order": loop_center_order, "group_center_order": 3,
            "set_ok": False, "hom_ok": True, "inj_ok": True}
    got = verify_prop1(z81_bundle, elements)
    assert json.dumps(got) == json.dumps([False, want])


def test_lemma1_wrong_group_pinned_witness(z81, z81_bundle):
    """With I in place of M, the cosets of L' are kept but the action on L/L' is trivial."""
    bundle = dataclasses.replace(z81_bundle, M=z81_bundle.I)
    want = {"m_order": 27, "h_star_order": 27, "quotient_m_order": 27,
            "order_ok": False, "blocks_ok": True, "onto_ok": False, "kernel_ok": True}
    got = verify_lemma1(bundle, associator_subloop(z81))
    assert json.dumps(got) == json.dumps([False, want])


def test_lemma7_bridge(z81_bundle, e27_bundle):
    for bundle in (z81_bundle, e27_bundle):
        ok, witness = verify_lemma7(bundle, associator_subloop(bundle.loop))
        assert ok, witness


def test_lemma7_trivial_lprime_pinned_witness(z81, z81_bundle):
    """With the trivial subloop as L', the join is I and H* is trivial, while
    M' and I's normal closure are unchanged, so the masks disagree."""
    want = {"derived_order": 81, "join_order": 27, "h_star_order": 1,
            "normal_closure_order": 81}
    got = verify_lemma7(z81_bundle, trivial_subloop(z81))
    assert json.dumps(got) == json.dumps([False, want])


def test_requires_commutativity(s3_loop):
    with pytest.raises(NotCommutative):
        multiplication_group(s3_loop)
