"""Multiplication groups of commutative loops and the theorem bridges.

The bundle ties a loop to its multiplication group M = <L(x)> and inner
mapping group I = <L(xy)^-1 L(x) L(y)>.  M's chain is one level over I's: its
transversal is the table, so by Schreier's lemma the point-0 stabilizer is
generated by the L(gx)^-1 L(g) L(x), that is by I (built from centre-coset
pairs) when Z(L) is central and nuclear, as the build checks under -O too.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotCommutative, NotNormal, NotSubgroup
from .loop_core import CayleyLoop, _cosets, quotient
from .perm_group import (PermGroup, Permutation, _derived, _generators, _images,
                         _normal_closure, center_of_group)
from .perm_rows import compose, fresh, row_set
from .reporting import verdict
from .structure import Subloop, coerce_subloop, is_normal, normality_witness


def translation(loop, x):
    """The permutation y -> x*y (row x of the table)."""
    return Permutation(loop.table[int(x)])


@dataclass
class MultGroupBundle:
    loop: CayleyLoop
    M: PermGroup
    I: PermGroup


def multiplication_group(loop):
    if not loop.commutative:
        raise NotCommutative(f"{loop.name} is not commutative; only L-translations are generated here")
    n, t, ld = loop.n, loop.table, loop.ldiv_table()
    bad = loop.central_violation()
    if bad is not None:
        raise AssertionError(f"Z(L) is not central and nuclear at (c, y, z) = {bad}")
    # L(xy)^-1 L(x) L(y), in (x, y) order: row y of block x maps z to ldiv[xy, x(yz)].
    # L(c) commutes with each L(y) for c in Z(L), so L(xc, y) = L(x, y) = L(x, yc): the
    # first occurrence of each map in (x, y) order is a pair of least coset members.
    reps, seen = loop.central_cosets()[0], set()
    at = t[reps]
    inner = [fresh(ld.take(t[x, reps].astype(np.intp)[:, None] * n + t[x].take(at)), seen)
             for x in reps]
    I = PermGroup(n, np.concatenate(inner))
    return MultGroupBundle(loop=loop, M=PermGroup(n, t, _stabilizer=I), I=I)


def _h_star(bundle, H):
    """Mask over M's element order of H*, for H normal in the loop."""
    loop = bundle.loop
    H = coerce_subloop(loop, H)
    if not is_normal(loop, H):
        raise NotNormal(normality_witness(loop, H))
    proj = _cosets(loop.table, np.flatnonzero(H.mask()))[1]
    return (compose(proj[None], bundle.M.element_array()) == proj).all(axis=1)


def h_star(bundle, H):
    """{alpha in M : alpha(x) H = x H for all x}, for H normal in the loop."""
    return PermGroup(bundle.loop.n, _generators(bundle.M, _h_star(bundle, H)))


def orbit_of_identity(bundle, N):
    """The orbit N(0) as a Subloop; N must sit inside M and act coset-wise."""
    loop = bundle.loop
    if not N.is_subgroup_of(bundle.M):
        raise NotSubgroup("N is not a subgroup of the multiplication group")
    result = Subloop(loop, _images(N, [0])[:, 0])
    if not is_normal(loop, result):
        raise NotNormal(normality_witness(loop, result))
    if not _h_star(bundle, result)[bundle.M._index(N.gen_array[:, bundle.M.base])].all():
        raise NotSubgroup("N does not stabilize the cosets of its identity orbit")
    return result


# -- verification bridges: each returns (ok, witness) ------------------------


def verify_lemma1(bundle, H):
    """Coset action of M factors through M(L/H) with kernel exactly H*."""
    loop = bundle.loop
    H = coerce_subloop(loop, H)
    q, proj = quotient(loop, H)  # raises NotNormal first, as _h_star does
    qbundle = multiplication_group(q)
    # coset[a, i] is the coset of a(i): a permutes cosets iff coset[a] is constant on each,
    # and lies in H* iff coset[a] = proj (the mask of _h_star)
    coset = compose(proj[None], bundle.M.element_array())
    star = (coset == proj).all(axis=1)
    m_order = bundle.M.order()
    order_ok = qbundle.M.order() * int(star.sum()) == m_order
    induced = coset[:, np.unique(proj, return_index=True)[1]]
    blocks_ok = bool((coset == induced[:, proj]).all())
    onto_ok = blocks_ok and row_set(induced) == qbundle.M.element_keys()
    kernel = (induced == np.arange(q.n)).all(axis=1)
    kernel_ok = blocks_ok and np.array_equal(kernel, star)
    witness = {"m_order": m_order, "h_star_order": int(star.sum()),
               "quotient_m_order": qbundle.M.order()}
    return verdict(witness, order_ok=order_ok, blocks_ok=blocks_ok, onto_ok=onto_ok,
                   kernel_ok=kernel_ok)


def verify_prop1(bundle, center):
    """Z(M) coincides with the translations by the loop's center Z(L)."""
    loop = bundle.loop
    zl = coerce_subloop(loop, center)
    zm = center_of_group(bundle.M)
    t = loop.table
    zs = np.flatnonzero(zl.mask())
    set_ok = row_set(t[zs]) == zm.element_keys()
    # L(a) L(b) = L(ab) on central a, b
    hom_ok = bool((t[zs[:, None, None], t[zs][None]] == t[t[np.ix_(zs, zs)]]).all())
    inj_ok = len(np.unique(t[zs, 0])) == zl.size
    witness = {"loop_center_order": zl.size, "group_center_order": zm.order()}
    return verdict(witness, set_ok=set_ok, hom_ok=hom_ok, inj_ok=inj_ok)


def verify_lemma7(bundle, lprime):
    """Four descriptions of M' must coincide setwise; lprime is the loop's L'.  M', H*(L')
    and I's normal closure are masks over M; the join <I, L(L')> has a chain of its own."""
    loop, M = bundle.loop, bundle.M
    derived = _derived(M)[0]
    lprime = coerce_subloop(loop, lprime)
    joined = PermGroup(loop.n, np.concatenate([bundle.I.gen_array,
                                               loop.table[lprime.mask()]]))
    star = _h_star(bundle, lprime)
    closure = _normal_closure(M, bundle.I.gen_array)[0]
    ok = (np.array_equal(derived, star) and np.array_equal(derived, closure)
          and joined.element_keys() == row_set(M.element_array()[derived]))
    witness = {"derived_order": int(derived.sum()), "join_order": joined.order(),
               "h_star_order": int(star.sum()), "normal_closure_order": int(closure.sum())}
    return ok, witness
