"""Multiplication groups of commutative loops and the theorem bridges.

The bundle ties a loop to its multiplication group M = <L(x)> and inner
mapping group I = <L(xy)^-1 L(x) L(y)>; construction asserts the
orbit-stabilizer identity order(M) = |L| * order(I), which also certifies
that I is the full stabilizer of the identity point.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotCommutative, NotNormal, NotSubgroup
from .loop_core import CayleyLoop, _cosets, quotient
from .perm_group import (
    PermGroup,
    Permutation,
    _generators,
    center_of_group,
    derived_subgroup,
    normal_closure,
)
from .perm_rows import compose, fresh, row_set
from .reporting import verdict
from .structure import (
    Subloop,
    coerce_subloop,
    is_normal,
    normality_witness,
)


def translation(loop, x):
    """The permutation y -> x*y (row x of the table)."""
    return Permutation(loop.table[int(x)])


@dataclass
class MultGroupBundle:
    loop: CayleyLoop
    M: PermGroup
    I: PermGroup


def multiplication_group(loop):
    if not loop.diagnostics().is_commutative:
        raise NotCommutative(
            f"{loop.name} is not commutative; only L-translations are generated here"
        )
    n, t, ld = loop.n, loop.table, loop.ldiv_table()
    M = PermGroup(n, t)
    # L(xy)^-1 L(x) L(y), in (x, y) order: row y of block x maps z to ldiv[xy, x(yz)].
    # L(c) commutes with each L(y) for c in Z(L), so L(xc, y) = L(x, y) = L(x, yc): the
    # first occurrence of each map in (x, y) order is a pair of least coset members.
    reps, seen = loop.central_cosets()[0], set()
    inner = [fresh(ld[t[x, reps][:, None], t[x][t[reps]]], seen) for x in reps]
    I = PermGroup(n, np.concatenate(inner))
    assert M.order() == n * I.order(), (
        "inner mapping group is not the full point-0 stabilizer: "
        f"{M.order()} != {n} * {I.order()}"
    )
    return MultGroupBundle(loop=loop, M=M, I=I)


def h_star(bundle, H):
    """{alpha in M : alpha(x) H = x H for all x}, for H normal in the loop."""
    loop = bundle.loop
    H = coerce_subloop(loop, H)
    if not is_normal(loop, H):
        raise NotNormal(normality_witness(loop, H))
    proj = _cosets(loop.table, list(H.members))[1]
    elements = bundle.M.element_array()
    keep = (compose(proj[None], elements) == proj).all(axis=1)
    return PermGroup(loop.n, _generators(bundle.M, keep))


def orbit_of_identity(bundle, N):
    """The orbit N(0) as a Subloop; N must sit inside M and act coset-wise."""
    loop = bundle.loop
    if not N.is_subgroup_of(bundle.M):
        raise NotSubgroup("N is not a subgroup of the multiplication group")
    result = Subloop(loop, N.element_array()[:, 0])
    if not is_normal(loop, result):
        raise NotNormal(normality_witness(loop, result))
    if not h_star(bundle, result).contains_rows(N.gen_array).all():
        raise NotSubgroup("N does not stabilize the cosets of its identity orbit")
    return result


# -- verification bridges: each returns (ok, witness) ------------------------


def verify_lemma1(bundle, H):
    """Coset action of M factors through M(L/H) with kernel exactly H*."""
    loop = bundle.loop
    H = coerce_subloop(loop, H)
    q, proj = quotient(loop, H)
    qbundle = multiplication_group(q)
    star = h_star(bundle, H)
    m_order = bundle.M.order()
    order_ok = qbundle.M.order() * star.order() == m_order

    # coset[a, i] is the coset of a(i); a permutes cosets iff coset[a] is constant on each
    elements = bundle.M.element_array()
    coset = compose(proj[None], elements)
    induced = coset[:, np.unique(proj, return_index=True)[1]]
    blocks_ok = bool((coset == induced[:, proj]).all())
    onto_ok = blocks_ok and row_set(induced) == qbundle.M.element_keys()
    kernel = elements[(induced == np.arange(q.n)).all(axis=1)]
    kernel_ok = blocks_ok and row_set(kernel) == star.element_keys()
    witness = {
        "m_order": m_order,
        "h_star_order": star.order(),
        "quotient_m_order": qbundle.M.order(),
    }
    return verdict(witness, order_ok=order_ok, blocks_ok=blocks_ok, onto_ok=onto_ok,
                   kernel_ok=kernel_ok)


def verify_prop1(bundle, center):
    """Z(M) coincides with the translations by the loop's center Z(L)."""
    loop = bundle.loop
    zl = coerce_subloop(loop, center)
    zm = center_of_group(bundle.M)
    t = loop.table
    zs = np.array(zl.members)
    set_ok = row_set(t[zs]) == zm.element_keys()
    # L(a) L(b) = L(ab) on central a, b
    hom_ok = bool((t[zs[:, None, None], t[zs][None]] == t[t[np.ix_(zs, zs)]]).all())
    inj_ok = len(np.unique(t[zs, 0])) == zl.size
    witness = {"loop_center_order": zl.size, "group_center_order": zm.order()}
    return verdict(witness, set_ok=set_ok, hom_ok=hom_ok, inj_ok=inj_ok)


def verify_lemma7(bundle, lprime):
    """Four descriptions of M' must coincide setwise; lprime is the loop's L'."""
    loop = bundle.loop
    derived = derived_subgroup(bundle.M)
    lprime = coerce_subloop(loop, lprime)
    joined = PermGroup(
        loop.n, np.concatenate([bundle.I.gen_array, loop.table[list(lprime.members)]])
    )
    star = h_star(bundle, lprime)
    closure = normal_closure(bundle.M, bundle.I.gen_array)
    ok = len({g.element_keys() for g in (derived, joined, star, closure)}) == 1
    witness = {
        "derived_order": derived.order(),
        "join_order": joined.order(),
        "h_star_order": star.order(),
        "normal_closure_order": closure.order(),
    }
    return ok, witness
