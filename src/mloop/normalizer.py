"""Constructive subloop normalizers via the alternating P/D fixpoint.

Stages are computed literally in the written argument orders:

    P1 = {x in K : (H, H, x) subset H}
    D1 = {x in K : (H, x, P1) subset H}
    P_{i+1} = {x in K : (H, D_i, x) subset H}
    D_{i+1} = {x in K : (H, x, P_{i+1}) subset H}

until the pair (P, D) repeats.  The P-chain descends and the D-chain
ascends; the stabilized D-set is always a subloop in which H is normal
(both checked by raises that ``python -O`` keeps).  The two chains need not
meet: see normalizer_oracle's docstring and the prop3/theorem2 checks for
where that distinction shows up on concrete loops.

P = f(D) and D = g(P) are the two maps of a Galois connection (f(D) is the
set of x with every (H, d, x) inside H, g(P) the set of y with every
(H, y, p) inside H), so g(f(D)) contains D and f(g(f(D))) = f(D): the pair
repeats at the second round for every H, and each trace holds two equal
stages.  ``_fixpoints`` runs the two products on a stack of subloops at
once, and checks the repeat; ``normalizer`` is its batch of one and
``normalizer_condition`` one batch over the lattice.
"""

import random
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ChainStalled, OracleDisagreement
from .perm_rows import blocks
from .structure import (
    LATTICE_GUARD_DEFAULT,
    Subloop,
    _coset_subloop,
    _normality_matrix,
    _require_cml,
    all_subloops,
    coerce_subloop,
    full_subloop,
    generate_subloop,
    is_normal,
    join,
    trivial_subloop,
)

ORACLE_SEEDS = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class NormalizerTrace:
    p_stages: Tuple[Tuple[int, ...], ...]
    d_stages: Tuple[Tuple[int, ...], ...]
    result: Subloop
    iterations: int

    def serialize(self):
        return {
            "p_stages": [list(s) for s in self.p_stages],
            "d_stages": [list(s) for s in self.d_stages],
            "result": list(self.result.members),
            "iterations": self.iterations,
        }


def _fixpoints(loop, k, masks):
    """The P/D fixpoint of every H in ``masks``, subloop masks inside K (an (r, n)
    array or a list of rows), as (K, P, D, results).

    Both stages read H's normality matrix C over the c cosets of Z(L) that meet
    K (structure._normality_matrix).  (h, y, x) is constant on those cosets,
    so each stage is a selection of them: with D0 the cosets meeting H,
    P = {b : C[D0, b] all true} and D = {a : C[a, P] all true}, each a boolean
    matrix product with ~C on all rows at once.  P[i] and D[i] are row i's (c,)
    selections; the raise checks that C[D, b] picks P again, so the pair repeats
    at the second round, as the Galois connection above says.  Rows run in
    blocks of at most GATHER_BLOCK entries of their masks and of their
    matrices.  results[i] is row i's D as a Subloop, each distinct one proved a
    subloop once per K by structure._coset_subloop.
    """
    _require_cml(loop)
    k = full_subloop(loop) if k is None else coerce_subloop(loop, k)
    c = len(k._coset_index()[0])
    p_sel, d_sel = (np.empty((len(masks), c), dtype=bool) for _ in range(2))
    for rows in blocks(len(masks), max(loop.n, 4 * c * c)):
        k, _, d, escapes = _normality_matrix(loop, np.asarray(masks[rows], dtype=bool), k)
        np.logical_not(escapes, out=escapes)
        p = ~(d[:, None] @ escapes)[:, 0]
        d = ~(escapes @ p[:, :, None])[:, :, 0]
        if (~(d[:, None] @ escapes)[:, 0] != p).any():
            raise AssertionError("the P/D pair must repeat at its second round")
        if (d & ~p).any():
            raise AssertionError("H must be normal in the stabilized D-set")
        p_sel[rows], d_sel[rows] = p, d
    return k, p_sel, d_sel, [_coset_subloop(loop, k, sel) for sel in d_sel]


def normalizer(loop, k, h):
    """Run the P/D fixpoint for H inside K; result is the stabilized D-set.

    ``_fixpoints`` on H alone; only the trace maps its coset selections to K's
    members, its two rounds the same pair.
    """
    _require_cml(loop)
    h = coerce_subloop(loop, h)
    k, p_sel, d_sel, (result,) = _fixpoints(loop, k, h.mask()[None])
    p, d = k._coset_members(p_sel[0]), k._coset_members(d_sel[0])
    return NormalizerTrace((p, p), (d, d), result, 2)


def _may_join(pairs, sel):
    """Pre-test for the joins <S, x>, given H normal in S and the cosets sel meeting S:
    false at x's coset c_x only if H is not normal in <S, x>.  H normal in T forces
    C[b, c] for all cosets b, c meeting T (structure._normality_matrix), <S, x> meets the
    cosets of S and c_x, and C holds on sel already, so row and column c_x decide."""
    return pairs[:, sel].all(axis=1) & pairs[sel].all(axis=0) & pairs.diagonal()


def normalizer_oracle(loop, k, h):
    """Greedy saturation from H, repeated over the addition orders of ORACLE_SEEDS.

    Every run must land on the same subloop; a disagreement (two runs
    saturating at different subloops) is raised rather than averaged,
    since it falsifies the uniqueness this oracle is meant to certify.
    H is normal in the current S (H or an accepted join), so an x whose row or
    column c_x of H's normality matrix C fails on the cosets of S and x is
    rejected with no closure (_may_join).  Otherwise <S, x> = S v <x> is kept
    iff C holds on the cosets it meets.
    """
    h = coerce_subloop(loop, h)
    k, kpos, meet, (pairs,) = _normality_matrix(loop, h.mask()[None], k)
    coset_of = dict(zip(k.members, kpos.tolist()))
    may_h = _may_join(pairs, meet[0])
    outcome = None
    for seed in ORACLE_SEEDS:
        rng = random.Random(seed)
        s, may = h, may_h
        changed = True
        while changed:
            changed = False
            candidates = np.flatnonzero(k.mask() & ~s.mask()).tolist()
            rng.shuffle(candidates)
            for x in candidates:
                if s.mask()[x] or not may[coset_of[x]]:
                    continue
                grown = join(s, generate_subloop(loop, [x]))
                sel = k._cosets_meeting(grown.mask())
                if pairs[sel][:, sel].all():
                    s, may = grown, _may_join(pairs, sel)
                    changed = True
        if outcome is None:
            outcome = s
        elif s != outcome:
            raise OracleDisagreement(tuple(outcome.members), tuple(s.members))
    return outcome


def normalizer_condition(loop, lattice_guard=LATTICE_GUARD_DEFAULT):
    """Does every proper subloop grow under the fixpoint?  (witness = least failure)"""
    _require_cml(loop)
    proper = [h for h in all_subloops(loop, lattice_guard=lattice_guard) if not h.is_full]
    results = _fixpoints(loop, None, [h.mask() for h in proper])[3]
    return next(((False, h) for h, result in zip(proper, results) if result == h), (True, None))


def normalizer_chain(loop, h):
    """H, N(H), N(N(H)), ... until the whole loop; each step grows or raises ChainStalled."""
    h = coerce_subloop(loop, h)
    chain = [h]
    while not chain[-1].is_full:
        result = normalizer(loop, None, chain[-1]).result
        if result == chain[-1]:
            raise ChainStalled(
                f"normalizer chain stalled at order {result.size} "
                f"(subloop {result.serialize()})"
            )
        chain.append(result)
    return chain


@dataclass(frozen=True)
class SubnormalSystem:
    terms: Tuple[Subloop, ...]

    def serialize(self):
        return [list(t.members) for t in self.terms]


def ascending_subnormal_system(loop, h):
    """1, H, N(H), N(N(H)), ..., L with each term normal in its successor."""
    h = coerce_subloop(loop, h)
    chain = normalizer_chain(loop, h)
    terms = [trivial_subloop(loop)]
    for term in chain:
        if term != terms[-1]:
            terms.append(term)
    for a, b in zip(terms, terms[1:]):
        if not is_normal(loop, a, b):
            raise AssertionError("subnormal step failed normality")
    return SubnormalSystem(terms=tuple(terms))
