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
"""

import random
from dataclasses import dataclass
from typing import Tuple

from .errors import ChainStalled, OracleDisagreement
from .structure import (
    LATTICE_GUARD_DEFAULT,
    Subloop,
    _coset_subloop,
    _join_elements,
    _normality_matrix,
    _require_cml,
    all_subloops,
    coerce_subloop,
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


def normalizer(loop, k, h):
    """Run the P/D fixpoint for H inside K; result is the stabilized D-set.

    Both stages read H's normality matrix C over the c cosets of Z(L) that meet
    K (structure._normality_matrix).  (h, y, x) is constant on those cosets,
    so each stage is a selection of them: with D seeded by the cosets meeting H,
    P = {b : C[D, b] all true} and D = {a : C[a, P] all true}, until the pair
    of selections repeats.  Only the trace maps the stages to K's members, and
    structure._coset_subloop proves the last D a subloop on L/Z(L) when Z(L) <= K.
    """
    h, k, _, pairs = _normality_matrix(loop, h, k)
    stages, d_sel, cap = [], k._cosets_meeting(h.mask()), k.size + 2
    for _ in range(cap):
        p_sel = pairs[d_sel].all(axis=0)
        d_sel = pairs[:, p_sel].all(axis=1)
        stages.append((p_sel, d_sel))
        if len(stages) >= 2 and all((a == b).all() for a, b in zip(*stages[-2:])):
            break
    else:
        raise ChainStalled(f"P/D alternation exceeded {cap} rounds for H of order {h.size}")
    if not pairs[d_sel][:, d_sel].all():
        raise AssertionError("H must be normal in the stabilized D-set")
    p_stages, d_stages = (tuple(map(k._coset_members, sels)) for sels in zip(*stages))
    return NormalizerTrace(p_stages, d_stages, _coset_subloop(loop, k, d_sel), len(stages))


def _may_join(pairs, sel):
    """Pre-test for the joins <S, x>, given H normal in S and the cosets sel meeting S:
    false at x's coset c_x only if H is not normal in <S, x>.  H normal in T forces
    C[b, c] for all cosets b, c meeting T (structure._stay_rows), <S, x> meets the
    cosets of S and c_x, and C holds on sel already, so row and column c_x decide."""
    return pairs[:, sel].all(axis=1) & pairs[sel].all(axis=0) & pairs.diagonal()


def maximality_gaps(loop, k, h, trace):
    """Elements x in K outside the result of trace = normalizer(loop, k, h)
    with H still normal in <H, x>.

    An empty list certifies the maximality contrapositive for this input;
    a nonempty list is a counterexample to reading the fixpoint as "the"
    normalizer.  <H, x> is built only for x that pass _may_join.
    """
    h, k, kpos, pairs = _normality_matrix(loop, h, k)
    may = _may_join(pairs, k._cosets_meeting(h.mask()))[kpos]
    gaps = []
    for x, ok in zip(k.members, may.tolist()):
        if ok and x not in trace.result:
            sel = k._cosets_meeting(_join_elements(loop, h.mask(), [x]).mask())
            if pairs[sel][:, sel].all():
                gaps.append(int(x))
    return gaps


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
    h, k, kpos, pairs = _normality_matrix(loop, h, k)
    coset_of = dict(zip(k.members, kpos.tolist()))
    may_h = _may_join(pairs, k._cosets_meeting(h.mask()))
    outcome = None
    for seed in ORACLE_SEEDS:
        rng = random.Random(seed)
        s, may = h, may_h
        changed = True
        while changed:
            changed = False
            candidates = [x for x in k.members if x not in s.elements]
            rng.shuffle(candidates)
            for x in candidates:
                if x in s.elements or not may[coset_of[x]]:
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
    for h in all_subloops(loop, lattice_guard=lattice_guard):
        if h.is_full:
            continue
        trace = normalizer(loop, None, h)
        if trace.result.elements == h.elements:
            return False, h
    return True, None


def normalizer_chain(loop, h):
    """H, N(H), N(N(H)), ... until the whole loop; each step grows or raises ChainStalled."""
    h = coerce_subloop(loop, h)
    chain = [h]
    while not chain[-1].is_full:
        result = normalizer(loop, None, chain[-1]).result
        if result.elements == chain[-1].elements:
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
        if term.elements != terms[-1].elements:
            terms.append(term)
    for a, b in zip(terms, terms[1:]):
        if not is_normal(loop, a, b):
            raise AssertionError("subnormal step failed normality")
    return SubnormalSystem(terms=tuple(terms))
