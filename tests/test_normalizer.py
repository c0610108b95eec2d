import hashlib
import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    MLOOP_SOURCE_ROOT,
    associator_tensor,
    element_fixpoint,
    gathered_normality_matrix,
    join_oracle,
    least_escape,
    maximality_gaps,
    normalizing_maxima,
)
from mloop import cli, perm_rows, structure
from mloop.errors import NotCML, NotNested, OracleDisagreement
from mloop.loop_core import direct_product, gen_abelian, gen_zassenhaus81
from mloop.normalizer import (
    _fixpoints,
    _may_join,
    ascending_subnormal_system,
    normalizer,
    normalizer_chain,
    normalizer_condition,
    normalizer_oracle,
)
from mloop.structure import (
    _coset_subloop,
    _normality_matrix,
    all_subloops,
    center,
    full_subloop,
    generate_subloop,
    is_normal,
    join,
    normality_witness,
    trivial_subloop,
)
from mloop.verify import LoopContext

FIXPOINT_LOOPS = {
    "z81": gen_zassenhaus81,
    "z81xZ2": lambda: direct_product(gen_zassenhaus81(), gen_abelian((2,))),
    "Z2xz81": lambda: direct_product(gen_abelian((2,)), gen_zassenhaus81()),
}


def _proper_spread(lattice):
    """A spread of proper K: every ninth subloop, and those of order 81."""
    spread = {k.members: k for k in lattice[1:-1:9] + [k for k in lattice if k.size == 81]}
    return list(spread.values())


@pytest.mark.parametrize("name", FIXPOINT_LOOPS)
def test_coset_fixpoint_matches_element_fixpoint(name):
    """On every proper subloop H, and on every H < K for a spread of proper K,
    the fixpoint run on coset matrices gives the stage traces of the run on
    (|K| x |K|) element matrices, and normality_witness the least escaping
    triple of the n^3 tensor.  The spread holds K that meet only some centre
    cosets (each a group, in which every H is normal) and, in the products,
    the non-associative K = z81, which meets every coset."""
    loop = FIXPOINT_LOOPS[name]()
    lattice = all_subloops(loop, lattice_guard=loop.n)
    tensor = associator_tensor(loop)
    whole = lattice[-1]
    for h in lattice[:-1]:
        assert normalizer(loop, None, h) == element_fixpoint(loop, None, h), h.members
        assert normality_witness(loop, h) == least_escape(tensor, h, whole), h.members
    reps, proj = loop.central_cosets()
    partial = escaping = 0
    for k in _proper_spread(lattice):
        partial += len(set(proj[list(k.members)])) < len(reps)
        for h in lattice:
            if h.elements < k.elements:
                assert normalizer(loop, k, h) == element_fixpoint(loop, k, h), (h.members, k.members)
                witness = normality_witness(loop, h, k)
                assert witness == least_escape(tensor, h, k), (h.members, k.members)
                escaping += witness is not None
    assert partial >= 20 and escaping == 156


def test_coset_fixpoint_matches_element_fixpoint_at_order_243():
    """On all 1,853 proper H of z81 x Z3 with K = L, the coset stages and the
    result proved closed on L/Z(L) give the element route's traces, whose
    result is a validated Subloop."""
    loop = direct_product(gen_zassenhaus81(), gen_abelian((3,)))
    lattice = all_subloops(loop, lattice_guard=loop.n)
    whole = lattice[-1]
    for h in lattice[:-1]:
        assert normalizer(loop, whole, h) == element_fixpoint(loop, None, h), h.members
    assert len(lattice) == 1854


@pytest.mark.parametrize("name", ["z81", "z81xZ2"])
@pytest.mark.parametrize("within", [None, (9, 27)], ids=["K=L", "K=<9,27>"])
def test_batched_normality_matrix_matches_per_h_gather(name, within):
    """One call on the stack of every proper H <= K gives each H's coset matrix as
    gathered from its own mask, and the cosets it meets.  <9, 27> lacks part of
    Z(L), so K meets the cosets of Z(L) only in part."""
    loop = FIXPOINT_LOOPS[name]()
    lattice = all_subloops(loop, lattice_guard=loop.n)
    k = lattice[-1] if within is None else generate_subloop(loop, within)
    assert within is None or not center(loop).elements <= k.elements
    hs = [h for h in lattice if h.elements < k.elements]
    got_k, kpos, meet, pairs = _normality_matrix(loop, np.array([h.mask() for h in hs]), k)
    for h, row, sel in zip(hs, pairs, meet):
        _, _, want_kpos, want = gathered_normality_matrix(loop, h, k)
        assert np.array_equal(row, want) and np.array_equal(kpos, want_kpos), h.members
        assert np.array_equal(sel, got_k._cosets_meeting(h.mask())), h.members
    assert len(hs) >= 5


def test_fixpoints_match_element_fixpoint_and_context():
    """The context's per-H fixpoints over the 370 subloops of z81 x Z2 and one batch
    over all of them give, for every H, the element route's stages and result; the
    element route repeats at its second round, as the batch assumes and checks."""
    loop = FIXPOINT_LOOPS["z81xZ2"]()
    ctx = LoopContext(loop, lattice_guard=loop.n)
    k, p_sel, d_sel, results = _fixpoints(loop, None, [h.mask() for h in ctx.lattice])
    for h, p, d, result in zip(ctx.lattice, p_sel, d_sel, results):
        want = element_fixpoint(loop, None, h)
        assert want.iterations == 2, h.members
        assert want.p_stages == (k._coset_members(p),) * 2, h.members
        assert want.d_stages == (k._coset_members(d),) * 2, h.members
        assert result == want.result, h.members
        assert ctx.fixpoint_result(h) is ctx.by_members[want.result.key], h.members


@pytest.mark.parametrize("within", [None, (9, 27)], ids=["K=L", "K=<9,27>"])
def test_fixpoint_blocks_give_each_row_its_own_trace(monkeypatch, z81, z81_lattice, within):
    """With rows in small blocks (one row each for K = L, five within <9, 27>), each
    row's pair of selections and result are those of its own run by the element route."""
    k = None if within is None else generate_subloop(z81, within)
    hs = [h for h in z81_lattice if k is None or h <= k]
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", 20 * z81.n)
    k, p_sel, d_sel, results = _fixpoints(z81, k, [h.mask() for h in hs])
    assert len(hs) > 5
    for h, p, d, result in zip(hs, p_sel, d_sel, results):
        want = element_fixpoint(z81, k, h)
        assert want.p_stages == (k._coset_members(p),) * 2, h.members
        assert want.d_stages == (k._coset_members(d),) * 2, h.members
        assert result == want.result, h.members


# SHA-256 of `normalizer --gen zassenhaus81 --json` reports, fixed before the fixpoint
# ran in batches: the traces of H = <27> and <3, 9> in L, and of <27> in <9, 27>.
NORMALIZER_JSON_SHA256 = {
    ("27",): "9e6b174797dce56440a2eb05a526b29c856774bd58d8effb0fe7b3fabda6fdcd",
    ("3,9",): "93f31f074164a89535341618e9b05b378e0acab6a9c3b5970548322a87c2d4aa",
    ("27", "9,27"): "38e23359979108ab436b36b46a331a987198c44f22939a889aff5522704f9a70",
}


@pytest.mark.parametrize("args", list(NORMALIZER_JSON_SHA256), ids=["27", "3,9", "27-within-9,27"])
def test_normalizer_json_is_byte_identical(tmp_path, capsys, args):
    out = tmp_path / "trace.json"
    argv = ["normalizer", "--gen", "zassenhaus81", "--subloop", args[0], "--json", str(out)]
    if len(args) > 1:
        argv += ["--within", args[1]]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NORMALIZER_JSON_SHA256[args]


def test_certificate_rejects_cosets_not_closed_on_the_quotient(z81):
    """Z(z81) = {0, 1, 2} plus the coset of 27 is not closed (27 * 27 = 54 lies in
    a third coset), and the certificate raises; Z plus the cosets of 27 and 54
    is the subloop <1, 27> of order 9.  K = L, so sel runs over all 27 cosets."""
    whole = full_subloop(z81)
    with pytest.raises(AssertionError, match="not closed on L/Z"):
        _coset_subloop(z81, whole, whole._cosets_meeting(np.isin(np.arange(81), [0, 27])))
    closed = whole._cosets_meeting(generate_subloop(z81, [1, 27]).mask())
    assert _coset_subloop(z81, whole, closed) == generate_subloop(z81, [1, 27])


def test_certificate_runs_once_per_k_and_coset_set(monkeypatch, z81, z81_lattice):
    """Fixpoints over the same K prove each distinct result once and hand back that
    one Subloop; another K proves its results afresh."""
    proved = []
    real = structure._prove_cosets
    monkeypatch.setattr(structure, "_prove_cosets", lambda *a: proved.append(a[2]) or real(*a))
    whole = full_subloop(z81)
    hs = z81_lattice[:-1]
    first = [normalizer(z81, whole, h).result for h in hs]
    assert len(proved) == len({r.members for r in first}) < len(hs)
    again = _fixpoints(z81, whole, [h.mask() for h in hs])[3]
    assert all(a is b for a, b in zip(first, again)) and len(proved) == len(set(first))
    normalizer(z81, full_subloop(z81), hs[5])
    assert len(proved) == len(set(first)) + 1


def test_certificate_survives_optimize():
    """Under python -O the certificate still raises on Z plus one non-central coset."""
    script = "\n".join([
        "import numpy as np",
        "from mloop.loop_core import gen_zassenhaus81",
        "from mloop.structure import _coset_subloop, full_subloop",
        "whole = full_subloop(gen_zassenhaus81())",
        "sel = whole._cosets_meeting(np.isin(np.arange(81), [0, 27]))",
        "_coset_subloop(whole.parent, whole, sel)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=MLOOP_SOURCE_ROOT))
    assert proc.returncode == 1
    assert "AssertionError: the cosets [0, 9] of Z(L) are not closed on L/Z(L)" in proc.stderr


def _oracle_outcome(oracle, loop, k, h, **kwargs):
    try:
        return oracle(loop, k, h, **kwargs).members
    except OracleDisagreement as exc:
        return ("disagree", exc.first, exc.second)


@pytest.mark.parametrize("name", FIXPOINT_LOOPS)
def test_oracle_matches_join_oracle(name):
    """The pre-tested oracle gives join_oracle's outcome (the same subloop, or a
    disagreement between the same two subloops) for every proper H with K = L,
    and for every H < K over the proper K of the coset-fixpoint test."""
    loop = FIXPOINT_LOOPS[name]()
    lattice = all_subloops(loop, lattice_guard=loop.n)
    joins = {}
    pairs = [(None, h) for h in lattice[:-1]]
    pairs += [(k, h) for k in _proper_spread(lattice) for h in lattice if h.elements < k.elements]
    disagree = 0
    for k, h in pairs:
        got = _oracle_outcome(normalizer_oracle, loop, k, h)
        assert got == _oracle_outcome(join_oracle, loop, k, h, joins=joins), (h.members, k)
        disagree += got[0] == "disagree"
    assert disagree >= 39


@pytest.mark.parametrize("name", ["z81", "z81xZ2"])
def test_pretest_rejects_only_non_normal_joins(name):
    """Each x that _may_join rejects at S = H gives <H, x> with H not normal."""
    loop = FIXPOINT_LOOPS[name]()
    cyclic = {x: generate_subloop(loop, [x]) for x in range(loop.n)}
    rejected = 0
    for h in all_subloops(loop, lattice_guard=loop.n)[:-1]:
        k, kpos, meet, (pairs,) = _normality_matrix(loop, h.mask()[None], None)
        may, normal_in = _may_join(pairs, meet[0])[kpos], {}
        for x in range(loop.n):
            if x not in h and not may[x]:
                c = cyclic[x]  # <H, x> = <H> v <x> depends on x only through <x>
                if c not in normal_in:
                    normal_in[c] = is_normal(loop, h, join(h, c))
                assert not normal_in[c], (h.members, x)
                rejected += 1
    assert rejected > 0


@pytest.mark.parametrize("patch, message", [
    ("normalizer._normality_matrix = lambda *a: (*matrix(*a)[:3], np.zeros_like(matrix(*a)[3]))",
     "H must be normal in the stabilized D-set"),
    ("normalizer.is_normal = lambda *a: False", "subnormal step failed normality"),
])
def test_invariant_checks_survive_optimize(patch, message):
    """Under python -O, a patched kernel still trips the normalizer's invariant checks."""
    script = "\n".join([
        "import importlib",
        "import numpy as np",
        "from mloop.loop_core import gen_zassenhaus81",
        "normalizer = importlib.import_module('mloop.normalizer')",
        "matrix = normalizer._normality_matrix",
        patch,
        "normalizer.ascending_subnormal_system(gen_zassenhaus81(), [0, 27, 54])",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=MLOOP_SOURCE_ROOT))
    assert proc.returncode == 1
    assert f"AssertionError: {message}" in proc.stderr


def test_trace_golden_noncentral_order3(z81):
    h = generate_subloop(z81, [27])
    trace = normalizer(z81, None, h)
    assert trace.iterations == 2
    assert [len(p) for p in trace.p_stages] == [81, 81]
    assert [len(d) for d in trace.d_stages] == [9, 9]
    assert trace.result.members == (0, 1, 2, 27, 28, 29, 54, 55, 56)
    assert is_normal(z81, h, trace.result)
    payload = trace.serialize()
    assert set(payload) == {"p_stages", "d_stages", "result", "iterations"}


def test_stage_monotonicity(z81, z81_lattice):
    for h in z81_lattice[::7]:
        trace = normalizer(z81, None, h)
        assert h.elements <= set(trace.d_stages[0])
        p_sets = [set(p) for p in trace.p_stages]
        d_sets = [set(d) for d in trace.d_stages]
        for a, b in zip(p_sets, p_sets[1:]):
            assert b <= a
        for a, b in zip(d_sets, d_sets[1:]):
            assert a <= b
        for p, d in zip(p_sets, d_sets):
            assert d <= p
        assert trace.result.members == trace.d_stages[-1]


def test_trivial_and_central_inputs(z81):
    assert normalizer(z81, None, trivial_subloop(z81)).result.is_full
    assert normalizer(z81, None, generate_subloop(z81, [1])).result.is_full
    assert normalizer(z81, None, center(z81)).result.is_full


def test_relative_to_proper_k(z81):
    k = generate_subloop(z81, [27, 9])
    assert k.size == 9
    trace = normalizer(z81, k, generate_subloop(z81, [27]))
    assert trace.result == k
    assert trace.p_stages[-1] == trace.d_stages[-1]


def test_order9_subloop_converges_cleanly(z81):
    h = generate_subloop(z81, [3, 9])
    assert not is_normal(z81, h)
    trace = normalizer(z81, None, h)
    assert trace.result == generate_subloop(z81, [1, 3, 9])
    assert trace.result.size == 27
    assert trace.p_stages[-1] == trace.d_stages[-1]
    assert normalizer_oracle(z81, None, h) == trace.result
    assert maximality_gaps(z81, None, h, trace=trace) == []


def test_oracle_on_normal_subloop(z81):
    assert normalizer_oracle(z81, None, center(z81)).is_full
    assert normalizer_oracle(z81, None, trivial_subloop(z81)).is_full


def test_chains_and_subnormal_system(z81):
    chain = normalizer_chain(z81, generate_subloop(z81, [3, 9]))
    assert [t.size for t in chain] == [9, 27, 81]
    system = ascending_subnormal_system(z81, generate_subloop(z81, [27]))
    assert [t.size for t in system.terms] == [1, 3, 9, 81]
    assert normalizer_chain(z81, full_subloop(z81)) == [full_subloop(z81)]


def test_normalizer_condition(z81, e27):
    assert normalizer_condition(z81) == (True, None)
    assert normalizer_condition(e27) == (True, None)


def test_input_validation(z81, noncml6):
    with pytest.raises(NotNested):
        normalizer(z81, generate_subloop(z81, [27]), generate_subloop(z81, [3, 9]))
    with pytest.raises(NotNested):
        is_normal(z81, generate_subloop(z81, [3, 9]), generate_subloop(z81, [27]))
    with pytest.raises(NotCML):
        normalizer(noncml6, None, [0])


def test_fixpoint_uniqueness_claims_order3_noncentral(z81, z81_lattice, monkeypatch):
    """Three textbook claims about the fixpoint, pinned on H = <27>.

    The claims are P = D, a unique greedy saturation, and no element
    outside the result normalizing H.  None holds here, and none is
    promised by the module: the P-chain descends, the D-chain ascends and
    H is normal in the stabilized D-set, but the chains need not meet.

    In zassenhaus81 the associator (x, y, z) is the central element
    c^det(x', y', z'), where x' is the image of x in L/Z = GF(3)^3, and H
    is normal in K iff (H, K, K) lies in H.  For H = <27>, (H, H, x) = 1,
    so P = L (order 81).  The subloops in which H is normal have exactly
    4 maximal members, Z<27, w> for the 4 lines w of GF(3)^3/<27'>, each
    of order 27.  Their intersection Z<27> is the fixpoint result D
    (order 9).  By diassociativity every <H, x> is an abelian group, so
    the 72 elements outside D each normalize H on their own, and greedy
    saturation ends in whichever maximum its addition order reaches.
    The maxima come from the brute-force lattice route, not the fixpoint.
    """
    h = generate_subloop(z81, [27])
    trace = normalizer(z81, None, h)
    result = trace.result
    assert result.members == (0, 1, 2, 27, 28, 29, 54, 55, 56)
    assert len(trace.p_stages[-1]) == 81
    assert len(trace.d_stages[-1]) == 9
    assert trace.p_stages[-1] != trace.d_stages[-1]

    maxima = normalizing_maxima(z81, z81_lattice, h)
    assert [m.size for m in maxima] == [27] * 4
    assert frozenset.intersection(*(m.elements for m in maxima)) == result.elements
    maxima_members = {m.members for m in maxima}

    # the package rebinds the name mloop.normalizer to the function, so fetch the module
    module = importlib.import_module("mloop.normalizer")
    outcomes = []
    for s in module.ORACLE_SEEDS:
        monkeypatch.setattr(module, "ORACLE_SEEDS", (s,))
        outcomes.append(normalizer_oracle(z81, None, h))
    monkeypatch.undo()
    assert all(o.members in maxima_members and o != result for o in outcomes)
    with pytest.raises(OracleDisagreement) as exc:
        normalizer_oracle(z81, None, h)
    assert {exc.value.first, exc.value.second} <= maxima_members

    gaps = maximality_gaps(z81, None, h, trace=trace)
    assert gaps == [x for x in range(z81.n) if x not in result]
    assert len(gaps) == 72
