"""Acceptance gate: eleven criteria, one printed PASS/FAIL line each.

Every test prints its verdict through capsys.disabled() so the line
reaches the terminal even under output capture, then asserts.  A FAIL
line plus its assertion message is the analysis for that criterion.
Criterion 6 pins the paper's normalizer divergence exactly (see the
docstring there).
"""

import json
import re
import time

from conftest import maximality_gaps, normalizing_maxima, run_cli

from mloop.errors import OracleDisagreement
from mloop.loop_core import direct_product, gen_abelian, gen_zassenhaus81
from mloop.mult_group import (
    multiplication_group,
    verify_lemma1,
    verify_lemma7,
    verify_prop1,
)
from mloop.normalizer import (
    normalizer,
    normalizer_condition,
    normalizer_oracle,
)
from mloop.perm_group import (
    derived_subgroup,
    frattini_subgroup,
    group_from_generators,
    is_divisible_group,
)
from mloop.structure import (
    all_subloops,
    associator_subloop,
    center,
    cube_subloop,
    frattini_subloop,
    is_divisible,
    maximal_subloops,
    upper_central_series,
)
from mloop.verify import run_suite


def verdict(capsys, tag, ok, detail=""):
    note = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\n{tag}: {'PASS' if ok else 'FAIL'}{note}")


def test_ac01_cml_recognition(capsys):
    loop = gen_zassenhaus81()
    t0 = time.perf_counter()
    diag = loop.diagnostics()
    elapsed = time.perf_counter() - t0
    ok = diag.is_cml and not diag.is_associative and elapsed < 5.0
    verdict(capsys, "AC01 cml-recognition", ok, f"exhaustive scan {elapsed * 1000:.0f} ms")
    assert diag.is_cml and not diag.is_associative
    assert elapsed < 5.0


def test_ac02_identity_suite(capsys, z81, e27):
    reports = [run_suite(z81, "identities"), run_suite(e27, "identities")]
    statuses = [c.status for r in reports for c in r.checks]
    ok = statuses == ["pass"] * 6
    verdict(capsys, "AC02 identity-laws", ok)
    assert ok, statuses


def test_ac03_cubes_central(capsys, z81, e27):
    subjects = [z81, e27, gen_abelian((9,)), gen_abelian((3, 3)),
                direct_product(z81, gen_abelian((3,)))]
    violations = []
    for loop in subjects:
        in_center = center(loop).mask()
        for x in range(loop.n):
            if not in_center[loop.power(x, 3)]:
                violations.append((loop.name, x))
    ok = not violations
    verdict(capsys, "AC03 cubes-central", ok, f"{len(subjects)} loops")
    assert ok, violations[:5]


def test_ac04_golden_invariants(capsys, z81, z81_lattice):
    maxima = maximal_subloops(z81)
    got = {
        "center": center(z81).size,
        "derived": associator_subloop(z81).size,
        "cubes": cube_subloop(z81).size,
        "class": upper_central_series(z81).nilpotency_class,
        "frattini": frattini_subloop(z81).size,
        "maximals": len(maxima),
    }
    want = {"center": 3, "derived": 3, "cubes": 1, "class": 2, "frattini": 3,
            "maximals": 13}
    # second route: maximal members from the exhaustive lattice, intersected
    proper = [s for s in z81_lattice if not s.is_full]
    lattice_maxima = [
        s for s in proper if not any(s.elements < t.elements for t in proper)
    ]
    intersected = frozenset.intersection(*(s.elements for s in lattice_maxima))
    ok = got == want and intersected == frattini_subloop(z81).elements
    verdict(capsys, "AC04 golden-invariants", ok)
    assert got == want
    assert intersected == frattini_subloop(z81).elements == {0, 1, 2}


def test_ac05_multiplication_group_bridges(capsys):
    loop = gen_zassenhaus81()
    t0 = time.perf_counter()
    bundle = multiplication_group(loop)
    order_ok = bundle.M.order() == loop.n * bundle.I.order() == 2187
    results = {
        "prop1": verify_prop1(bundle, center(loop)),
        "lemma7": verify_lemma7(bundle, associator_subloop(loop)),
        "lemma1": verify_lemma1(bundle, associator_subloop(loop)),
    }
    elapsed = time.perf_counter() - t0
    ok = order_ok and all(passed for passed, _ in results.values()) and elapsed < 60.0
    verdict(capsys, "AC05 mult-group-bridges", ok, f"{elapsed:.1f} s")
    assert order_ok
    for bridge, (passed, witness) in results.items():
        assert passed, (bridge, witness)
    assert elapsed < 60.0


def test_ac06_fixpoint_vs_oracle_everywhere(capsys, z81, e27, z81_lattice):
    """Fixpoint vs. the greedy oracle and the brute-force lattice route,
    with stage monotonicity, over both full subloop lattices.

    The brute-force route lists the maximal subloops in which H is
    normal.  For every H the fixpoint result is their intersection.
    Where the maximum is unique, the oracle returns it and no element
    outside the result normalizes H.

    In zassenhaus81 the associator (x, y, z) is the central element
    c^det(x', y', z'), with x' the image of x in L/Z = GF(3)^3, and H is
    normal in K iff (H, K, K) lies in H.  For a non-central H of order 3,
    (H, H, x) = 1 gives final P = L (order 81); the maxima are the 4
    subloops Z<H, w> of order 27, one per line w of GF(3)^3/H'; their
    intersection ZH is the final D (order 9); and by diassociativity all
    72 elements outside it normalize H on their own.  So exactly those 39
    subloops have several maxima, and the oracle's seeded runs saturate
    at different maxima.  No H of abelian:3,3,3 has more than one.
    """
    mono_bad = []
    meet_bad = []
    unique_bad = []
    shape_bad = []
    divergent = []
    for loop, lattice in ((z81, z81_lattice), (e27, all_subloops(e27))):
        for h in lattice:
            trace = normalizer(loop, None, h)
            p_sets = [set(p) for p in trace.p_stages]
            d_sets = [set(d) for d in trace.d_stages]
            mono = all(b <= a for a, b in zip(p_sets, p_sets[1:]))
            mono &= all(a <= b for a, b in zip(d_sets, d_sets[1:]))
            mono &= all(d <= p for p, d in zip(p_sets, d_sets))
            if not mono:
                mono_bad.append((loop.name, h.members))
            maxima = normalizing_maxima(loop, lattice, h)
            meet = frozenset.intersection(*(m.elements for m in maxima))
            if meet != trace.result.elements:
                meet_bad.append((loop.name, h.members))
            gaps = maximality_gaps(loop, None, h, trace=trace)
            if len(maxima) == 1:
                if normalizer_oracle(loop, None, h) != maxima[0] or gaps:
                    unique_bad.append((loop.name, h.members))
                continue
            divergent.append((loop.name, h.members))
            maxima_members = {m.members for m in maxima}
            try:
                normalizer_oracle(loop, None, h)
                outcomes = None
            except OracleDisagreement as exc:
                outcomes = {exc.first, exc.second}
            outside = [x for x in range(loop.n) if x not in trace.result]
            shape = (
                len(trace.p_stages[-1]),
                len(trace.d_stages[-1]),
                [m.size for m in maxima],
                outcomes is not None and outcomes <= maxima_members,
                gaps == outside,
                len(gaps),
            )
            if shape != (81, 9, [27] * 4, True, True, 72):
                shape_bad.append((loop.name, h.members, shape))
    z_center = center(z81)
    expected = [
        (z81.name, h.members)
        for h in z81_lattice
        if h.size == 3 and not h <= z_center
    ]
    ok = (
        not mono_bad and not meet_bad and not unique_bad and not shape_bad
        and divergent == expected and len(divergent) == 39
    )
    verdict(
        capsys, "AC06 fixpoint-vs-oracle", ok,
        f"monotone everywhere; {len(divergent)} divergent subloops",
    )
    assert not mono_bad, mono_bad[:3]
    assert not meet_bad, meet_bad[:3]
    assert not unique_bad, unique_bad[:3]
    assert divergent == expected
    assert len(divergent) == 39
    assert not shape_bad, shape_bad[:3]


def test_ac07_normalizer_condition(capsys, z81, e27):
    big = direct_product(z81, gen_abelian((3,)))
    results = [
        normalizer_condition(z81),
        normalizer_condition(e27),
        normalizer_condition(big, lattice_guard=256),
    ]
    ok = all(flag and witness is None for flag, witness in results)
    verdict(capsys, "AC07 no-self-normalizing-proper", ok, "orders 81, 27, 243")
    assert ok, results


def test_ac08_chain_bounds(capsys, z81):
    report = run_suite(z81, "prop4")
    check = report.checks[0]
    w = check.witness
    ok = (
        check.passed
        and w["loop_chain_max_steps"] <= 2
        and w["group_chain_max_steps"] <= 3
        and w["group_chains_sampled"] >= 20
    )
    verdict(
        capsys, "AC08 chain-bounds", ok,
        f"loop max {w['loop_chain_max_steps']}, group max {w['group_chain_max_steps']}",
    )
    assert ok, w


def test_ac09_frattini_containments(capsys, z81, e27):
    subjects = [z81, e27, gen_abelian((9,)), gen_abelian((2, 3))]
    problems = []
    for loop in subjects:
        phi = frattini_subloop(loop)
        if not associator_subloop(loop) <= phi:
            problems.append((loop.name, "derived escapes frattini"))
        bundle = multiplication_group(loop)
        phi_m = frattini_subgroup(bundle.M)
        if not derived_subgroup(bundle.M).element_keys() <= phi_m.element_keys():
            problems.append((loop.name, "group derived escapes frattini"))
        loop_side = phi.is_full
        group_side = phi_m.order() == bundle.M.order()
        if loop_side != group_side or loop_side:
            problems.append((loop.name, "biconditional mismatch"))
    ok = not problems
    verdict(capsys, "AC09 frattini-containments", ok, f"{len(subjects)} loops")
    assert ok, problems


def test_ac10_divisibility_degeneracy(capsys, z81, e27):
    trivial_loop = gen_abelian((1,))
    loops = [(trivial_loop, True), (z81, False), (e27, False),
             (gen_abelian((9,)), False), (gen_abelian((2, 3)), False)]
    groups = [
        (group_from_generators([], degree=1), True),
        (multiplication_group(z81).M, False),
        (multiplication_group(e27).M, False),
    ]
    loop_ok = all(is_divisible(l) is want for l, want in loops)
    group_ok = all(is_divisible_group(g) is want for g, want in groups)
    ok = loop_ok and group_ok
    verdict(capsys, "AC10 divisibility-degeneracy", ok)
    assert ok


def test_ac11_deterministic_reports(capsys, tmp_path):
    blobs = []
    for k in range(2):
        out = tmp_path / f"out{k}.json"
        proc = run_cli(
            "verify", "--gen", "zassenhaus81", "--suite", "all",
            "--seed", "0", "--json", str(out),
        )
        assert proc.returncode == 1  # prop3 divergence, criterion 6
        raw = out.read_bytes()
        blobs.append(re.sub(rb'"millis": \d+', b'"millis": 0', raw))
    ok = blobs[0] == blobs[1]
    verdict(capsys, "AC11 byte-determinism", ok, f"{len(blobs[0])} bytes")
    assert ok
    report = json.loads(blobs[0])
    assert report["artifact_version"] == "0.1.0"
