import itertools
import json
import sys

import numpy as np
import pytest

from conftest import (
    EXPANSION_CASES,
    full_tensor_symmetries,
    quadruple_product_expansion,
    relabel,
    run_cli,
)

from mloop import cli, loop_core
from mloop import mult_group as mg
from mloop import perm_group as pg
from mloop import perm_rows
from mloop import structure as st
from mloop import verify
from mloop.errors import ChainStalled, OrderOverflow
from mloop.loop_core import direct_product, gen_abelian, gen_zassenhaus81
from mloop.normalizer import NormalizerTrace, normalizer
from mloop.verify import (
    CHECK_REGISTRY,
    SUITE_NAMES,
    LoopContext,
    _check_associator_symmetries,
    _check_divisible,
    _check_frattini,
    _check_lemma4,
    _check_product_expansion,
    _check_prop4,
    run_suite,
)

# The builders of the shared artifacts: L', the maximal subloops, Phi(L), Z(L),
# M' (the normal closure mask inside perm_group._derived) and Phi(M)'s mask.
BUILDERS = (
    (st, "associator_subloop"),
    (st, "_maximal_over"),
    (st, "_frattini_over"),
    (st, "center"),
    (pg, "_normal_closure"),
    (pg, "_frattini"),
)


def count_builds(mp):
    """Wrap each builder in every ``mloop.*`` namespace that holds it.

    Returns ``{name: count}``, filled as the builders run.  Loop-side
    builders count only calls on zassenhaus81 itself, not on its
    quotients; ``_normal_closure`` counts only calls from
    ``perm_group._derived``, where it builds a derived subgroup.
    """
    counts = dict.fromkeys([name for _, name in BUILDERS], 0)

    def wrap(real, name):
        def counted(*args, **kwargs):
            on_z81 = getattr(args[0], "name", "zassenhaus81") == "zassenhaus81"
            caller = sys._getframe(1).f_code.co_name
            if on_z81 and (name != "_normal_closure" or caller == "_derived"):
                counts[name] += 1
            return real(*args, **kwargs)

        return counted

    for owner, name in BUILDERS:
        real = getattr(owner, name)
        counted = wrap(real, name)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "mloop":
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        mp.setattr(mod, attr, counted)
    return counts


def count_chains(mp):
    """Count ``PermGroup._build_chain`` calls: one per Schreier chain built."""
    counts = [0]
    real = pg.PermGroup._build_chain

    def counted(self, *args):
        counts[0] += 1
        return real(self, *args)

    mp.setattr(pg.PermGroup, "_build_chain", counted)
    return counts


@pytest.fixture(scope="module")
def z81_all():
    """The full-suite report of a fresh z81, seed 0, the build counts and the
    number of Schreier chains built."""
    with pytest.MonkeyPatch.context() as mp:
        counts = count_builds(mp)
        chains = count_chains(mp)
        report = run_suite(gen_zassenhaus81(), "all", seed=0)
    return report, counts, chains[0]


def test_registry_shape():
    assert len(CHECK_REGISTRY) == 14
    assert set(SUITE_NAMES) == {suite for _, suite, _ in CHECK_REGISTRY} | {"all"}
    names = [name for name, _, _ in CHECK_REGISTRY]
    assert len(names) == len(set(names))


def test_single_suite(z81):
    report = run_suite(z81, "lemma2")
    assert [c.name for c in report.checks] == ["lemma2_cubes_central"]
    assert report.all_passed
    assert report.as_dict()["loop"] == {"name": "zassenhaus81", "order": 81}


def test_identities_on_abelian():
    report = run_suite(gen_abelian((3, 3)), "identities")
    assert [c.status for c in report.checks] == ["pass", "pass", "pass"]


def test_identities_at_order_243():
    """z81 x Z3: the expansion check visits its 243^4 quadruples through the
    few distinct columns of its 27^3 coset tensor A_q."""
    report = run_suite(direct_product(gen_zassenhaus81(), gen_abelian((3,))), "identities")
    assert [c.status for c in report.checks] == ["pass", "pass", "pass"]


@pytest.mark.parametrize("case", list(EXPANSION_CASES))
def test_product_expansion_matches_quadruple_reference(monkeypatch, case):
    """Column classes give the per-quadruple verdicts: the same count and
    least (x, y, u, v), with the columns keyed in one block or many."""
    loop = EXPANSION_CASES[case]()
    expected = quadruple_product_expansion(loop)
    for block in (perm_rows.GATHER_BLOCK, 7 * loop.n):
        monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
        assert _check_product_expansion(LoopContext(loop)) == expected


@pytest.mark.parametrize("case", list(EXPANSION_CASES))
def test_symmetry_witnesses_match_full_tensor_reference(case):
    """The laws checked on coset triples of A_q give the verdicts and least
    (x, y, z) of the same laws checked over all of L^3."""
    loop = EXPANSION_CASES[case]()
    assert _check_associator_symmetries(LoopContext(loop)) == full_tensor_symmetries(loop)


def test_theorem2_witness(z81):
    report = run_suite(z81, "theorem2")
    check = report.checks[0]
    assert check.passed
    assert check.witness["proper_subloops"] == 184
    sizes = check.witness["normalizer_sizes"]
    assert len(sizes) == 184
    assert all(set(entry) == {"h", "normalizer_order"} for entry in sizes)


def test_prop3_failure_is_deterministic(z81):
    report = run_suite(z81, "prop3", seed=0)
    check = report.checks[0]
    assert check.status == "fail"
    assert check.witness["pairs_checked"] == 175
    assert check.witness["failures"] == 83
    assert check.witness["first_failure"]["h"] == [0, 3, 6]
    again = run_suite(z81, "prop3", seed=0).checks[0]
    assert again.witness == check.witness


@pytest.mark.parametrize("block", [1, 2000, perm_rows.GATHER_BLOCK])
@pytest.mark.parametrize("name", ["z81", "z81xZ2", "abelian:2,3"])
def test_containments_match_frozenset_pairs(monkeypatch, name, block):
    """prop3's pairs H <= K, H proper, come in the order of the pair list over
    frozensets that the check sampled from, in any row blocks of the products."""
    loop = {"z81": gen_zassenhaus81,
            "z81xZ2": lambda: direct_product(gen_zassenhaus81(), gen_abelian((2,))),
            "abelian:2,3": lambda: gen_abelian((2, 3))}[name]()
    lattice = st.all_subloops(loop, lattice_guard=loop.n)
    sets = [frozenset(s.members) for s in lattice]
    want = [(i, j) for i, h in enumerate(sets) if len(h) < loop.n
            for j, k in enumerate(sets) if h <= k]
    monkeypatch.setattr(perm_rows, "GATHER_BLOCK", block)
    assert verify._containments(lattice).tolist() == [list(pair) for pair in want]


NORMAL_PAIR_LOOPS = {
    "z81": (gen_zassenhaus81, 128),
    "z81xZ3": (lambda: direct_product(gen_zassenhaus81(), gen_abelian((3,))), 243),
}


@pytest.mark.parametrize("name", NORMAL_PAIR_LOOPS)
def test_normal_in_matches_is_normal(name):
    """prop3's verdicts off one normality matrix over the distinct H are the per-pair
    `is_normal` verdicts, on every 7th pair H <= K of the lattice, normal or not."""
    make, guard = NORMAL_PAIR_LOOPS[name]
    loop = make()
    lattice = st.all_subloops(loop, lattice_guard=guard)
    pairs = [(lattice[h], lattice[k]) for h, k in verify._containments(lattice)[::7].tolist()]
    got = verify._normal_in(loop, pairs)
    assert got == [st.is_normal(loop, h, k) for h, k in pairs]
    assert 0 < sum(got) < len(got)
    assert verify._normal_in(loop, []) == []


@pytest.mark.parametrize("name", NORMAL_PAIR_LOOPS)
def test_cyclic_subgroups_match_closures(name):
    """The seeds of prop4's chains, walked as powers in row blocks, are the closures
    <e_i> of `perm_group._close`, in element order, across a block boundary."""
    m = mg.multiplication_group(NORMAL_PAIR_LOOPS[name][0]()).M
    step = perm_rows.GATHER_BLOCK // m.order()
    got = list(itertools.islice(verify._cyclic_subgroups(m), step + 5))
    want = [pg._close(m, pg._trivial(m), pg._rows_at(m, [i])) for i in range(1, step + 6)]
    assert [g.tolist() for g in got] == [w.tolist() for w in want]


def test_fixpoint_results_are_lattice_members(z81):
    """The context keeps each fixpoint result as the lattice's own member, and
    raises on a result that the lattice lacks."""
    ctx = LoopContext(z81)
    for h in ctx.lattice[::23]:
        result = ctx.fixpoint_result(h)
        assert result is ctx.by_members[result.key]
        assert result == normalizer(z81, None, h).result
    ctx = LoopContext(z81)
    ctx.lattice = [h for h in ctx.lattice if not h.is_full]
    with pytest.raises(AssertionError, match="is not in the lattice"):
        ctx.fixpoint_result(ctx.lattice[0])


def test_prop4_raises_when_a_fixpoint_stalls(monkeypatch, z81):
    """A fixpoint that returns a proper H unchanged stops prop4 with ChainStalled.
    The cap on lookups turns a chain that never grows into a failure, not a hang."""
    monkeypatch.setattr(verify, "_run_fixpoint", lambda loop, k, h: NormalizerTrace((), (), h, 0))
    real, calls = LoopContext.fixpoint_result, [0]

    def capped(self, subloop):
        calls[0] += 1
        if calls[0] > 50:
            raise RuntimeError("50 fixpoint lookups without growing H")
        return real(self, subloop)

    monkeypatch.setattr(LoopContext, "fixpoint_result", capped)
    with pytest.raises(ChainStalled, match="stalled at subloop"):
        _check_prop4(LoopContext(z81))


def test_lattice_suites_respect_guard(z81):
    big = direct_product(z81, gen_abelian((3,)))
    with pytest.raises(OrderOverflow):
        run_suite(big, "theorem2")
    # a lifted guard admits the larger lattice; non-lattice suites never guard
    assert run_suite(big, "lemma2").all_passed


def test_all_runs_each_check_once(z81_all):
    report, _, _ = z81_all
    assert [c.name for c in report.checks] == [name for name, _, _ in CHECK_REGISTRY]
    statuses = {c.name: c.status for c in report.checks}
    assert statuses.pop("prop3_normalizer_containments") == "fail"
    assert set(statuses.values()) == {"pass"}


def test_all_builds_the_group_frattini_subgroup_once(z81_all):
    # lemma4 and lemma6 read one cached Phi(M) mask (frattini_agreement skips
    # the group side at |M| = 2187, above the exhaustive oracle's guard)
    _, counts, _ = z81_all
    assert counts["_frattini"] == 1


def test_all_builds_each_artifact_once(z81_all):
    # the maxima and Phi(L) come from the context's L', and the
    # prop1 and lemma7 bridges read the context's Z(L) and L'; M' is cached
    # on M for m_derived, _frattini and the lemma7 bridge
    _, counts, _ = z81_all
    assert counts == dict.fromkeys(counts, 1)


def test_invariants_builds_each_artifact_once(monkeypatch, capsys):
    counts = count_builds(monkeypatch)
    assert cli.main(["invariants", "--gen", "zassenhaus81"]) == 0
    assert "derived_order:       3" in capsys.readouterr().out
    # Phi(L) is the meet of the L'L^p, so no maximal subloop is built
    assert counts == {**dict.fromkeys(counts, 1), "_maximal_over": 0}


def test_all_checks_each_centre_once(monkeypatch):
    """M(L)'s build and the inner-map certificate read one cached verdict of
    ``_central_violation`` per loop: z81's centre is checked once, and so is
    that of each quotient lemma1 builds."""
    tables, real = [], loop_core._central_violation

    def counted(table, central):
        tables.append(table)
        return real(table, central)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "mloop" and vars(mod).get("_central_violation") is real:
            monkeypatch.setattr(mod, "_central_violation", counted)
    loop = gen_zassenhaus81()
    run_suite(loop, "all")
    assert sum(table is loop.table for table in tables) == 1
    assert len({id(table) for table in tables}) == len(tables)


def test_series_leaves_the_certificate_unbuilt():
    """The series reads A_q and asks no normality question, so the n^3
    inner-map certificate cannot come back into `invariants` through it."""
    ctx = LoopContext(gen_zassenhaus81())
    assert [t.size for t in ctx.series.terms] == [1, 3, 81]
    assert ctx.loop._inner_check is None


def test_all_builds_six_chains(z81_all):
    # M and I of z81 and of the lemma1 quotient L/L'; Z(M), which prop1 reads
    # through center_of_group; lemma7's join <I, L(L')>, chained from its own
    # generators.  Z(M), M', Phi(M), H* and the normal closure of I are element
    # masks over M with no chain.
    _, _, chains = z81_all
    assert chains == 6


@pytest.mark.parametrize("spec", ["zassenhaus81", "product:zassenhaus81xabelian:3"])
def test_invariants_builds_two_chains(monkeypatch, spec):
    # M and I; Z(M), M' and Phi(M) are read as mask sums
    chains = count_chains(monkeypatch)
    assert cli.main(["invariants", "--gen", spec]) == 0
    assert chains == [2]


@pytest.mark.parametrize("make", [gen_zassenhaus81,
                                  lambda: direct_product(gen_zassenhaus81(), gen_abelian((3,)))],
                         ids=["z81", "z81xZ3"])
def test_context_masks_match_the_public_groups(make):
    """Each mask the checks read holds the element set of the public group that
    wraps it, which test_perm_group compares with the sift routes of conftest."""
    ctx = LoopContext(make())
    m = ctx.bundle.M
    pairs = [(ctx.m_center, pg.center_of_group(m)), (ctx.m_derived, pg.derived_subgroup(m)),
             (ctx.m_frattini, pg.frattini_subgroup(m)),
             (mg._h_star(ctx.bundle, ctx.derived), mg.h_star(ctx.bundle, ctx.derived))]
    for mask, group in pairs:
        assert perm_rows.row_set(m.element_array()[mask]) == group.element_keys()


def test_context_masks_are_read_only(z81):
    """perm_group._close fills the mask it is given, so closing over a cached
    mask raises and leaves the cache as it was."""
    ctx = LoopContext(z81)
    m = ctx.bundle.M
    before = ctx.m_derived.copy()
    assert ctx.m_derived is pg._derived(m)[0]
    for mask in (ctx.m_center, ctx.m_derived, ctx.m_frattini):
        with pytest.raises(ValueError, match="read-only"):
            pg._close(m, mask, m.gen_array)
    assert np.array_equal(pg._derived(m)[0], before)


def write_table(path, loop):
    path.write_text("\n".join([str(loop.n)] + [" ".join(map(str, row)) for row in loop.table.tolist()]))


@pytest.mark.parametrize("factors", [(), (2,), (3,)], ids=["z81", "z81xZ2", "z81xZ3"])
def test_invariants_survive_relabelling(tmp_path, factors):
    """A relabelling that fixes 0 conjugates M(L) in Sym(n): its chain, base, point
    stabilizer and the candidates for Z(M) change, and no invariant may."""
    loop = direct_product(gen_zassenhaus81(), gen_abelian(factors)) if factors else gen_zassenhaus81()
    values = []
    for i, case in enumerate([loop] + [relabel(loop, seed)[0] for seed in (1, 2, 3)]):
        path, out = tmp_path / f"{i}.txt", tmp_path / f"{i}.json"
        write_table(path, case)
        assert cli.main(["invariants", "--input", str(path), "--json", str(out)]) == 0
        values.append(json.loads(out.read_text())["invariants"])
    assert values[1:] == values[:1] * 3


def test_invariants_read_the_same_from_gen_and_input_at_order_729(tmp_path):
    """``--gen`` builds z81 x Z3 x Z3 as a product, whose centre, inverses and left
    division are read off the factors; ``--input`` of the same table scans its rows."""
    path, values = tmp_path / "729.txt", []
    write_table(path, direct_product(gen_zassenhaus81(), gen_abelian((3, 3))))
    for i, source in enumerate([["--gen", "product:zassenhaus81xabelian:3,3"], ["--input", str(path)]]):
        out = tmp_path / f"{i}.json"
        assert cli.main(["invariants", *source, "--json", str(out)]) == 0
        values.append(json.loads(out.read_text())["invariants"])
    assert values[0] == values[1] and values[0]["center_order"] == 27


@pytest.mark.parametrize("factors", [(), (2,)], ids=["z81", "z81xZ2"])
def test_theorem2_fixpoints_survive_relabelling(tmp_path, factors):
    """theorem2's normalizer fixpoint of every proper subloop H commutes with a
    relabelling pi that fixes 0: each reported H, mapped back through pi^-1, keeps
    its normalizer order, and the count of proper subloops is unchanged."""
    loop = direct_product(gen_zassenhaus81(), gen_abelian(factors)) if factors else gen_zassenhaus81()
    reports = []
    for i, (case, pi) in enumerate([(loop, np.arange(loop.n))] + [relabel(loop, seed) for seed in (1, 2, 3)]):
        path, out = tmp_path / f"{i}.txt", tmp_path / f"{i}.json"
        write_table(path, case)
        args = ["verify", "--input", str(path), "--suite", "theorem2", "--max-order", "162", "--json", str(out)]
        assert cli.main(args) == 0
        (check,) = json.loads(out.read_text())["checks"]
        back = np.argsort(pi)
        sizes = {frozenset(back[list(map(int, s["h"].split(",")))].tolist()): s["normalizer_order"]
                 for s in check["witness"]["normalizer_sizes"]}
        reports.append((check["witness"]["proper_subloops"], sizes))
    assert reports[0][0] == len(reports[0][1]) == {(): 184, (2,): 369}[factors]
    assert reports[1:] == reports[:1] * 3


def test_invariants_agree_with_verify_witnesses(tmp_path, z81_all):
    """`mloop invariants` and the verify checks read one artifact context,
    so every invariant a check reports is the same number."""
    report, _, _ = z81_all
    suite_of = {name: suite for name, suite, _ in CHECK_REGISTRY}
    witness = {suite_of[c.name]: c.witness for c in report.checks}
    out = tmp_path / "invariants.json"
    res = run_cli("invariants", "--gen", "zassenhaus81", "--json", str(out))
    assert res.returncode == 0, res.stderr
    values = json.loads(out.read_text())["invariants"]
    pairs = {
        "center_order": witness["prop1"]["loop_center_order"],
        "derived_order": witness["lemma4"]["derived_order"],
        "frattini_order": witness["lemma4"]["frattini_order"],
        "nilpotency_class": witness["prop4"]["nilpotency_class"],
        "mult_group_order": witness["lemma1"]["m_order"],
        "mult_center_order": witness["prop1"]["group_center_order"],
        "mult_derived_order": witness["lemma4"]["m_derived_order"],
        "mult_frattini_order": witness["lemma4"]["m_frattini_order"],
    }
    assert {key: values[key] for key in pairs} == pairs


# Failing verdicts on broken context artifacts: the witness keeps its key order,
# with the part flags in check order after the invariant orders.
LEMMA4_FAIL = {"derived_order": 3, "frattini_order": 1, "m_derived_order": 81,
               "m_frattini_order": 81, "loop_ok": False, "group_ok": True}
FRATTINI_FAIL = {"frattini_order": 1, "maximal_count": 13, "group_frattini_order": "skipped",
                 "maximals_ok": True, "frattini_ok": False, "non_generator_ok": False,
                 "group_ok": True, "element": 1}


@pytest.mark.parametrize("check, want", [(_check_lemma4, LEMMA4_FAIL),
                                         (_check_frattini, FRATTINI_FAIL)])
def test_trivial_frattini_fails_with_pinned_witness(z81, check, want):
    ctx = LoopContext(z81)
    ctx.__dict__["frattini"] = st.trivial_subloop(z81)
    assert json.dumps(check(ctx)) == json.dumps([False, want])


def test_central_group_frattini_fails_lemma4(z81):
    # Z(M), of order 3, in place of Phi(M): the mask inclusion M' <= Phi(M) fails
    ctx = LoopContext(z81)
    ctx.__dict__["m_frattini"] = ctx.m_center
    want = {"derived_order": 3, "frattini_order": 3, "m_derived_order": 81,
            "m_frattini_order": 3, "loop_ok": True, "group_ok": False}
    assert json.dumps(_check_lemma4(ctx)) == json.dumps([False, want])


def test_wrong_group_frattini_fails_with_pinned_witness():
    # M(Z3 x Z3) is the group itself, of order 9, so the group oracle runs
    ctx = LoopContext(gen_abelian((3, 3)))
    ctx.__dict__["m_frattini"] = np.ones(ctx.bundle.M.order(), dtype=bool)
    want = {"frattini_order": 1, "maximal_count": 4, "group_frattini_order": 9,
            "maximals_ok": True, "frattini_ok": True, "non_generator_ok": True,
            "group_ok": False}
    assert json.dumps(_check_frattini(ctx)) == json.dumps([False, want])


def test_divisible_loop_fails_with_pinned_witness(monkeypatch, z81):
    monkeypatch.setattr(st, "is_divisible", lambda loop: True)
    want = {"loop_divisible": True, "group_divisible": False, "divisible_part_order": 1,
            "complement_order": 2187, "loop_ok": False, "group_ok": True}
    assert json.dumps(_check_divisible(LoopContext(z81))) == json.dumps([False, want])


def test_group_invariants_build_no_element_table(z81):
    """Z(M), M' and Phi(M) are read off column gathers and chain walks: reading
    them from a fresh context leaves M without its element table."""
    ctx = LoopContext(z81)
    assert [int(m.sum()) for m in (ctx.m_center, ctx.m_derived, ctx.m_frattini)] == [3, 81, 81]
    assert ctx.bundle.M._elements is None
