import json
import sys

import pytest

from conftest import run_cli

from mloop import cli
from mloop import perm_group as pg
from mloop import structure as st
from mloop.errors import OrderOverflow
from mloop.loop_core import direct_product, gen_abelian, gen_zassenhaus81
from mloop.verify import CHECK_REGISTRY, SUITE_NAMES, run_suite

# The builders of the shared artifacts: L', the maximal subloops, Z(L),
# M' (the normal closure inside derived_subgroup) and Phi(M).
BUILDERS = (
    (st, "associator_subloop"),
    (st, "_maximal_over"),
    (st, "center"),
    (pg, "normal_closure"),
    (pg, "frattini_subgroup"),
)


def count_builds(mp):
    """Wrap each builder in every ``mloop.*`` namespace that holds it.

    Returns ``{name: count}``, filled as the builders run.  Loop-side
    builders count only calls on zassenhaus81 itself, not on its
    quotients; ``normal_closure`` counts only calls from inside
    ``perm_group``, where it builds a derived subgroup.
    """
    counts = dict.fromkeys([name for _, name in BUILDERS], 0)

    def wrap(real, name):
        def counted(*args, **kwargs):
            on_z81 = getattr(args[0], "name", "zassenhaus81") == "zassenhaus81"
            caller = sys._getframe(1).f_globals["__name__"]
            if on_z81 and (name != "normal_closure" or caller == pg.__name__):
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


@pytest.fixture(scope="module")
def z81_all():
    """The full-suite report of a fresh z81, seed 0, and the build counts."""
    with pytest.MonkeyPatch.context() as mp:
        counts = count_builds(mp)
        report = run_suite(gen_zassenhaus81(), "all", seed=0)
    return report, counts


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


def test_lattice_suites_respect_guard(z81):
    big = direct_product(z81, gen_abelian((3,)))
    with pytest.raises(OrderOverflow):
        run_suite(big, "theorem2")
    # a lifted guard admits the larger lattice; non-lattice suites never guard
    assert run_suite(big, "lemma2").all_passed


def test_all_runs_each_check_once(z81_all):
    report, _ = z81_all
    assert [c.name for c in report.checks] == [name for name, _, _ in CHECK_REGISTRY]
    statuses = {c.name: c.status for c in report.checks}
    assert statuses.pop("prop3_normalizer_containments") == "fail"
    assert set(statuses.values()) == {"pass"}


def test_all_builds_the_group_frattini_subgroup_once(z81_all):
    # lemma4 and lemma6 read one cached Phi(M) (frattini_agreement skips the
    # group side at |M| = 2187, above the exhaustive oracle's guard)
    _, counts = z81_all
    assert counts["frattini_subgroup"] == 1


def test_all_builds_each_artifact_once(z81_all):
    # the maxima come from the context's L', Phi(L) from its maxima, and the
    # prop1 and lemma7 bridges read the context's Z(L) and L'; M' is cached
    # on M for m_derived, frattini_subgroup and the lemma7 bridge
    _, counts = z81_all
    assert counts == dict.fromkeys(counts, 1)


def test_invariants_builds_each_artifact_once(monkeypatch, capsys):
    counts = count_builds(monkeypatch)
    assert cli.main(["invariants", "--gen", "zassenhaus81"]) == 0
    assert "derived_order:       3" in capsys.readouterr().out
    assert counts == dict.fromkeys(counts, 1)


def test_invariants_agree_with_verify_witnesses(tmp_path, z81_all):
    """`mloop invariants` and the verify checks read one artifact context,
    so every invariant a check reports is the same number."""
    report, _ = z81_all
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
