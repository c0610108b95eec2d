import json
import re
import shlex
from pathlib import Path

import pytest

from conftest import NONCML6, run_cli
from mloop.verify import SUITE_NAMES

GOOD_Z3 = "# name: cyclic3\n3\n0 1 2\n1 2 0\n2 0 1\n"
BAD_LATIN = "3\n0 1 2\n1 1 0\n2 0 1\n"
BAD_DIMENSION = "3\n0 1 2\n1 2 0\n"


def test_check_zassenhaus():
    res = run_cli("check", "--gen", "zassenhaus81")
    assert res.returncode == 0
    assert "loop: zassenhaus81 (order 81)" in res.stdout
    assert "is_cml:          true" in res.stdout
    assert "is_associative:  false" in res.stdout
    assert "first_violation: (3, 9, 27)" in res.stdout


def test_check_at_order_972():
    """|Z(L)| = 36: the laws are read on the 27 coset representatives."""
    res = run_cli("check", "--gen", "product:zassenhaus81xabelian:12")
    assert res.returncode == 0
    assert "loop: product:zassenhaus81xabelian:12 (order 972)" in res.stdout
    assert "first_violation: (36, 108, 324)" in res.stdout


def test_check_abelian():
    res = run_cli("check", "--gen", "abelian:3,3")
    assert res.returncode == 0
    assert "is_cml:          true" in res.stdout
    assert "first_violation: None" in res.stdout


def test_check_noncml_file(tmp_path):
    path = tmp_path / "noncml.txt"
    lines = ["6"] + [" ".join(str(v) for v in row) for row in NONCML6]
    path.write_text("\n".join(lines) + "\n")
    res = run_cli("check", "--input", str(path))
    assert res.returncode == 1
    assert "is_cml:          false" in res.stdout


def test_check_json_report(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("check", "--gen", "zassenhaus81", "--json", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["loop"] == {"name": "zassenhaus81", "order": 81}
    assert payload["diagnostics"]["is_cml"] is True
    assert payload["diagnostics"]["first_violation"] == [3, 9, 27]


def test_input_file_with_header(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(GOOD_Z3)
    res = run_cli("check", "--input", str(path))
    assert res.returncode == 0
    assert "loop: cyclic3 (order 3)" in res.stdout


INVARIANT_GOLDENS = [
    ("order", 81),
    ("center_order", 3),
    ("derived_order", 3),
    ("cube_order", 1),
    ("nilpotency_class", 2),
    ("frattini_order", 3),
    ("mult_group_order", 2187),
    ("inner_group_order", 27),
    ("mult_center_order", 3),
    ("mult_derived_order", 81),
    ("mult_frattini_order", 81),
]


def test_invariants_zassenhaus():
    res = run_cli("invariants", "--gen", "zassenhaus81")
    assert res.returncode == 0
    for key, value in INVARIANT_GOLDENS:
        assert re.search(rf"^{key}:\s+{value}$", res.stdout, re.M), key


def test_invariants_rejects_noncml(tmp_path):
    path = tmp_path / "noncml.txt"
    lines = ["6"] + [" ".join(str(v) for v in row) for row in NONCML6]
    path.write_text("\n".join(lines) + "\n")
    res = run_cli("invariants", "--input", str(path))
    assert res.returncode == 2
    assert "not a commutative Moufang loop" in res.stderr


@pytest.mark.parametrize("suite", ["frattini", "lemma4"])
def test_frattini_suites_reject_noncml(tmp_path, suite):
    """The maximal subloops need a CML: a commutative non-Moufang table stops
    with NotCML, not with a later error from the group side."""
    path = tmp_path / "noncml.txt"
    path.write_text("\n".join(["6"] + [" ".join(map(str, row)) for row in NONCML6]) + "\n")
    res = run_cli("verify", "--input", str(path), "--suite", suite)
    assert res.returncode == 2
    assert "NotCML" in res.stderr


def test_invariants_guards_fail_before_multiplication_group(monkeypatch, capsys):
    """A loop above the max-order guard is rejected before the first
    loop-side scan, and so before M(L) is built."""
    from mloop import cli, mult_group

    def never(loop):
        raise AssertionError("a scan ran before the max-order guard")

    monkeypatch.delenv("MLOOP_MAX_ORDER", raising=False)
    monkeypatch.setattr(mult_group, "multiplication_group", never)
    monkeypatch.setattr(cli.st, "center", never)
    assert cli.main(["invariants", "--gen", "abelian:1025"]) == 2
    err = capsys.readouterr().err
    assert "OrderOverflow: max-order guard: 1025 exceeds limit 1024" in err


def test_invariants_above_order_300(monkeypatch, capsys):
    """The associator tensor lives on L/Z(L), so order 301 (m = 1) runs."""
    from mloop import cli

    monkeypatch.delenv("MLOOP_MAX_ORDER", raising=False)
    assert cli.main(["invariants", "--gen", "abelian:301"]) == 0
    assert "mult_group_order:    301" in capsys.readouterr().out


def test_normalizer_trace():
    res = run_cli("normalizer", "--gen", "zassenhaus81", "--subloop", "27")
    assert res.returncode == 0
    assert "H (order 3): 0,27,54" in res.stdout
    assert "K: whole loop" in res.stdout
    assert "stage 1: |P| = 81, |D| = 9" in res.stdout
    assert "stage 2: |P| = 81, |D| = 9" in res.stdout
    assert "result (order 9): 0,1,2,27,28,29,54,55,56" in res.stdout


def test_normalizer_oracle_disagreement():
    res = run_cli("normalizer", "--gen", "zassenhaus81", "--subloop", "27", "--oracle")
    assert res.returncode == 1
    assert "oracle: seeded runs disagree (27 vs 27 elements)" in res.stdout


def test_normalizer_oracle_agreement():
    res = run_cli(
        "normalizer", "--gen", "zassenhaus81", "--subloop", "3,9", "--oracle"
    )
    assert res.returncode == 0
    assert "oracle: agrees with the fixpoint" in res.stdout


def test_normalizer_central_and_trivial():
    for subloop in ("0", "1"):
        res = run_cli("normalizer", "--gen", "zassenhaus81", "--subloop", subloop)
        assert res.returncode == 0
        assert "result (order 81)" in res.stdout


def test_normalizer_within():
    res = run_cli(
        "normalizer", "--gen", "zassenhaus81", "--subloop", "27", "--within", "27,9"
    )
    assert res.returncode == 0
    assert "result (order 9): 0,9,18,27,36,45,54,63,72" in res.stdout


def test_verify_abelian_all_pass():
    res = run_cli("verify", "--gen", "abelian:3,3", "--suite", "all")
    assert res.returncode == 0
    assert "14 passed, 0 failed" in res.stdout
    assert "FAIL" not in res.stdout


def test_verify_single_suite():
    res = run_cli("verify", "--gen", "zassenhaus81", "--suite", "lemma7")
    assert res.returncode == 0
    assert "PASS  lemma7_derived_four_way" in res.stdout
    assert "1 passed, 0 failed" in res.stdout


def test_verify_zassenhaus_all():
    """Every suite except prop3 passes; prop3's failure is the documented
    divergence on non-central order-3 subloops, so the run exits 1."""
    res = run_cli("verify", "--gen", "zassenhaus81", "--suite", "all", "--seed", "0")
    assert res.returncode == 1
    assert "FAIL  prop3_normalizer_containments" in res.stdout
    assert "13 passed, 1 failed" in res.stdout


def strip_millis(node):
    if isinstance(node, dict):
        return {k: strip_millis(v) for k, v in node.items() if k != "millis"}
    if isinstance(node, list):
        return [strip_millis(v) for v in node]
    return node


def test_verify_json_deterministic(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"report{k}.json"
        res = run_cli(
            "verify", "--gen", "zassenhaus81", "--suite", "all",
            "--seed", "0", "--json", str(out),
        )
        assert res.returncode == 1
        outs.append(json.loads(out.read_text()))
    assert json.dumps(strip_millis(outs[0]), sort_keys=True) == json.dumps(
        strip_millis(outs[1]), sort_keys=True
    )
    report = outs[0]
    assert report["artifact_version"] == "0.1.0"
    assert report["loop"] == {"name": "zassenhaus81", "order": 81}
    assert len(report["checks"]) == 14
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["prop3_normalizer_containments"] == "fail"
    assert sum(1 for s in statuses.values() if s == "pass") == 13


@pytest.mark.parametrize(
    "content,fragment",
    [
        (BAD_LATIN, "NotLatinSquare: row=1 repeats value 1"),
        (BAD_DIMENSION, "BadDimension: declared order 3 but found 2 table rows"),
    ],
)
def test_bad_table_files(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    res = run_cli("check", "--input", str(path))
    assert res.returncode == 2
    assert fragment in res.stderr


def test_missing_file():
    res = run_cli("check", "--input", "/no/such/file.txt")
    assert res.returncode == 2
    assert "No such file" in res.stderr


def test_input_gen_are_exclusive(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(GOOD_Z3)
    res = run_cli("check", "--input", str(path), "--gen", "abelian:3")
    assert res.returncode == 2
    assert "exactly one of --input and --gen" in res.stderr
    res = run_cli("check")
    assert res.returncode == 2


def test_unknown_gen_spec():
    res = run_cli("check", "--gen", "socks:9")
    assert res.returncode == 2
    assert "unknown generator spec" in res.stderr


def test_max_order_env_and_flag():
    res = run_cli("check", "--gen", "zassenhaus81", env_extra={"MLOOP_MAX_ORDER": "50"})
    assert res.returncode == 2
    assert "OrderOverflow" in res.stderr
    # an explicit flag beats the environment
    res = run_cli(
        "check", "--gen", "zassenhaus81", "--max-order", "100",
        env_extra={"MLOOP_MAX_ORDER": "50"},
    )
    assert res.returncode == 0


def test_lattice_guard_on_big_products():
    args = ["verify", "--gen", "product:zassenhaus81xabelian:3", "--suite", "theorem2"]
    res = run_cli(*args)
    assert res.returncode == 2
    assert "lattice guard: 243 exceeds limit 128" in res.stderr
    # non-lattice suites are not affected by the guard
    res = run_cli("verify", "--gen", "product:zassenhaus81xabelian:3", "--suite", "lemma2")
    assert res.returncode == 0


def test_bad_suite_name():
    res = run_cli("verify", "--gen", "abelian:3", "--suite", "nonsense")
    assert res.returncode == 2
    assert "invalid choice" in res.stderr


def test_bad_subloop_indices():
    res = run_cli("normalizer", "--gen", "abelian:9", "--subloop", "3,x")
    assert res.returncode == 2


def test_readme_cli_examples_match_the_cli():
    """Each ``$ mloop ...`` block of README.md is the command's exact stdout."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n\$ mloop ([^\n]*)\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 4
    millis = re.compile(r"\(\d+ ms\)")
    for command, body in blocks:
        res = run_cli(*shlex.split(command))
        assert millis.sub("(N ms)", res.stdout) == millis.sub("(N ms)", body), command


def test_in_process_calls_match_fresh_processes(monkeypatch, capsys):
    """``main`` builds its parser once per process: a second in-process call, after
    another command and after a usage error, prints what a fresh process prints.
    Each call runs the ``cmd_*`` bound in the module when it is made."""
    from mloop import cli

    monkeypatch.delenv("MLOOP_MAX_ORDER", raising=False)
    argvs = [["check", "--gen", "product:zassenhaus81xabelian:3"],
             ["normalizer", "--gen", "zassenhaus81", "--subloop", "27"],
             ["invariants", "--gen", "abelian:3,3"],
             ["check"]]
    fresh = [run_cli(*argv) for argv in argvs]
    for _ in range(2):
        for argv, want in zip(argvs, fresh):
            assert cli.main(argv) == want.returncode, argv
            got = capsys.readouterr()
            assert (got.out, got.err) == (want.stdout, want.stderr), argv
    with pytest.raises(SystemExit):
        cli.main(["check", "--bogus"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
    assert cli.main(argvs[0]) == 7


JSON_REPORTS = [
    ["check", "--gen", "zassenhaus81"],
    ["check", "--gen", "abelian:2,3"],
    ["invariants", "--gen", "zassenhaus81"],
    ["normalizer", "--gen", "zassenhaus81", "--subloop", "27"],
    ["normalizer", "--gen", "zassenhaus81", "--subloop", "27", "--within", "9,27"],
    ["normalizer", "--gen", "zassenhaus81", "--subloop", "27", "--oracle"],  # runs disagree
    ["normalizer", "--gen", "zassenhaus81", "--subloop", "3,9", "--oracle"],
    ["normalizer", "--gen", "zassenhaus81", "--subloop", "1", "--within", "1,3,9", "--oracle"],
] + [["verify", "--gen", "zassenhaus81", "--suite", suite] for suite in SUITE_NAMES]


@pytest.mark.parametrize("argv", JSON_REPORTS, ids=[" ".join(argv) for argv in JSON_REPORTS])
def test_json_reports_match_the_json_module(monkeypatch, capsys, tmp_path, argv):
    """Each CLI report's file is ``json.dumps(payload, indent=2)`` and a newline, byte for byte."""
    from mloop import cli

    payloads, real = [], cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda path, payload: payloads.append(payload)
                        or real(path, payload))
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--json", str(out)]) in (0, 1)
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == json.dumps(payloads[0], indent=2) + "\n"


def test_json_writer_matches_the_json_module_on_other_values():
    """Values no report holds, subclasses of the types the writer handles among them, go
    through ``json.dumps`` at their own indent."""
    from mloop.cli import _dumps

    Count, Text = type("Count", (int,), {}), type("Text", (str,), {})
    Row, Record = type("Row", (list,), {}), type("Record", (dict,), {})

    payload = {"none": None, "true": True, "false": False, "float": 0.1, "empty": [],
               "empty_dict": {}, "nested": [[], {}, [[]], {"a": {}}, ([], ())], "tuple": (1, "x"),
               "text": "café ∑\n\"q\"\\", "negative": -3, "big": 10 ** 30,
               "int_keys": {1: [2.5, None], "b": {3: True}}, "list": [True, 1.0, (None,)],
               "subclasses": [Count(4), Text("t"), Row([1, Row([])]), Record(a=Record(b=[2]))],
               Text("text_key"): {Text("k"): Count(5)}}
    for value in (payload, [payload, payload], {7: payload}, [], {}, (), "x", 5, None, 1e300):
        assert _dumps(value) == json.dumps(value, indent=2), value
