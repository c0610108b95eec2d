"""The four benchmark workloads: inputs made from a seed, and output checks.

Each workload is a closed loop with one client.  One *pass* runs the
workload's operations one after another; an operation is one call of
``mloop.cli.main(argv)`` with stdout captured, or one call of a public
``mloop`` function.  Every operation's output is compared with values
pinned when the benchmark was added (see ``pin.py``), so a faster program must
give bit-identical answers to count as correct.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from collections import namedtuple
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned"

WORKLOADS = ("verify-z81", "invariants-243", "normalizer-sweep", "scan-729")

INVARIANTS_243 = {
    "order": 243,
    "center_order": 9,
    "derived_order": 3,
    "cube_order": 1,
    "nilpotency_class": 2,
    "frattini_order": 3,
    "mult_group_order": 6561,
    "inner_group_order": 27,
    "mult_center_order": 9,
    "mult_derived_order": 81,
    "mult_frattini_order": 81,
}

SCAN_729_CHECK = """loop: product:zassenhaus81xabelian:3,3 (order 729)
is_latin:        true
has_identity:    true
is_commutative:  true
is_cml:          true
is_associative:  false
first_violation: (27, 81, 243)
"""

# The sweep's stratified sample: the same number of each kind on every seed.
SWEEP_ORDER9 = 3
SWEEP_ORDER3 = 6


class Mismatch(Exception):
    """An operation returned, but not the pinned output."""


def load_pinned(name):
    with open(PINNED / name, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli(argv):
    """Run ``mloop.cli.main(argv)``; return (exit code, stdout, stderr).

    The function is looked up at call time, so a traced run reaches the
    wrapped ``main``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["mloop.cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


def zero_millis(report):
    for check in report["checks"]:
        check["millis"] = 0
    return report


def _expect(label, got, want):
    if got != want:
        g, w = repr(got), repr(want)
        raise Mismatch(f"{label}: got {g[:200]}, want {w[:200]}")


# One operation: ``run(state)`` is timed, ``check(result)`` is not.
Op = namedtuple("Op", "label run check")


# -- verify-z81 ---------------------------------------------------------------


def prop3_witness(pinned, seed):
    """The prop3 check's verdict for ``seed``, replayed on pinned lattice data.

    Mirrors the sampling of ``prop3_normalizer_containments``: every pair
    H <= K with H proper, in lattice order, sampled down to 200 by
    ``random.Random(seed)``, then sorted; for each normal pair, K must lie
    inside the fixpoint result of H.
    """
    lattice = [tuple(m) for m in pinned["lattice"]]
    sets = [frozenset(m) for m in lattice]
    full = max(len(s) for s in sets)
    normal = {tuple(p) for p in pinned["normal_pairs"]}
    fixpoint = pinned["fixpoint"]
    pairs = [
        (hi, ki)
        for hi, h in enumerate(sets)
        if len(h) != full
        for ki, k in enumerate(sets)
        if h <= k
    ]
    if len(pairs) > 200:
        pairs = random.Random(seed).sample(pairs, 200)
    pairs.sort(key=lambda p: (lattice[p[0]], lattice[p[1]]))
    checked = failures = 0
    first = None
    for hi, ki in pairs:
        if (hi, ki) not in normal:
            continue
        checked += 1
        ri = fixpoint[hi]
        if not sets[ki] <= sets[ri]:
            failures += 1
            if first is None:
                first = {
                    "h": list(lattice[hi]),
                    "k_prime": list(lattice[ki]),
                    "fixpoint_result": list(lattice[ri]),
                }
    witness = {"pairs_checked": checked, "failures": failures}
    if first is not None:
        witness["first_failure"] = first
    return ("pass" if failures == 0 else "fail"), witness


def expected_verify_z81(pinned, seed):
    """The whole seed-independent report, with prop3 replayed for ``seed``."""
    report = json.loads(json.dumps(pinned["report"]))
    for check in report["checks"]:
        if check["name"] == "prop3_normalizer_containments":
            check["status"], check["witness"] = prop3_witness(pinned["prop3"], seed)
    return report


def _verify_op(label, argv, json_path, want_report):
    want_code = 0 if all(c["status"] == "pass" for c in want_report["checks"]) else 1

    def check(result):
        code, _, err = result
        _expect(f"{label} exit code (stderr {err.strip()[:120]!r})", code, want_code)
        with open(json_path, encoding="utf-8") as fh:
            report = zero_millis(json.load(fh))
        for got, want in zip(report["checks"], want_report["checks"]):
            _expect(f"{label} check {want['name']}", got, want)
        _expect(f"{label} report", report, want_report)

    return Op(label, lambda state: cli(argv), check)


def verify_z81_ops(seed, tmp):
    path = tmp / "verify-z81.json"
    argv = ["verify", "--gen", "zassenhaus81", "--suite", "all",
            "--seed", str(seed), "--json", str(path)]
    want = expected_verify_z81(load_pinned("verify_z81.json"), seed)
    return [_verify_op("verify-z81", argv, path, want)]


# -- invariants-243 -------------------------------------------------------------


def invariants_243_ops(seed, tmp):
    path = tmp / "invariants-243.json"
    argv = ["invariants", "--gen", "product:zassenhaus81xabelian:3", "--json", str(path)]

    def check(result):
        code, _, err = result
        _expect(f"invariants exit code (stderr {err.strip()[:120]!r})", code, 0)
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)["invariants"]
        _expect("invariants", values, INVARIANTS_243)

    return [Op("invariants-243", lambda state: cli(argv), check)]


# -- normalizer-sweep -----------------------------------------------------------


def sweep_sample(pool, seed):
    """A seeded stratified sample of z81 subloops, in a seeded order."""
    rng = random.Random(seed)
    picked = rng.sample(pool["order9"], SWEEP_ORDER9) + rng.sample(
        pool["order3_noncentral"], SWEEP_ORDER3
    )
    rng.shuffle(picked)
    return picked


def _normalizer_op(entry, path):
    members = entry["members"]
    label = f"normalizer {len(members)}:{members[1]}"
    argv = ["normalizer", "--gen", "zassenhaus81",
            "--subloop", ",".join(str(m) for m in members),
            "--oracle", "--json", str(path)]

    def check(result):
        code, out, err = result
        _expect(f"{label} exit code (stderr {err.strip()[:120]!r})", code, entry["code"])
        _expect(f"{label} oracle line", out.splitlines()[-1], entry["oracle_line"])
        _expect(f"{label} stdout digest", digest(out), entry["stdout_sha256"])
        _expect(f"{label} json digest", digest(path.read_text(encoding="utf-8")),
                entry["json_sha256"])

    return Op(label, lambda state: cli(argv), check)


def normalizer_sweep_ops(seed, tmp):
    path = tmp / "theorem2.json"
    argv = ["verify", "--gen", "product:zassenhaus81xabelian:2", "--suite", "theorem2",
            "--max-order", "162", "--json", str(path)]
    ops = [_verify_op("theorem2-z81x2", argv, path, load_pinned("theorem2_z81x2.json"))]
    sample = sweep_sample(load_pinned("normalizer_z81.json"), seed)
    for i, entry in enumerate(sample):
        ops.append(_normalizer_op(entry, tmp / f"normalizer-{i}.json"))
    return ops


# -- scan-729 -------------------------------------------------------------------


def loop_729(state):
    """The order-729 loop of the check call, built once per pass from the public API."""
    if "loop" not in state:
        import mloop

        state["loop"] = mloop.direct_product(
            mloop.gen_zassenhaus81(),
            mloop.gen_abelian((3, 3)),
            name="product:zassenhaus81xabelian:3,3",
        )
    return state["loop"]


def _scan_op(name, want_members):
    def run(state):
        import mloop

        return getattr(mloop, name)(loop_729(state))

    def check(subloop):
        _expect(f"{name} members", list(subloop.members), want_members)

    return Op(name, run, check)


def scan_729_ops(seed, tmp):
    argv = ["check", "--gen", "product:zassenhaus81xabelian:3,3"]
    pinned = load_pinned("scan_729.json")

    def check(result):
        code, out, err = result
        _expect(f"check exit code (stderr {err.strip()[:120]!r})", code, 0)
        _expect("check stdout", out, SCAN_729_CHECK)

    return [
        Op("check-729", lambda state: cli(argv), check),
        _scan_op("center", pinned["center"]),
        _scan_op("associator_subloop", pinned["associator_subloop"]),
        _scan_op("cube_subloop", pinned["cube_subloop"]),
    ]


OPS = {
    "verify-z81": verify_z81_ops,
    "invariants-243": invariants_243_ops,
    "normalizer-sweep": normalizer_sweep_ops,
    "scan-729": scan_729_ops,
}


def make_ops(workload, seed, tmp):
    """The workload's operations for one pass; building them is part of set-up."""
    return OPS[workload](seed, Path(tmp))
