"""Regenerate the pinned outputs in perfbench/pinned/ from the current code.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are trusted: the benchmark counts
any later deviation from these files as a failed operation.  It takes
a few minutes, most of it in the greedy oracle over the sweep's pool.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mloop  # noqa: E402
from mloop import structure as st  # noqa: E402

from workloads import (  # noqa: E402
    INVARIANTS_243,
    PINNED,
    cli,
    digest,
    prop3_witness,
    zero_millis,
)


def write(name, payload):
    PINNED.mkdir(exist_ok=True)
    with open(PINNED / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINNED / name}")


def verify_report(argv, path):
    code, _, err = cli(argv + ["--json", str(path)])
    assert code in (0, 1), err
    with open(path, encoding="utf-8") as fh:
        return zero_millis(json.load(fh))


def pin_verify_z81(tmp):
    report = verify_report(
        ["verify", "--gen", "zassenhaus81", "--suite", "all", "--seed", "0"], tmp / "v.json"
    )
    loop = mloop.gen_zassenhaus81()
    lattice = st.all_subloops(loop)
    index = {s.elements: i for i, s in enumerate(lattice)}
    normal_pairs = [
        [hi, ki]
        for hi, h in enumerate(lattice)
        if not h.is_full
        for ki, k in enumerate(lattice)
        if h.elements <= k.elements and st.is_normal(loop, h, k)
    ]
    fixpoint = [
        hi if h.is_full else index[mloop.normalizer(loop, None, h).result.elements]
        for hi, h in enumerate(lattice)
    ]
    prop3 = {
        "lattice": [list(s.members) for s in lattice],
        "normal_pairs": normal_pairs,
        "fixpoint": fixpoint,
    }
    (entry,) = [c for c in report["checks"] if c["name"] == "prop3_normalizer_containments"]
    assert prop3_witness(prop3, 0) == (entry["status"], entry["witness"])
    write("verify_z81.json", {"report": report, "prop3": prop3})
    return loop, lattice


def pin_theorem2(tmp):
    report = verify_report(
        ["verify", "--gen", "product:zassenhaus81xabelian:2", "--suite", "theorem2",
         "--max-order", "162"],
        tmp / "t.json",
    )
    assert report["checks"][0]["status"] == "pass"
    write("theorem2_z81x2.json", report)


def pin_normalizer_pool(loop, lattice, tmp):
    centre = st.center(loop).elements
    pool = {"order9": [], "order3_noncentral": []}
    for s in lattice:
        if s.size == 9:
            kind = "order9"
        elif s.size == 3 and not s.elements <= centre:
            kind = "order3_noncentral"
        else:
            continue
        path = tmp / "n.json"
        argv = ["normalizer", "--gen", "zassenhaus81",
                "--subloop", ",".join(str(m) for m in s.members), "--oracle", "--json", str(path)]
        code, out, _ = cli(argv)
        line = out.splitlines()[-1]
        agrees = line == "oracle: agrees with the fixpoint"
        assert (code, agrees) == ((0, True) if kind == "order9" else (1, False)), (s.members, line)
        pool[kind].append({
            "members": list(s.members),
            "code": code,
            "oracle_line": line,
            "stdout_sha256": digest(out),
            "json_sha256": digest(path.read_text(encoding="utf-8")),
        })
    assert len(pool["order3_noncentral"]) == 39
    write("normalizer_z81.json", pool)


def pin_invariants(tmp):
    path = tmp / "i.json"
    code, _, err = cli(["invariants", "--gen", "product:zassenhaus81xabelian:3", "--json", str(path)])
    assert code == 0, err
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["invariants"] == INVARIANTS_243


def pin_scan_729():
    loop = mloop.direct_product(mloop.gen_zassenhaus81(), mloop.gen_abelian((3, 3)))
    write("scan_729.json", {
        name: list(getattr(mloop, name)(loop).members)
        for name in ("center", "associator_subloop", "cube_subloop")
    })


def main():
    import mloop.cli  # noqa: F401  (cli() looks the module up in sys.modules)

    tmp = ROOT / ".perfbench_tmp" / "pin"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        loop, lattice = pin_verify_z81(tmp)
        pin_theorem2(tmp)
        pin_invariants(tmp)
        pin_scan_729()
        pin_normalizer_pool(loop, lattice, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
