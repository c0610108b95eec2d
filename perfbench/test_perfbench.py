"""Tests of the benchmark itself: trace counts, alias rebinding, output checks.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mloop  # noqa: E402
import mloop.cli  # noqa: E402,F401

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def spans():
    return tracer.install()


def delta(spans, action):
    before = spans.metrics()
    action()
    after = spans.metrics()
    return {name: after[name] - before[name] for name in after}


def test_every_alias_is_rebound(spans):
    traced = lambda fn: getattr(fn, "__wrapped_by_tracer__", False)  # noqa: E731
    normalizer_mod = sys.modules["mloop.normalizer"]
    assert traced(mloop.normalizer)
    assert traced(normalizer_mod.normalizer)
    assert traced(normalizer_mod.is_normal)
    assert traced(normalizer_mod.join)
    assert traced(normalizer_mod.generate_subloop)
    assert traced(normalizer_mod.all_subloops)
    assert traced(sys.modules["mloop.verify"]._run_fixpoint)
    assert traced(sys.modules["mloop.mult_group"].center_of_group)
    assert traced(sys.modules["mloop.mult_group"].is_normal)
    assert traced(sys.modules["mloop.cli"].normalizer_oracle)
    assert traced(sys.modules["mloop.cli"].main)
    assert all(traced(fn) for _, _, fn in sys.modules["mloop.verify"].CHECK_REGISTRY)
    assert traced(mloop.CayleyLoop.associator_table)
    assert traced(mloop.PermGroup._build_chain)
    assert set(tracer.metric_names()) >= {f"{layer}.self_s" for layer in tracer.LAYERS}


def test_z81_theorem2_counts(spans):
    argv = ["verify", "--gen", "zassenhaus81", "--suite", "theorem2"]
    d = delta(spans, lambda: workloads.cli(argv))
    assert d["structure.lattice_subloops"] == 185
    assert d["normalizer.fixpoint_calls"] == 184


def test_z81x2_theorem2_counts(spans):
    argv = ["verify", "--gen", "product:zassenhaus81xabelian:2", "--suite", "theorem2",
            "--max-order", "162"]
    d = delta(spans, lambda: workloads.cli(argv))
    assert d["structure.lattice_subloops"] == 370
    assert d["normalizer.fixpoint_calls"] == 369
    assert d["verify.check.theorem2_normalizer_condition_s"] > 0


def test_z81_multiplication_group_counts(spans):
    d = delta(spans, lambda: mloop.multiplication_group(mloop.gen_zassenhaus81()))
    assert d["mult_group.inner_gens"] == 26
    assert spans.m_chain_gens[-1] == [80, 26, 8, 2]
    assert d["perm_group.chain_builds"] == 2


def test_oracle_agreement_is_counted(spans):
    pool = workloads.load_pinned("normalizer_z81.json")
    picks = [pool["order9"][0], pool["order3_noncentral"][0]]

    def run():
        for entry in picks:
            subloop = ",".join(str(m) for m in entry["members"])
            workloads.cli(["normalizer", "--gen", "zassenhaus81", "--subloop", subloop, "--oracle"])

    d = delta(spans, run)
    assert d["normalizer.oracle_calls"] == 2
    assert d["normalizer.fixpoint_calls"] == 2
    assert spans.counters["normalizer.oracle_agree"] >= 1
    assert 0 < spans.metrics()["normalizer.oracle_agree_ratio"] < 1


def test_prop3_replay_matches_pinned_report():
    pinned = workloads.load_pinned("verify_z81.json")
    (entry,) = [c for c in pinned["report"]["checks"]
                if c["name"] == "prop3_normalizer_containments"]
    assert workloads.prop3_witness(pinned["prop3"], 0) == (entry["status"], entry["witness"])
    assert workloads.expected_verify_z81(pinned, 0) == pinned["report"]


def test_wrong_output_is_a_mismatch(tmp_path):
    ops = workloads.make_ops("scan-729", 0, tmp_path)
    wrong = mloop.structure.trivial_subloop(mloop.gen_abelian((3,)))
    with pytest.raises(workloads.Mismatch):
        ops[1].check(wrong)
    with pytest.raises(workloads.Mismatch):
        ops[0].check((0, workloads.SCAN_729_CHECK.replace("false", "true"), ""))


def test_sweep_sample_is_stratified_and_seeded():
    pool = workloads.load_pinned("normalizer_z81.json")
    a, b = workloads.sweep_sample(pool, 5), workloads.sweep_sample(pool, 5)
    assert a == b
    sizes = sorted(len(e["members"]) for e in a)
    assert sizes == [3] * workloads.SWEEP_ORDER3 + [9] * workloads.SWEEP_ORDER9


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-z81", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == tracer.metric_names() + ["trace.wall_s", "trace.overhead_s"]
    assert all(m["unit"] == tracer.unit_of(m["name"]) for m in spec["per_layer"])
