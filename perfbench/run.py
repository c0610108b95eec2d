"""mloop benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-z81 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Run from anywhere inside a checkout that has ``src/mloop``; nothing needs
installing.  Every process runs ``mloop`` from ``src`` with one thread,
and processes run one at a time.

``--trace 0`` reports the end-to-end metrics of untraced runs:

- ``wall_s``: median wall time of one pass of the workload, after set-up;
- ``setup_s``: median, over several fresh interpreters, of the time from
  starting the interpreter until ``mloop`` is imported and the inputs
  are ready;
- ``peak_rss_mb``: peak resident memory of the process that ran the passes.

``--trace 1`` runs one untraced pass and then one traced pass in the same
process, and reports the per-layer metrics of tracer.py together with
``trace.wall_s`` and ``trace.overhead_s`` (traced minus untraced wall time).

Every operation's output is checked against pinned values.  Operations
that raise, exit with an unexpected code or print unexpected output are
counted in ``failed`` out of ``attempted`` (the failed-operation ratio);
their messages go to stderr.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from tracer import unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7  # fresh interpreters whose set-up is timed, the measuring one included
TIME_LIMIT = 170.0  # seconds for one workload, all of its processes together
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(mode, args, tmp, deadline):
    """Start one worker process, wait for it, and return its JSON result."""
    remaining = deadline - time.perf_counter()
    if remaining <= 1:
        raise BenchError(f"time limit of {TIME_LIMIT:.0f} s reached before the {mode} process")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--mode", mode, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--budget", str(remaining - 5), "--tmp", str(tmp),
    ]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {args.workload} passed the time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{mode} process for {args.workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def measure(args, tmp):
    """Run one workload; return (attempted, errors, metrics, notes)."""
    deadline = time.perf_counter() + TIME_LIMIT
    notes = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        res = run_child("trace", args, tmp, deadline)
        untraced, traced = res["passes"]
        metrics = dict(res["layers"])
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        notes.update(untraced_wall_s=untraced, m_chain_gens=res["m_chain_gens"])
    else:
        # Half of the set-up samples come before the measured passes and half
        # after, so that the median spans the whole run, not its first seconds.
        before = (SETUP_SAMPLES - 1) // 2
        setups = [run_child("setup", args, tmp, deadline)["setup_s"] for _ in range(before)]
        res = run_child("run", args, tmp, deadline)
        setups.append(res["setup_s"])
        setups += [run_child("setup", args, tmp, deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES - 1 - before)]
        metrics = {
            "wall_s": statistics.median(res["passes"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["maxrss_kb"] / 1024,
        }
        notes.update(passes=res["passes"], setup_samples=setups)
    notes.update(python=res["python"], numpy=res["numpy"], mloop=res["mloop"],
                 nproc=len(os.sched_getaffinity(0)),
                 threads={var: "1" for var in THREAD_VARS})
    return res["attempted"], res["errors"], metrics, notes


def report(attempted, errors, metrics, notes):
    print("env: " + json.dumps(notes))
    for name, value in metrics.items():
        print(f"{name:<48} {value:.6g} {unit_of(name)}")
    print(f"{'failed_ops':<48} {len(errors)}/{attempted} ops")
    print("checks: " + ("all outputs match the pinned values" if not errors
                        else f"{len(errors)} operations failed"))
    for err in errors:
        print(f"FAILED {err}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run passes until this many seconds have gone (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mloop" / "__init__.py").is_file():
        print(f"error: no mloop package under {SRC}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    total_attempted, total_errors, merged = 0, [], {}
    try:
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in chosen:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            attempted, errors, metrics, notes = measure(one, tmp)
            report(attempted, errors, metrics, notes)
            total_attempted += attempted
            total_errors += errors
            if len(chosen) == 1:
                merged = metrics
            else:
                merged.update({f"{name}.{key}": val for key, val in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in merged.items()}
    print(json.dumps({
        "correct": not total_errors,
        "attempted": total_attempted,
        "failed": len(total_errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
