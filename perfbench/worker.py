"""One benchmark process: set up one workload, then run timed passes.

Started by run.py in a fresh interpreter with ``PYTHONPATH=src``; prints
one JSON object on its last stdout line.  Modes:

- ``setup``: import ``mloop`` and build the workload's inputs, then stop;
- ``run``: set up, then run untraced passes until ``--seconds`` have
  passed (at least one pass);
- ``trace``: set up, run one untraced pass, install the tracer, and run
  one traced pass.
"""

import argparse
import json
import platform
import resource
import time
import traceback

import mloop
import mloop.cli  # noqa: F401  (workloads.cli looks it up in sys.modules)
import numpy

import workloads


def run_pass(ops):
    """Run every operation, timing the whole pass; check outputs afterwards."""
    state = {}
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        try:
            outcomes.append((op, op.run(state), None))
        except (Exception, SystemExit) as exc:
            outcomes.append((op, None, exc))
    wall = time.perf_counter() - start
    errors = []
    for op, value, exc in outcomes:
        if exc is not None:
            errors.append(f"{op.label} raised:\n" + "".join(traceback.format_exception(exc))[-2000:])
            continue
        try:
            op.check(value)
        except workloads.Mismatch as mismatch:
            errors.append(f"{op.label}: {mismatch}")
        except Exception:
            errors.append(f"{op.label} check raised:\n" + traceback.format_exc()[-2000:])
    return wall, len(ops), errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="stop starting passes once this many seconds have gone")
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    ops = workloads.make_ops(args.workload, args.seed, args.tmp)
    ready = time.perf_counter()
    out = {
        "ready": ready,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mloop": mloop.__version__,
    }
    passes, attempted, errors = [], 0, []

    def one_pass():
        nonlocal attempted
        wall, n, errs = run_pass(ops)
        passes.append(wall)
        attempted += n
        errors.extend(errs)

    if args.mode == "run":
        while True:
            one_pass()
            elapsed = time.perf_counter() - ready
            if elapsed >= args.seconds or elapsed + passes[-1] > args.budget:
                break
    elif args.mode == "trace":
        import tracer

        one_pass()
        spans = tracer.install()
        one_pass()
        out["layers"] = spans.metrics()
        out["m_chain_gens"] = spans.m_chain_gens
    out.update(
        passes=passes,
        attempted=attempted,
        errors=errors,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
