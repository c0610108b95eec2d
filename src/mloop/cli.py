"""Command-line front end: check, invariants, normalizer, verify."""

import argparse
import dataclasses
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import structure as st
from .errors import LoopError, OracleDisagreement, OrderOverflow
from .loop_core import (
    MAX_ORDER_DEFAULT,
    direct_product,
    gen_abelian,
    gen_zassenhaus81,
    parse_loop,
)
from .normalizer import normalizer, normalizer_oracle
from .verify import SUITE_NAMES, LoopContext, run_suite

ENV_MAX_ORDER = "MLOOP_MAX_ORDER"


def _effective_max_order(args):
    """--max-order wins over MLOOP_MAX_ORDER; explicit values lift the lattice guard."""
    if args.max_order is not None:
        return args.max_order, True
    env = os.environ.get(ENV_MAX_ORDER)
    if env is not None:
        try:
            return int(env), True
        except ValueError:
            raise LoopError(f"{ENV_MAX_ORDER}={env!r} is not an integer")
    return MAX_ORDER_DEFAULT, False


def _lattice_guard(max_order, explicit):
    if explicit:
        return max(st.LATTICE_GUARD_DEFAULT, max_order)
    return st.LATTICE_GUARD_DEFAULT


def _gen_loop(spec, max_order):
    if spec == "zassenhaus81":
        return gen_zassenhaus81()
    if spec.startswith("abelian:"):
        body = spec[len("abelian:"):]
        try:
            moduli = tuple(int(tok) for tok in body.split(",") if tok)
        except ValueError:
            raise LoopError(f"bad abelian moduli in {spec!r}")
        if not moduli:
            raise LoopError(f"no moduli in {spec!r}")
        return gen_abelian(moduli, max_order=max_order, name=spec)
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        if "x" not in body:
            raise LoopError(f"product spec {spec!r} needs the form <spec>x<spec>")
        left, right = body.split("x", 1)
        return direct_product(
            _gen_loop(left, max_order),
            _gen_loop(right, max_order),
            max_order=max_order,
            name=spec,
        )
    raise LoopError(
        f"unknown generator spec {spec!r}; use abelian:a,b,... | zassenhaus81 | product:<spec>x<spec>"
    )


def _load_loop(args):
    max_order, explicit = _effective_max_order(args)
    if bool(args.input) == bool(args.gen):
        raise LoopError("exactly one of --input and --gen is required")
    if args.gen:
        loop = _gen_loop(args.gen, max_order)
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        loop = parse_loop(text, name=os.path.basename(args.input))
    if loop.n > max_order:
        raise OrderOverflow("max-order", max_order, loop.n)
    return loop, _lattice_guard(max_order, explicit)


def _parse_indices(text, flag):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise LoopError(f"{flag} expects a comma-separated index list, got {text!r}")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(payload) + "\n")


def _dumps(value, pad="\n"):
    """``json.dumps(value, indent=2)`` byte for byte, ``pad`` a newline and the indent, without
    json's pure-Python indenting encoder; other types go to ``json.dumps``, re-indented."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = pad + "  "
    if (kind is list or kind is tuple) and value:
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in value]) + pad + "]"
    if kind is dict and value and all(type(key) is str for key in value):
        items = [encode_basestring_ascii(key) + ": " + _dumps(v, inner) for key, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(value, indent=2).replace("\n", pad)


def _header(loop):
    return f"loop: {loop.name} (order {loop.n})"


def _print_fields(loop, values):
    """The loop header, then one ``key: value`` line per field, values aligned."""
    print(_header(loop))
    width = max(len(k) for k in values) + 1
    for key, val in values.items():
        if isinstance(val, bool):
            val = "true" if val else "false"
        print(f"{key + ':':<{width}} {val}")


def cmd_check(args):
    loop, _ = _load_loop(args)
    values = dataclasses.asdict(loop.diagnostics())
    _print_fields(loop, values)
    if args.json:
        _write_json(args.json, {"loop": {"name": loop.name, "order": loop.n}, "diagnostics": values})
    return 0 if values["is_cml"] else 1


def cmd_invariants(args):
    loop, _ = _load_loop(args)
    if not loop.diagnostics().is_cml:
        raise LoopError(f"{loop.name} is not a commutative Moufang loop")
    ctx = LoopContext(loop)
    # loop-side values first: their guards fail fast, before M(L) is built
    values = {
        "order": loop.n,
        "center_order": ctx.center.size,
        "derived_order": ctx.derived.size,
        "cube_order": ctx.cubes.size,
        "nilpotency_class": ctx.series.nilpotency_class,
        "frattini_order": ctx.frattini.size,
        "mult_group_order": ctx.bundle.M.order(),
        "inner_group_order": ctx.bundle.I.order(),
        "mult_center_order": int(ctx.m_center.sum()),
        "mult_derived_order": int(ctx.m_derived.sum()),
        "mult_frattini_order": int(ctx.m_frattini.sum()),
    }
    _print_fields(loop, values)
    if args.json:
        _write_json(args.json, {"loop": {"name": loop.name, "order": loop.n}, "invariants": values})
    return 0


def cmd_normalizer(args):
    loop, _ = _load_loop(args)
    h = st.generate_subloop(loop, _parse_indices(args.subloop, "--subloop"))
    k = None
    if args.within:
        k = st.generate_subloop(loop, _parse_indices(args.within, "--within"))
    trace = normalizer(loop, k, h)
    print(_header(loop))
    print(f"H (order {h.size}): {h.serialize()}")
    print(f"K: {'whole loop' if k is None else k.serialize()}")
    for i, (p, d) in enumerate(zip(trace.p_stages, trace.d_stages), start=1):
        print(f"stage {i}: |P| = {len(p)}, |D| = {len(d)}")
    print(f"result (order {trace.result.size}): {trace.result.serialize()}")
    payload = {
        "loop": {"name": loop.name, "order": loop.n},
        "h": list(h.members),
        "k": None if k is None else list(k.members),
        "trace": trace.serialize(),
    }
    status = 0
    if args.oracle:
        try:
            oracle = normalizer_oracle(loop, k, h)
            payload["oracle"] = list(oracle.members)
            if oracle == trace.result:
                print("oracle: agrees with the fixpoint")
            else:
                print(
                    f"oracle: saturation found order {oracle.size}, "
                    f"fixpoint found order {trace.result.size}"
                )
                status = 1
        except OracleDisagreement as exc:
            payload["oracle"] = {
                "disagreement": [list(exc.first), list(exc.second)]
            }
            print(
                "oracle: seeded runs disagree "
                f"({len(exc.first)} vs {len(exc.second)} elements)"
            )
            status = 1
    if args.json:
        _write_json(args.json, payload)
    return status


def cmd_verify(args):
    loop, lattice_guard = _load_loop(args)
    report = run_suite(loop, args.suite, seed=args.seed, lattice_guard=lattice_guard)
    print(_header(loop))
    for check in report.checks:
        line = f"{'PASS' if check.status == 'pass' else check.status.upper():<5}"
        line += f" {check.name} ({check.millis} ms)"
        print(line)
        if check.status == "fail" and check.witness is not None:
            blob = json.dumps(check.witness)
            if len(blob) > 160:
                blob = blob[:157] + "..."
            print(f"      witness: {blob}")
    passed = sum(1 for c in report.checks if c.status == "pass")
    failed = sum(1 for c in report.checks if c.status == "fail")
    print(f"{passed} passed, {failed} failed")
    if args.json:
        _write_json(args.json, report.as_dict())
    return 0 if report.all_passed else 1


@functools.lru_cache(maxsize=None)
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mloop",
        description="Exact computations on finite commutative Moufang loops.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="FILE", help="Cayley-table file")
    common.add_argument(
        "--gen",
        metavar="SPEC",
        help="generator spec: abelian:a,b,... | zassenhaus81 | product:<spec>x<spec>",
    )
    common.add_argument("--max-order", type=int, default=None, metavar="N",
                        help=f"order guard (default {MAX_ORDER_DEFAULT}; also lifts the lattice guard)")
    common.add_argument("--json", metavar="PATH", help="write a JSON report to PATH")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[common], help="validate a table and print diagnostics")
    sub.add_parser("invariants", parents=[common],
                   help="structural invariants of a CML and its multiplication group")

    p_norm = sub.add_parser("normalizer", parents=[common],
                            help="run the P/D fixpoint for a generated subloop")
    p_norm.add_argument("--subloop", required=True, metavar="I,J,...",
                        help="generators of H")
    p_norm.add_argument("--within", metavar="I,J,...",
                        help="generators of K (default: the whole loop)")
    p_norm.add_argument("--oracle", action="store_true",
                        help="also run the greedy-saturation oracle and compare")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a named verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for sampled checks (default 0)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # the cmd_* names are read at each call, so a rebound command is the one that runs
    commands = {"check": cmd_check, "invariants": cmd_invariants, "normalizer": cmd_normalizer,
                "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except OrderOverflow as exc:
        print(f"error: OrderOverflow: {exc}", file=sys.stderr)
        return 2
    except LoopError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
