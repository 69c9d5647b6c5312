"""Command-line front end: argument parsing and output.  The analysis
itself is ``analysis.analyze_instance``; ``pack`` prints a packing of the
tree LP that analysis solves, ``analysis.bounded_tree_lp``.

Subcommands: analyze, bounds, pack, split, strength, gen, selftest.  Each
prints its result or raises; ``main`` alone turns an error into an exit
code: 0 ok, 2 input error, 3 resource limit, 4 certificate failure (a
selftest check that fails is one, named by its message).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import bounds as bnd
from .analysis import analyze_instance, bounded_tree_lp
from .connectivity import terminal_cut
from .errors import CertificateError, McastcapError, ResourceLimit
from .instances import example2_instance, example2_routing_scheme, random_instance, sample_instances
from .multigraph import (
    Multigraph,
    TerminalSet,
    dump_instance,
    load_instance,
    prune_to_core,
)
from .packing import (
    SteinerPacking,
    fractional_capacity_lp,
    half_integer_capacity,
    max_integer_packing,
)
from .splitting import eliminate_relays
from .strength import edge_strength


# -- subcommands -----------------------------------------------------------


def _read_instance(path: str) -> tuple[Multigraph, TerminalSet]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_instance(fh.read())


def _packing_to_dict(p: SteinerPacking) -> dict:
    return {
        "denominator": p.denominator,
        "rate": str(p.rate),
        "trees": [
            {"edges": sorted(edge_ids), "multiplicity": str(Fraction(units, p.denominator))}
            for edge_ids, units in p.trees
        ],
    }


def _cmd_analyze(args) -> None:
    g, a = _read_instance(args.file)
    report = analyze_instance(g, a, via_splitting=args.via_splitting)
    if args.format == "structured":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())


def _cmd_bounds(args) -> None:
    lam, na = args.lam, args.terminals
    if lam < 1 or na < 2:
        raise ValueError("need connectivity >= 1 and >= 2 terminals")
    if lam == 1:
        print("terminal connectivity 1: gamma = pi = 1")
        return
    rows = [(name, str(value)) for _, name, _, value in bnd.bound_table(lam, na)]
    dec3 = bnd.decompose3(lam)
    decg = bnd.decompose_general(lam, na)
    rows += [
        ("3-terminal decomposition (k, delta, Delta)", f"({dec3.k}, {dec3.delta}, {dec3.big_delta})"),
        ("general decomposition (k, delta)", f"({decg.k}, {decg.delta})"),
    ]
    width = max(len(n) for n, _ in rows)
    print(f"lambda(A) = {lam}, |A| = {na}")
    for n, v in rows:
        print(f"  {n:<{width}}  {v}")


def _cmd_pack(args) -> None:
    g, a = _read_instance(args.file)
    solve = {"int": max_integer_packing, "half": half_integer_capacity, "frac": fractional_capacity_lp}
    value, p = solve[args.mode](bounded_tree_lp(g, a, *terminal_cut(g, a))[-1])
    print(json.dumps({"mode": args.mode, "value": str(value), "packing": _packing_to_dict(p)}, indent=2))


def _cmd_split(args) -> None:
    g, a = _read_instance(args.file)
    core = prune_to_core(g, a)
    split_g, history, scale = eliminate_relays(core, a)
    out = {
        "scale": scale,
        "result": json.loads(dump_instance(split_g, a)),
    }
    if args.emit_history:
        out["history"] = {
            "events": [
                {
                    "pivot": ev.pivot,
                    "splitted": [ev.e_id, ev.f_id],
                    "splitting": ev.new_id,
                    "amount": ev.amount,
                }
                for ev in history.events
            ],
            "deleted_pivots": list(history.deleted_pivots),
        }
    print(json.dumps(out, indent=2))


def _cmd_strength(args) -> None:
    g, a = _read_instance(args.file)
    eta, witness = edge_strength(g, a)
    print(
        json.dumps(
            {
                "eta": str(eta),
                "witness": {
                    "blocks": [sorted(b) for b in witness],
                    "crossing_capacity": int(eta * (len(witness) - 1)),
                },
            },
            indent=2,
        )
    )


def _cmd_gen(args) -> None:
    if args.kind == "example2":
        slots = tuple(int(s) for s in args.relays.split(",")) if args.relays else ()
        g, a = example2_instance(args.terminals, slots)
    else:
        g, a = random_instance(args.vertices, args.extra_edges, args.terminals, args.seed)
    print(dump_instance(g, a))


# -- selftest --------------------------------------------------------------
# Each scope returns once all its checks hold and raises CertificateError,
# naming the check, at the first that fails.


def _selftest_appendix() -> None:
    for lam in range(1, 10_001):
        bnd.decompose3(lam)
    for lam in range(2, 201):
        for na in range(2, 21):
            _, _, _, holds = bnd.appendix_b_identity(lam, na)
            if not holds:
                raise CertificateError(f"modular identity fails at lambda={lam}, a={na}")


def _selftest_examples() -> None:
    for na in range(3, 7):
        for slots in [(), (0,), (0, 2)]:
            g, a = example2_instance(na, slots)
            report = analyze_instance(g, a)
            if not report.lp_rate == report.eta == Fraction(na, na - 1):
                raise CertificateError(f"cycle family bracket wrong at a={na}, slots={slots}")
    for na in range(3, 9):
        # the builder checks its packing; this checks the rate it reaches
        if example2_routing_scheme(na).rate != Fraction(na, na - 1):
            raise CertificateError(f"routing scheme invalid at a={na}")


def _selftest_splitting() -> None:
    for i, (g, a) in enumerate(sample_instances(15, 6, 5, 3, seed=1000)):
        split_g, history, _ = eliminate_relays(g, a)
        if history.events and history.replay().edges != split_g.edges:
            raise CertificateError(f"splitting instance {i}: history replay mismatch")


def _selftest_packing() -> None:
    # analyze_instance checks every rate it reports, in order and against
    # the paper's floors
    for g, a in sample_instances(15, 6, 5, 3, seed=2000):
        analyze_instance(g, a)


_SCOPES = {
    "appendix": _selftest_appendix,
    "examples": _selftest_examples,
    "splitting": _selftest_splitting,
    "packing": _selftest_packing,
}


def _cmd_selftest(args) -> None:
    for scope in list(_SCOPES) if args.scope == "all" else [args.scope]:
        _SCOPES[scope]()
        print(f"selftest {scope}: ok")


# -- entry point -----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="mcastcap",
        description="Exact routing-capacity analysis for undirected multicast networks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full capacity report for an instance file")
    pa.add_argument("file")
    pa.add_argument("--via-splitting", action="store_true")
    pa.add_argument("--format", choices=["table", "structured"], default="table")
    pa.set_defaults(func=_cmd_analyze)

    pb = sub.add_parser("bounds", help="closed-form bound table")
    pb.add_argument("--lambda", dest="lam", type=int, required=True)
    pb.add_argument("--terminals", type=int, default=3)
    pb.set_defaults(func=_cmd_bounds)

    pp = sub.add_parser("pack", help="Steiner tree packing certificate")
    pp.add_argument("file")
    pp.add_argument("--mode", choices=["int", "half", "frac"], default="int")
    pp.set_defaults(func=_cmd_pack)

    ps = sub.add_parser("split", help="eliminate relay nodes by splitting off")
    ps.add_argument("file")
    ps.add_argument("--emit-history", action="store_true")
    ps.set_defaults(func=_cmd_split)

    pt = sub.add_parser("strength", help="edge strength with witness partition")
    pt.add_argument("file")
    pt.set_defaults(func=_cmd_strength)

    pg = sub.add_parser("gen", help="generate an instance")
    gsub = pg.add_subparsers(dest="kind", required=True)
    ge = gsub.add_parser("example2")
    ge.add_argument("--terminals", type=int, required=True)
    ge.add_argument("--relays", default="", help="comma-separated gap slots")
    ge.set_defaults(func=_cmd_gen)
    gr = gsub.add_parser("random")
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--vertices", type=int, default=6)
    gr.add_argument("--extra-edges", type=int, default=5)
    gr.add_argument("--terminals", type=int, default=3)
    gr.set_defaults(func=_cmd_gen)

    pst = sub.add_parser("selftest", help="run built-in checks")
    pst.add_argument("scope", nargs="?", default="all", choices=["all", *_SCOPES])
    pst.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 4
    except (OSError, McastcapError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
