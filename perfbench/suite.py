"""Workloads, output checks and input properties of the ``analyze`` benchmark.

Each workload is a fixed list of instance structures.  ``--seed`` renames
their vertices.  The renaming keeps the sorted order of the names and the
edge order, so the program makes the same choices and does the same work on
every seed, and every output is byte-identical to the committed digest.
The structures are fixed because the cost of the exact searches depends on
them far more than on any change under test: ``sample_instances`` draws of
one size differ up to 40-fold in cost, and a relabelling that reorders
edges moves the cost of one instance up to 2-fold.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mcastcap.instances import example2_instance, sample_instances
from mcastcap.multigraph import (
    Multigraph,
    TerminalSet,
    dump_instance,
    prune_to_core,
    scale_capacities,
)
from mcastcap.packing import enumerate_steiner_trees

DEFAULT_SEED = 0
# Seed of the sample_instances draws that fix the random structures.
SUITE_SEED = 0
DIGESTS = Path(__file__).with_name("digests.json")
# Tree enumeration for the input properties must never hit the library's limit.
TREE_LIMIT = 10**6


@dataclass(frozen=True)
class Request:
    """One ``analyze`` request: an instance and the flags it is run with."""

    name: str
    graph: Multigraph
    terminals: TerminalSet
    via_splitting: bool
    # Number of terminals of a cycle-family instance, whose values are known
    # in closed form; None for other instances.
    cycle_terminals: int | None = None

    def argv(self, path: str) -> list[str]:
        flags = ["--via-splitting"] if self.via_splitting else []
        return ["analyze", path, "--format", "structured", *flags]


def _cycle() -> list[Request]:
    return [
        Request(f"cycle-a{a}", *example2_instance(a, (0, 2)), False, a)
        for a in (5, 6, 7, 8)
    ]


def _random() -> list[Request]:
    small = sample_instances(20, 8, 6, 3, SUITE_SEED)
    large = sample_instances(5, 10, 10, 4, SUITE_SEED)
    return [Request(f"random-n8-{i:02d}", g, a, True) for i, (g, a) in enumerate(small)] + [
        Request(f"random-n10-{i}", g, a, True) for i, (g, a) in enumerate(large)
    ]


def _k4_with_relay() -> tuple[Multigraph, TerminalSet]:
    """K4 on source s, sinks t1 and t2 and relay x."""
    g = Multigraph.build(
        ["s", "t1", "t2", "x"],
        [("s", "t1", 1), ("s", "t2", 1), ("t1", "t2", 1), ("x", "s", 1), ("x", "t1", 1), ("x", "t2", 1)],
    )
    return g, TerminalSet("s", ("t1", "t2"))


def _fat() -> list[Request]:
    k4, k4_terms = _k4_with_relay()
    reqs = [Request(f"fat-k4-x{k}", scale_capacities(k4, k), k4_terms, True) for k in (4, 8, 16)]
    for i, (g, a) in enumerate(sample_instances(3, 6, 3, 3, SUITE_SEED)):
        reqs += [Request(f"fat-n6-{i}-x{k}", scale_capacities(g, k), a, True) for k in (4, 8)]
    return reqs


WORKLOADS = {"cycle": _cycle, "random": _random, "fat": _fat}


def _rename(req: Request, rng: random.Random) -> Request:
    """Give the vertices random names that sort in the same order."""
    vertices = sorted(req.graph.vertices)
    names = set()
    while len(names) < len(vertices):
        names.add("".join(rng.choices(string.ascii_lowercase, k=6)))
    new = dict(zip(vertices, sorted(names)))
    edges = [(new[e.u], new[e.v], e.cap) for e in sorted(req.graph.edges, key=lambda e: e.id)]
    terminals = TerminalSet(new[req.terminals.source], tuple(new[t] for t in req.terminals.sinks))
    return Request(req.name, Multigraph.build(new.values(), edges), terminals, req.via_splitting, req.cycle_terminals)


def requests(workload: str, seed: int) -> list[Request]:
    """The workload's requests, with vertex names drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return [_rename(r, rng) for r in WORKLOADS[workload]()]


def write_instances(reqs: list[Request], directory: Path) -> list[str]:
    """Write one instance file per request; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for r in reqs:
        path = directory / f"{r.name}.json"
        path.write_text(dump_instance(r.graph, r.terminals), encoding="utf-8")
        paths.append(str(path))
    return paths


# -- output checks ---------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(workload: str) -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def check_output(req: Request, text: str) -> list[str]:
    """Problems with one structured ``analyze`` output; empty when it is correct."""
    try:
        return _check_values(req, json.loads(text))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_values(req: Request, out: dict) -> list[str]:
    problems = []
    lam = out["terminal_connectivity"]
    if "capacity" in out:  # connectivity 1: the report stops early
        if not (lam == 1 and out["capacity"] == "1"):
            problems.append("short-circuit report without connectivity 1")
        return problems
    k = out["integer_packing"]
    half = Fraction(out["half_integer_rate"])
    lp = Fraction(out["fractional_rate"])
    eta = Fraction(out["edge_strength"])
    lower = Fraction(out["bracket"]["lower"])
    upper = Fraction(out["bracket"]["upper"])
    if not (k <= half <= lp <= upper <= lam):
        problems.append(f"order k <= half <= lp <= upper <= lambda broken: {k}, {half}, {lp}, {upper}, {lam}")
    if upper != min(Fraction(lam), eta):
        problems.append(f"bracket upper {upper} != min(lambda, eta) = {min(Fraction(lam), eta)}")
    if out["bracket"]["tight"] != (lower == upper):
        problems.append("bracket tight flag disagrees with its bounds")
    a = req.cycle_terminals
    if a is not None:
        want = Fraction(a, a - 1)
        if not (lp == eta == want and k == 1):
            problems.append(f"cycle a={a}: want lp = eta = {want} and k = 1, got {lp}, {eta}, {k}")
    if req.via_splitting:
        split = out["via_splitting"]
        if split["lifted_verifies"] is not True:
            problems.append("lifted packing does not verify")
        if Fraction(split["rate"]) > lp:
            problems.append(f"split rate {split['rate']} exceeds the LP rate {lp}")
    return problems


# -- input properties ------------------------------------------------------


def _stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k non-empty blocks."""
    row = [1] + [0] * k  # S(0, j)
    for i in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def input_properties(reqs: list[Request]) -> dict[str, int]:
    """Sizes that each layer's work grows with, summed over one pass.

    ``strength_space`` counts the assignments the strength search visits:
    the sum over j >= 2 of S(|A|, j) * j^|R|.
    """
    trees, unit_edges, relays, space = [], 0, 0, 0
    for r in reqs:
        core = prune_to_core(r.graph, r.terminals)
        na = len(r.terminals.members)
        nr = len(core.vertices - r.terminals.members)
        trees.append(len(enumerate_steiner_trees(core, r.terminals, limit=TREE_LIMIT)))
        unit_edges += core.total_capacity()
        relays += nr
        space += sum(_stirling2(na, j) * j**nr for j in range(2, na + 1))
    return {
        "input.trees.total": sum(trees),
        "input.trees.max": max(trees),
        "input.unit_edges": unit_edges,
        "input.relays": relays,
        "input.strength_space": space,
    }
