import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mcastcap import (
    Multigraph,
    SplitHistory,
    TerminalSet,
    bounds,
    dump_instance,
    example2_instance,
    load_instance,
    packing,
    random_instance,
    sample_instances,
    scale_capacities,
)
from mcastcap import cli
from mcastcap.cli import main
from mcastcap.errors import DisconnectedTerminals, InvalidGraph
from test_packing import counted_bound_evaluations, dangling_triangles, non_tight_instance
from test_splitting import k4_with_relay


@pytest.fixture()
def cycle_file(tmp_path):
    g, a = example2_instance(5, (0, 2))
    path = tmp_path / "cycle.json"
    path.write_text(dump_instance(g, a))
    return str(path)


class TestAnalyze:
    def test_table_output(self, cycle_file, capsys):
        assert main(["analyze", cycle_file]) == 0
        out = capsys.readouterr().out
        assert "lambda(A)=2" in out
        assert "fractional rate (LP)     = 5/4" in out
        assert "(tight)" in out

    def test_structured_output(self, cycle_file, capsys):
        assert main(["analyze", cycle_file, "--format", "structured"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["terminal_connectivity"] == 2
        assert d["fractional_rate"] == "5/4"
        assert d["edge_strength"] == "5/4"
        assert d["bracket"]["tight"] is True

    def test_via_splitting(self, cycle_file, capsys):
        assert main(["analyze", cycle_file, "--via-splitting"]) == 0
        assert "via splitting" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        (13, 8, 4, 2), (14, 8, 3, 2), (14, 10, 4, 1), (14, 10, 4, 2),
        (16, 10, 3, 0), (16, 10, 3, 1), (16, 10, 3, 2), (16, 12, 4, 0),
    ])
    def test_cores_past_twelve_vertices(self, tmp_path, capsys, args):
        g, a = random_instance(*args)
        assert len(g.vertices) > 12
        path = tmp_path / "core.json"
        path.write_text(dump_instance(g, a))
        for flags in ([], ["--via-splitting"]):
            assert main(["analyze", str(path), "--format", "structured", *flags]) == 0
            d = json.loads(capsys.readouterr().out)
            assert d["bracket"] == {"lower": "2", "upper": "2", "tight": True}

    def test_lifted_trees_count_multiplicity(self, tmp_path, capsys):
        # relay-free, so the packing lifts as it is: one tree of multiplicity 3
        path = tmp_path / "st3.json"
        path.write_text('{"vertices": ["s", "t"], "edges": [["s", "t", 3]], "source": "s", "sinks": ["t"]}')
        assert main(["analyze", str(path), "--format", "structured", "--via-splitting"]) == 0
        v = json.loads(capsys.readouterr().out)["via_splitting"]
        assert v["packed_trees"] == v["lifted_trees"] == 3

    def test_splitting_flag_does_not_persist(self, cycle_file, capsys):
        assert main(["analyze", cycle_file, "--format", "structured", "--via-splitting"]) == 0
        assert "via_splitting" in capsys.readouterr().out
        assert main(["analyze", cycle_file, "--format", "structured"]) == 0
        assert "via_splitting" not in capsys.readouterr().out

    def test_deterministic(self, cycle_file, capsys):
        main(["analyze", cycle_file, "--format", "structured"])
        first = capsys.readouterr().out
        main(["analyze", cycle_file, "--format", "structured"])
        assert capsys.readouterr().out == first

    def test_non_tight_bracket(self, tmp_path, capsys):
        path = tmp_path / "non_tight.json"
        path.write_text(dump_instance(*non_tight_instance()))
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out == (
            "instance: |V|=7 |E|=9 |A|=4 lambda(A)=2\n"
            "integer packing k        = 1\n"
            "half-integer rate        = 3/2\n"
            "fractional rate (LP)     = 9/5\n"
            "edge strength eta        = 2\n"
            "gamma bracket            = [9/5, 2]\n"
            "bound table:\n"
            "  general half-integer lower bound           1\n"
            "  general fractional lower bound             4/3 (limit)\n"
            "  general fractional gain bound              3/2 (limit)\n"
        )

    def test_short_circuit(self, tmp_path, capsys):
        path = tmp_path / "path.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b", 1], ["b", "c", 1]],
            "source": "a",
            "sinks": ["c"],
        }))
        assert main(["analyze", str(path)]) == 0
        assert "gamma = pi = 1" in capsys.readouterr().out


class TestBounds:
    def test_three_terminals(self, capsys):
        assert main(["bounds", "--lambda", "5", "--terminals", "3"]) == 0
        out = capsys.readouterr().out
        assert "pi_i lower bound (3 terminals)" in out
        assert "15/4 (limit)" in out

    def test_general(self, capsys):
        assert main(["bounds", "--lambda", "4", "--terminals", "4"]) == 0
        out = capsys.readouterr().out
        assert "8/3 (limit)" in out

    def test_invalid(self, capsys):
        for argv in (["--lambda", "0"], ["--lambda", "2", "--terminals", "1"]):
            assert main(["bounds", *argv]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "input error: need connectivity >= 1 and >= 2 terminals\n"

    def test_connectivity_one_short_circuits(self, capsys):
        assert main(["bounds", "--lambda", "1"]) == 0
        assert capsys.readouterr().out == "terminal connectivity 1: gamma = pi = 1\n"


class TestPack:
    def test_modes(self, cycle_file, capsys):
        for mode, value in (("int", "1"), ("half", "1"), ("frac", "5/4")):
            assert main(["pack", cycle_file, "--mode", mode]) == 0
            d = json.loads(capsys.readouterr().out)
            assert d["value"] == value
            assert d["packing"]["trees"]

    @pytest.mark.parametrize("instance", ["path", "triangles16+pendant"])
    def test_terminal_connectivity_one(self, tmp_path, capsys, instance):
        # a cut-edge joins two terminals, so the input is reduced as given;
        # the 16 relay triangles contract away, and their 2^16 relay subsets
        # are never enumerated
        if instance == "path":
            g = Multigraph.build(["s", "t", "u"], [("s", "t", 1), ("t", "u", 1)])
            a = TerminalSet("s", ("t", "u"))
        else:
            g, a = dangling_triangles(16)
            g = Multigraph.build(g.vertices | {"p"}, [(e.u, e.v, e.cap) for e in g.edges] + [(a.source, "p", 1)])
            a = TerminalSet(a.source, (*a.sinks, "p"))
        path = tmp_path / "lambda1.json"
        path.write_text(dump_instance(g, a))
        for mode in ("int", "half", "frac"):
            assert main(["pack", str(path), "--mode", mode]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == "1"


class TestSplit:
    def test_split(self, cycle_file, capsys):
        assert main(["split", cycle_file, "--emit-history"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["scale"] == 1
        assert set(d["result"]["vertices"]) == {"v0", "v1", "v2", "v3", "v4"}
        assert len(d["history"]["events"]) == 2

    def test_history_splits_amounts(self, tmp_path, capsys):
        # K4 + relay x100: pivot degree 300, one event per pair of edges
        path = tmp_path / "k4x100.json"
        path.write_text(dump_instance(*k4_with_relay(100)))
        assert main(["split", str(path), "--emit-history"]) == 0
        events = json.loads(capsys.readouterr().out)["history"]["events"]
        assert len(events) == 3
        assert sum(ev["amount"] for ev in events) == 150


# SHA-256 of the standard output of each of WITNESS_COMMANDS, in order, on
# K4 + relay x4/x8/x16 and the five n=10 draws of the random benchmark.  The
# trees and the split history are witnesses the analyze output never shows;
# a change that alters one on purpose records the new digest here.
WITNESS_COMMANDS = (["pack", "--mode", "int"], ["pack", "--mode", "half"],
                    ["pack", "--mode", "frac"], ["split", "--emit-history"])
WITNESS_DIGESTS = {
    "k4x4": (
        "878fb0e98fca57d642ae56bff51b105c19c4d205c75a23e5cf4df5759493b480",
        "58c350b8b38b2a832313a93ad4bbb49a924c70bf6d9f3d8a6c0923b0c3e8d1fc",
        "3220488177c7f2f715a6b2b63ae7eec8da031fdf1b86bd6bcbcf9149741bea33",
        "9487fe91d8b5b81fcbd6d524e2e902f658530a88182ff0def13370859189d702",
    ),
    "k4x8": (
        "ca05540454a7f232fd3a7a45aa618496ce9d13a4a7c668fbb999950593094d2d",
        "03ce8d29009441da0c396a9c0beec5ed5a5fa8c43aa58fc668917656d6f0dde7",
        "03e025158098b56ebcd24ba9d5b93ced8a077e77d5982f68bd275af4149c2953",
        "d470801bc273111fca2c56fd0a558c8c3a583219ead575f522f751d1f3f79e90",
    ),
    "k4x16": (
        "4af0cfcb3405527c703865cfbbc378c72357d75c93ea62749ae14e7b4f667035",
        "38b6d7ab42249bdeac3e153d8c823a191a019268ac02bd6528454bc6be7a2afb",
        "624c95a66bbf3983400d7baf73329bde6786bfe428253ba3935cdefe24f7c07a",
        "e71f25abc4412c6676b4a266595d698a65fcfd334f551045ccc27c03c41533c5",
    ),
    "draw0": (
        "f29e8ae1a37cd80184d6a2fa5a707da323651a073b5c89115452c13236368cb6",
        "dac91b9b4e9a82d8c41b868740acbebb58d0bdee73554806d40df2a02320db75",
        "1974601070861136fa26254964e7e785976ad1e8f0b94b7f58e1c6c51962112b",
        "bf947b157c5982a58d28c91862511967f2595ba79c07c81ce91088d9b49b7010",
    ),
    "draw1": (
        "7bb942bc1b638ed37e46a3851160d04baaad3af30bd12613ec74a1f16ad25fd1",
        "cb7ec8968de8e0423cad9d551d52466b6d01eb8e1d142e589662d54ce83501e3",
        "6849a8833c818f1d2b2ad4ac0a9354b77952e1b5f14dce084c70856acbf204c3",
        "33c6a6db05048a51754ab63a343f937dd52553361c16fd9789ea91f52c86d937",
    ),
    "draw2": (
        "01550a3190af707cd507189d8b5348860ce4bfd28f29e8d45d5b44c0765f0fe3",
        "b456fd0edaac5131cb066b9db436e44a31658b99a1c837b9d9e607182ad55ad5",
        "2e1746612ee0c11f22fbfc203b050417c0961464859b83a6160cf1806cabdb05",
        "007af5af56f1938923d98a4d2d3912f278bd07fb2b71ec4faa256bcd5f313059",
    ),
    "draw3": (
        "abcdb7cf0cc0712cf3e22c945a5e42fa386d0b3bab0ee8784da325937d49b01b",
        "0b8dd9e4a1197b3f3eba474cd6784a6404a24d544b7ed49d1998d26ede6fae21",
        "7e7758fc8c9a1cd3c34a48760b41a39579c896e1a6b8f53bed523dafd880a69b",
        "19565d4c0c9201e0afe86a0ca3a98cffe606454042d4c95ba71a2e393e5354d8",
    ),
    "draw4": (
        "0c13a43129fb6dff07f70ad13291912116673d30566e0d4d997fc788d68d9bed",
        "b3fb663917efe9c9add65c6f5678935d22bcee5cb79325f74940c8a246a699a0",
        "ea59ce4828985a46adafcadc53f07160ac721a40de53c63274863f83f187af05",
        "df6314cd838409eea55522d0b2bf57982d58a85792ca5e6d1459418a3aa36e2a",
    ),
}


def _witness_instance(name):
    if name.startswith("k4x"):
        return k4_with_relay(int(name[3:]))
    return list(sample_instances(5, 10, 10, 4, 0))[int(name[4:])]


@pytest.mark.parametrize("name", sorted(WITNESS_DIGESTS))
def test_witness_digests_are_pinned(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(dump_instance(*_witness_instance(name)))
    got = []
    for argv in WITNESS_COMMANDS:
        assert main([argv[0], str(path), *argv[1:]]) == 0
        got.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(got) == WITNESS_DIGESTS[name]


# SHA-256 of the standard output of ``strength`` on the WITNESS_DIGESTS
# instances and on example2_instance(a, slots) ("cycle<a>/<slots>") for
# a = 5..11 up to the 12-vertex limit.  The witness partition is the least
# minimizer, which the analyze output never shows.
STRENGTH_DIGESTS = {
    "k4x4": "940b765bd45709bebe6c0b49261c7669336b36f868cf65ff04787b55753a4770",
    "k4x8": "eb8925c3f16f191e2308399fe701fc3f4b2ac01c08a2c60fa3d8bc2a2372418a",
    "k4x16": "81585f4113030ad1d4cbff4f061071c5d2b7eb5ab2706532086182fb1a906427",
    "draw0": "ee9ee4978b1be9b379e1dc56ce957505512a10750db11771d0cbbc60c82ff57a",
    "draw1": "6aa28538717bdc48006e4d7a491f9532651f6e853847199a0a630ed044fc7bba",
    "draw2": "ee92ebbdb4ff52559b85f82f198b59a85bb12f6c884194680d93d027b0cab25f",
    "draw3": "4f2d3390bfc15ca5c3d7ca1a77372c4395e406a9cd3565cc985f44adee763b83",
    "draw4": "8fdf5b8e7577a184c45b46ec56ead40c1881e0b923c7eaf2a3774f35d45dca43",
    "cycle5": "fca1bd44542b5e38d2f2afa6ef6560938483e8232a913ab10cfd50b36e92cbbb",
    "cycle5/0": "734cd1a384138c185b6d78e63b4916a2461de051d0ba9d4b4f185bfe106c9d88",
    "cycle5/0,2": "0b27bf913922fa1a8ea5c6a67066c45fa541f39734a2966c7bf7fa5d3ee3b4af",
    "cycle6": "48f3674387929d627b8a1e1b2d62440079ee2cc7d600194ddc9b8b0cf1f8725f",
    "cycle6/0": "e8ba529a22c7281febc3c24ebaf5847c2d6d85991ec55ce7d5a6202b6d11032c",
    "cycle6/0,2": "d22ce09c89455c728996cd92049613a89718c64e12c9d5c46bcf0bc24bf7254a",
    "cycle7": "10c2a739df4b9fa210be8d274f6218530e7886e247c495e67e4c0af8a57bbd72",
    "cycle7/0": "bf6865158bffef5b1c7df3615f406b0f5fdfdedbc64c89bcb034f341aae57664",
    "cycle7/0,2": "44d859619baf097b477b90568fb3afadca0fd7aba5e1fb3d2782ad070dd60caa",
    "cycle8": "c07f2f2997fe15a04fccf924b88fa60f74bf2ba4a8f5735f1ca353ecfdabcc93",
    "cycle8/0": "a15a74b4cb869b564159529469346c41b981fcca3aebfd1c92e25a832417277f",
    "cycle8/0,2": "62c4833b7e2ab8c1d5b1e5356e8c407c495f67efa2e792d8be77be7937944635",
    "cycle9": "55307ede69e0ff7cda53effc045611302a03f04ac7086515fa17a37b1af14a7f",
    "cycle9/0": "53fc04cb64cc4d0aba06f644eefd486f88b60d1e96cf23b5e28e48628e970be6",
    "cycle9/0,2": "0b78933e7bf7c94e1b9e025505dbc60cc944fcb5b2592ca2fcfd2c7d9c05fde5",
    "cycle10": "b1efa5789368c8d8e08855a8080705272baad2b36778cff3c43f6aee9abd3a83",
    "cycle10/0": "bf8da053e7c5d6d7e5424bc4d37b9abf70c6610ce667ef9604d626fe0435bb16",
    "cycle10/0,2": "52b4fe1d6e921e3416538b76144de5192d90cb2207442143109c30171e30e3e0",
    "cycle11": "f7f29b7e9d43b5926765f54e7231747c7187969b9b83154584ea8764b9bb86c7",
    "cycle11/0": "e88b3238a578eb8fb9aae5bfac3f4b307659bb93515154a40a31cb89145e0436",
}


def _strength_instance(name):
    if name.startswith("cycle"):
        a, _, slots = name[len("cycle"):].partition("/")
        return example2_instance(int(a), tuple(int(s) for s in slots.split(",") if s))
    return _witness_instance(name)


@pytest.mark.parametrize("name", sorted(STRENGTH_DIGESTS))
def test_strength_digests_are_pinned(tmp_path, capsys, name):
    path = tmp_path / "instance.json"
    path.write_text(dump_instance(*_strength_instance(name)))
    assert main(["strength", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STRENGTH_DIGESTS[name]


class TestStrength:
    def test_strength(self, cycle_file, capsys):
        assert main(["strength", cycle_file]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["eta"] == "5/4"
        assert len(d["witness"]["blocks"]) == 5

    def test_largest_admitted_search(self, tmp_path, capsys):
        # 11 terminals, Bell(11) = 678570 terminal partitions, and a relay
        assert main(["gen", "example2", "--terminals", "11", "--relays", "0"]) == 0
        path = tmp_path / "cycle11.json"
        path.write_text(capsys.readouterr().out)
        assert main(["strength", str(path)]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["eta"] == "11/10"
        assert len(d["witness"]["blocks"]) == 11


class TestGen:
    def test_example2_round_trip(self, tmp_path, capsys):
        assert main(["gen", "example2", "--terminals", "4", "--relays", "0,2"]) == 0
        payload = capsys.readouterr().out
        path = tmp_path / "gen.json"
        path.write_text(payload)
        assert main(["analyze", str(path)]) == 0
        assert "fractional rate (LP)     = 4/3" in capsys.readouterr().out

    def test_random_sizes(self, capsys):
        argv = ["gen", "random", "--seed", "3", "--vertices", "9", "--extra-edges", "7", "--terminals", "4"]
        assert main(argv) == 0
        _, a = load_instance(capsys.readouterr().out)
        assert len(a.members) == 4

    def test_random_refuses_negative_extra_edges(self, capsys):
        assert main(["gen", "random", "--seed", "0", "--extra-edges", "-4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: extra edges must not be negative\n"

    def test_random_deterministic(self, capsys):
        assert main(["gen", "random", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "random", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first


class TestSelftest:
    def test_appendix_scope(self, capsys):
        assert main(["selftest", "appendix"]) == 0
        assert "selftest appendix: ok" in capsys.readouterr().out

    def test_examples_scope(self, capsys):
        assert main(["selftest", "examples"]) == 0

    def test_wrong_scheme_rate_fails_the_examples_scope(self, capsys, monkeypatch):
        # the builder checks its packing, so selftest checks the rate alone:
        # a scheme that drops its last tree is valid at rate 1
        build = cli.example2_routing_scheme

        def short(na):
            p = build(na)
            return replace(p, trees=p.trees[:-1])

        monkeypatch.setattr(cli, "example2_routing_scheme", short)
        assert main(["selftest", "examples"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "certificate failure: routing scheme invalid at a=3\n"

    def test_wrong_cycle_bracket_fails_the_examples_scope(self, capsys, monkeypatch):
        analyze = cli.analyze_instance
        monkeypatch.setattr(cli, "analyze_instance", lambda g, a: replace(analyze(g, a), eta=None))
        assert main(["selftest", "examples"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "certificate failure: cycle family bracket wrong at a=3, slots=()\n"

    def test_broken_modular_identity_fails_the_appendix_scope(self, capsys, monkeypatch):
        identity = bounds.appendix_b_identity
        monkeypatch.setattr(bounds, "appendix_b_identity", lambda lam, na: (*identity(lam, na)[:3], False))
        assert main(["selftest", "appendix"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "certificate failure: modular identity fails at lambda=2, a=2\n"

    def test_history_replay_mismatch_fails_the_splitting_scope(self, capsys, monkeypatch):
        # the replay stops at the base graph, before its first split
        monkeypatch.setattr(SplitHistory, "replay", lambda history: history.base)
        assert main(["selftest", "splitting"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("certificate failure: splitting instance ")
        assert err.endswith(": history replay mismatch\n")

    def test_all_scopes_stop_at_the_first_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(SplitHistory, "replay", lambda history: history.base)
        monkeypatch.setitem(cli._SCOPES, "packing", lambda: pytest.fail("the packing scope ran"))
        assert main(["selftest"]) == 4
        out, err = capsys.readouterr()
        assert out == "selftest appendix: ok\nselftest examples: ok\n"
        assert err.endswith(": history replay mismatch\n")

    @pytest.mark.parametrize("scope", ["splitting", "packing"])
    def test_pipeline_scopes(self, capsys, scope):
        assert main(["selftest", scope]) == 0
        assert capsys.readouterr().out == f"selftest {scope}: ok\n"


# commands that print the half-integer rate, and the output key that holds it
HALF_RATE_COMMANDS = [
    (["analyze", "--format", "structured"], "half_integer_rate"),
    (["pack", "--mode", "half"], "value"),
]


_TRIANGLE = {"vertices": ["a", "b", "c"], "edges": [["a", "b", 1], ["b", "c", 1], ["c", "a", 1]],
             "source": "a", "sinks": ["b", "c"]}

# integers stay under the interpreter's digit limit for conversion, which
# json.dumps would hit here; test_malformed_file covers the limit itself
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats()
    | st.sampled_from(["a", "b", "c", "d"]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _mutated_instances(draw):
    """The triangle with one field, list entry or edge component replaced by
    an arbitrary JSON value, or deleted."""
    obj = copy.deepcopy(_TRIANGLE)
    parent, key = obj, draw(st.sampled_from(sorted(obj)))
    while isinstance(parent[key], list) and draw(st.booleans()):
        parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(_JSON_VALUES)
    return obj


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/file.json"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        duplicate = {"vertices": ["a", "a", "b", "c"], "edges": [["a", "b", 1], ["b", "c", 1], ["c", "a", 1]],
                     "source": "a", "sinks": ["b", "c"]}
        # 1 and "1" are the same name once coerced to a string
        coerced = {"vertices": [1, "1", "b"], "edges": [[1, "b", 1], ["1", "b", 1]],
                   "source": "1", "sinks": ["b"]}
        triangle = {"vertices": ["a", "b", "c"], "edges": [["a", "b", 1], ["b", "c", 1], ["c", "a", 1]],
                    "source": "a", "sinks": ["b", "c"]}
        for text, message in [
            ("not json at all", "malformed JSON"),
            (json.dumps(duplicate), "duplicate vertex 'a'"),
            (json.dumps(coerced), "duplicate vertex '1'"),
            # names are strings or integers, lists are JSON arrays
            (json.dumps({**triangle, "vertices": ["a", "b", "c", None]}),
             "vertex name must be a string or an integer: None"),
            (json.dumps({**triangle, "sinks": ["b", True]}),
             "vertex name must be a string or an integer: True"),
            (json.dumps({**triangle, "edges": [["a", 1.5, 1]]}),
             "vertex name must be a string or an integer: 1.5"),
            (json.dumps({**triangle, "source": {"x": 1}}),
             "vertex name must be a string or an integer: {'x': 1}"),
            (json.dumps({**triangle, "sinks": "bc"}), "'sinks' must be a JSON array: 'bc'"),
            ("[" * 100_000, "malformed JSON"),
            (json.dumps(triangle).replace('"a"', "9" * 5000), "malformed JSON"),
        ]:
            path.write_text(text)
            assert main(["analyze", str(path)]) == 2
            assert f"input error: {message}" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(st.text() | _JSON_VALUES.map(json.dumps) | _mutated_instances().map(json.dumps))
    def test_fuzzed_input_is_an_input_error(self, tmp_path_factory, text):
        try:
            load_instance(text)
        except (InvalidGraph, DisconnectedTerminals):
            path = tmp_path_factory.getbasetemp() / "fuzzed.json"
            path.write_text(text, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["analyze", str(path)]) == 2
            assert err.getvalue().startswith("input error: ")

    @pytest.mark.parametrize("change, message", [
        *(({"edges": [["a", "b", cap], ["b", "c", 1], ["c", "a", 1]]},
           f"edge 0 capacity must be a positive integer: {cap!r}") for cap in (0, -1, 1.5, True, "1")),
        ({"edges": [["a", "b", 1], ["b", "b", 1], ["b", "c", 1], ["c", "a", 1]]}, "edge 1 is a self-loop at 'b'"),
        ({"edges": [["a", "b", 1], ["b", "zz", 1], ["c", "a", 1]]}, "edge 1 has a dangling endpoint"),
        ({"sinks": ["a", "b", "c"]}, "source may not also be a sink"),
    ])
    def test_graph_rules(self, tmp_path, capsys, change, message):
        # the loader parses, and validate alone checks the graph it builds
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**_TRIANGLE, **change}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_duplicate_edge_id(self, cycle_file, capsys, monkeypatch):
        # a file cannot repeat an edge id, a library graph can: analyze
        # validates what it is given
        g = Multigraph.build("ab", [("a", "b", 1)])
        g = Multigraph(g.vertices, g.edges * 2)
        monkeypatch.setattr(cli, "load_instance", lambda text: (g, TerminalSet("a", ("b",))))
        assert main(["analyze", cycle_file]) == 2
        assert capsys.readouterr().err == "input error: duplicate edge id 0\n"

    @pytest.mark.parametrize("seed", ["2", "3"])
    def test_first_missing_terminal_is_named(self, tmp_path, monkeypatch, seed):
        # the terminals are checked in their listed order, not in a set's,
        # whose order follows the string hash seed
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({**_TRIANGLE, "sinks": ["x", "y"]}))
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = _run_cli("analyze", str(path))
        assert proc.returncode == 2
        assert proc.stderr == "input error: terminal 'x' is not a vertex\n"

    def test_bad_terminals(self, tmp_path, capsys):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b"],
            "edges": [["a", "b", 1]],
            "source": "a",
            "sinks": ["zz"],
        }))
        assert main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize("argv", [["analyze"], ["pack", "--mode", "half"]])
    def test_packing_depth_limit(self, tmp_path, capsys, monkeypatch, argv):
        # the 12th draw of sample_instances(20, 8, 8, 4, 20): the LP vertex
        # rounds to 1 of the 5 half-integer trees and its completion to 4,
        # and the search from there checks 39 nodes
        g, a = list(sample_instances(20, 8, 8, 4, 20))[11]
        path = tmp_path / "s20d11.json"
        path.write_text(dump_instance(g, a))
        monkeypatch.setattr(packing, "MAX_SEARCH_NODES", 4)
        assert main([argv[0], str(path), *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert "resource limit: half-integer branch and bound used 4 nodes" in err
        assert "MAX_SEARCH_NODES = 4" in err and "packing of 4 trees it started from is short of the goal of 5" in err

    @pytest.mark.parametrize("argv, key", HALF_RATE_COMMANDS)
    def test_huge_capacities_pack(self, tmp_path, capsys, argv, key):
        # K4 + relay x200: the half-integer search aims for 1000 trees
        g = Multigraph.build(
            ["s", "t1", "t2", "x"],
            [("s", "t1", 1), ("s", "t2", 1), ("t1", "t2", 1), ("x", "s", 1), ("x", "t1", 1), ("x", "t2", 1)],
        )
        path = tmp_path / "k4x200.json"
        path.write_text(dump_instance(scale_capacities(g, 200), TerminalSet("s", ("t1", "t2"))))
        start = time.perf_counter()
        assert main([argv[0], str(path), *argv[1:]]) == 0
        assert time.perf_counter() - start < 10
        assert json.loads(capsys.readouterr().out)[key] == "500"

    @pytest.mark.parametrize("argv, key", HALF_RATE_COMMANDS)
    def test_rounded_lp_vertex_at_goal_runs_no_search(self, tmp_path, capsys, monkeypatch, argv, key):
        # the x3 copy of the second n=10 sample draw: rounding the LP vertex
        # reaches the goal at factors 1 and 2, while the depth-first search
        # alone takes 453395 nodes at factor 1 and did not finish in 7
        # minutes at factor 2
        g, a = list(sample_instances(5, 10, 10, 4, 0))[1]
        path = tmp_path / "draw2x3.json"
        path.write_text(dump_instance(scale_capacities(g, 3), a))
        calls = counted_bound_evaluations(monkeypatch)
        start = time.perf_counter()
        # exit 0 also means the packing passed verify_packing
        assert main([argv[0], str(path), *argv[1:]]) == 0
        assert time.perf_counter() - start < 10
        assert calls == []
        assert json.loads(capsys.readouterr().out)[key] == "8"

    @pytest.mark.parametrize("command", ["analyze", "pack"])
    @pytest.mark.parametrize("n", [8, 46])
    def test_tree_limit(self, tmp_path, capsys, command, n):
        # all-terminal unit K_n; K46 has 1035 edges, more than the interpreter's
        # default recursion limit, and the spanning-tree search decides them
        # one at a time
        names = [f"v{i}" for i in range(n)]
        g = Multigraph.build(names, [(u, v, 1) for i, u in enumerate(names) for v in names[i + 1:]])
        path = tmp_path / f"k{n}.json"
        path.write_text(dump_instance(g, TerminalSet(names[0], tuple(names[1:]))))
        assert main([command, str(path)]) == 3
        err = capsys.readouterr().err
        assert "resource limit: tree enumeration found more than DEFAULT_TREE_LIMIT = 5000 minimal Steiner trees" in err

    def test_analyze_stops_its_lp_short_of_the_tree_limit(self, tmp_path, capsys):
        # the reduced core has more than DEFAULT_TREE_LIMIT minimal trees, but
        # its LP meets the partition bound 2 within the first size classes;
        # pack solves the same bounded LP
        path = tmp_path / "r20.json"
        path.write_text(dump_instance(*random_instance(20, 14, 4, 3)))
        start = time.perf_counter()
        assert main(["analyze", str(path), "--format", "structured"]) == 0
        assert time.perf_counter() - start < 10
        out = json.loads(capsys.readouterr().out)
        assert out["integer_packing"] == 2
        assert out["half_integer_rate"] == out["fractional_rate"] == out["edge_strength"] == "2"
        for mode in ("int", "half", "frac"):
            assert main(["pack", str(path), "--mode", mode]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == "2"
        assert time.perf_counter() - start < 10

    def test_pack_stops_its_lp_short_of_the_tree_limit(self, tmp_path, capsys):
        # the fractional packing meets the partition bound 3 before the tree
        # limit, and the integer packing completes its vertex to the goal 3
        # over the trees it drew (the half-integer one reaches 5 of its
        # goal 6, and its search over those trees uses its node budget)
        path = tmp_path / "r30.json"
        path.write_text(dump_instance(*random_instance(30, 30, 6, 0)))
        start = time.perf_counter()
        for mode in ("frac", "int"):
            assert main(["pack", str(path), "--mode", mode]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == "3"
        assert time.perf_counter() - start < 10

    def test_analyze_meets_the_bound_without_the_search(self, tmp_path, capsys):
        # 12 terminals joined through one relay hub by edges of capacity 2:
        # the star's one tree meets the seed partition's value 2, so analyze
        # needs no search, while the search alone uses its step budget
        names = [f"t{i:02d}" for i in range(12)]
        g = Multigraph.build([*names, "hub"], [(t, "hub", 2) for t in names])
        path = tmp_path / "hub12x2.json"
        path.write_text(dump_instance(g, TerminalSet(names[0], tuple(names[1:]))))
        start = time.perf_counter()
        assert main(["analyze", str(path), "--format", "structured"]) == 0
        assert time.perf_counter() - start < 1
        out = json.loads(capsys.readouterr().out)
        assert out["fractional_rate"] == out["edge_strength"] == "2"
        assert main(["strength", str(path)]) == 3
        assert "MAX_STRENGTH_STEPS = 6000000" in capsys.readouterr().err

    def test_strength_step_limit(self, tmp_path, capsys):
        # 12 terminals joined only through one relay hub: no partial partition
        # is pruned, and the 11-terminal hub star already takes 3.3 million steps
        names = [f"t{i:02d}" for i in range(12)]
        g = Multigraph.build([*names, "hub"], [(t, "hub", 1) for t in names])
        path = tmp_path / "hub12.json"
        path.write_text(dump_instance(g, TerminalSet(names[0], tuple(names[1:]))))
        start = time.perf_counter()
        assert main(["strength", str(path)]) == 3
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert "resource limit: edge strength search used " in err
        assert "steps, more than the budget MAX_STRENGTH_STEPS = 6000000" in err


# Runs under ``python -O``, which strips asserts: the certificate checks must
# still refuse a result when a function they rely on is replaced, as one
# module sees it, or a method they rely on is replaced on its class, by a
# faulty one.  argv: ``module.function`` or ``module.Class.method``, the
# fault, then the mcastcap arguments.
_FAULTY_FUNCTION = """
import importlib
import sys
from dataclasses import replace
from mcastcap import cli
if not sys.flags.optimize:
    sys.exit("not running under -O")

def over_report(original):
    def faulty(*args):
        value, side = original(*args)
        return value + 1, side
    return faulty

def under_report(original):
    def faulty(*args):
        value, side = original(*args)
        return value - 1, side
    return faulty

def over_report_later(original):
    # the first call reports what it found, every later one one more
    calls = []
    def faulty(*args):
        value, side = original(*args)
        calls.append(value)
        return (value + 1 if len(calls) > 1 else value), side
    return faulty

def halve_scale(original):
    # relay elimination reports half the scale it packed at
    def faulty(*args):
        split_g, history, scale = original(*args)
        return split_g, history, scale // 2
    return faulty

def fall_short(original):
    # a flow stopped at its limit reports one unit less, cut around the source alone
    def faulty(adj, s, t, limit=None, res=None):
        value, side = original(adj, s, t, limit, res)
        return (limit - 1, frozenset({s})) if side is None else (value, side)
    return faulty

def drop_edge(original):
    # the first lifted tree loses its smallest edge id
    def faulty(*args):
        packing = original(*args)
        (tree, units), *rest = packing.trees
        return replace(packing, trees=((tree - {min(tree)}, units), *rest))
    return faulty

def heavy_part(original):
    # every part of the reduction takes the capacity from the relay removed
    # first to the neighbour it records, its heavier one, and the graph's
    # edges the sums of their bundles
    def faulty(*args):
        r = original(*args)
        x, y = r.removed[0]
        heavy = sum(e.cap for e in r.core.incident(x) if e.touches(y))
        bundles = {key: tuple((ids, heavy if len(ids) > 1 else cap) for ids, cap in entries)
                   for key, entries in r.bundles.items()}
        edges = tuple(replace(e, cap=sum(cap for _, cap in bundles[e.id])) for e in r.graph.edges)
        return replace(r, graph=replace(r.graph, edges=edges), bundles=bundles)
    return faulty

def drop_chain_edge(original):
    # the first part loses the first core edge of its chain
    def faulty(*args):
        r = original(*args)
        key, k = next((key, k) for key, entries in r.bundles.items()
                      for k, (ids, _) in enumerate(entries) if len(ids) > 1)
        entries = list(r.bundles[key])
        ids, cap = entries[k]
        entries[k] = ids[1:], cap
        return replace(r, bundles={**r.bundles, key: tuple(entries)})
    return faulty

def lighter_side(original):
    # the first removed relay with a core neighbour in another block than
    # its own joins that neighbour, the lighter one of a contracted relay
    def faulty(reduction, blocks):
        lifted = original(reduction, blocks)
        for x, _ in reduction.removed:
            for e in reduction.core.incident(x):
                b = next(i for i, block in enumerate(lifted) if e.other(x) in block)
                if x not in lifted[b]:
                    return tuple(block - {x} | ({x} if i == b else set()) for i, block in enumerate(lifted))
        return lifted
    return faulty

FAULTS = {"fail": lambda original: lambda *args: False, "accept": lambda original: lambda *args: True,
          "over-report": over_report, "under-report": under_report, "fall-short": fall_short,
          "drop-edge": drop_edge, "heavy-part": heavy_part, "drop-chain-edge": drop_chain_edge,
          "lighter-side": lighter_side, "over-report-later": over_report_later, "halve-scale": halve_scale}
module_name, *owners, name = sys.argv[1].split(".")
owner = importlib.import_module(f"mcastcap.{module_name}")
for attr in owners:
    owner = getattr(owner, attr)
setattr(owner, name, FAULTS[sys.argv[2]](getattr(owner, name)))
sys.exit(cli.main(sys.argv[3:]))
"""


ROOT = Path(__file__).resolve().parents[1]


def _scaled_draw(args, draw, factor):
    g, a = list(sample_instances(*args))[draw]
    return scale_capacities(g, factor), a


# Inputs on which analyze once exited 3.  A rounded LP vertex short of its
# goal sent the branch and bound past its node budget (the x7 and x2
# copies) or, drawing every tree, past the tree limit (random-30-30-6); on
# the sparse draws the LP could not stop at the partition bound and passed
# the tree limit, where it now stops at eta.  The rates are (k, half, LP,
# eta, lambda).
WALLS = {
    "x7-copy": (lambda: _scaled_draw((5, 10, 10, 4, 0), 1, 7), (18, "37/2", "56/3", "56/3", 21)),
    "random-30-30-6": (lambda: random_instance(30, 30, 6, 0), (3, "3", "3", "3", 3)),
    "n8-s200-d15-x2": (lambda: _scaled_draw((20, 8, 8, 4, 200), 15, 2), (4, "9/2", "14/3", "14/3", 6)),
    "n8-s400-d8-x2": (lambda: _scaled_draw((20, 8, 8, 4, 400), 8, 2), (4, "9/2", "14/3", "14/3", 6)),
    "n16-s3000-d5": (lambda: _scaled_draw((25, 16, 16, 5, 3000), 5, 1), (2, "5/2", "5/2", "5/2", 3)),
    "n16-s3000-d7": (lambda: _scaled_draw((25, 16, 16, 5, 3000), 7, 1), (2, "5/2", "5/2", "5/2", 3)),
    "n18-s2000-d4": (lambda: _scaled_draw((25, 18, 18, 5, 2000), 4, 1), (1, "3/2", "3/2", "3/2", 2)),
}


@pytest.mark.parametrize("name", sorted(WALLS))
def test_walls_finish(tmp_path, capsys, name):
    instance, want = WALLS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(dump_instance(*instance()))
    start = time.perf_counter()
    assert main(["analyze", str(path), "--format", "structured"]) == 0
    assert time.perf_counter() - start < 5
    out = json.loads(capsys.readouterr().out)
    got = (out["integer_packing"], out["half_integer_rate"], out["fractional_rate"], out["edge_strength"],
           out["terminal_connectivity"])
    assert got == want
    rates = [Fraction(x) for x in got]
    assert rates == sorted(rates)
    # pack solves the same LP, stopped at the same bound
    assert main(["pack", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == str(want[0])
    if name == "x7-copy":
        assert main(["pack", str(path), "--mode", "half"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "37/2"
    assert time.perf_counter() - start < 5


def _run_python(*argv):
    """Run a Python process that imports the package from this checkout's ``src``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


_MAIN = "import sys; from mcastcap.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_cli(*argv):
    return _run_python("-c", _MAIN, *argv)


def _run_faulty(function, fault, *argv):
    return _run_python("-O", "-c", _FAULTY_FUNCTION, function, fault, *argv)


class TestCertificateChecks:
    @pytest.mark.parametrize("verifier, command", [
        ("verify_packing", "analyze"),
        ("verify_packing", "analyze --via-splitting"),
        ("verify_packing", "pack"),
        ("verify_packing", "pack --mode half"),
        ("verify_packing", "pack --mode frac"),
        ("verify_partition", "analyze"),
        ("verify_partition", "strength"),
    ])
    def test_checks_survive_optimize(self, cycle_file, verifier, command):
        # each solver checks its own result, as its own module sees the verifier
        module = "packing" if verifier == "verify_packing" else "strength"
        name, *options = command.split()
        proc = _run_faulty(f"{module}.{verifier}", "fail", name, cycle_file, *options)
        assert proc.returncode == 4, proc.stderr
        assert "certificate failure" in proc.stderr

    @pytest.mark.parametrize("argv", [["split"], ["analyze", "--via-splitting"]])
    def test_split_certificate_survives_optimize(self, cycle_file, argv):
        # every flow runs through the one checked kernel
        proc = _run_faulty("connectivity.pair_flow", "over-report", argv[0], cycle_file, *argv[1:])
        assert proc.returncode == 4, proc.stderr
        assert "certificate failure" in proc.stderr

    def test_broken_lifted_packing_is_refused(self, cycle_file):
        # analysis verifies the packing that lift_packing returns on the base graph
        proc = _run_faulty("analysis.lift_packing", "drop-edge", "analyze", cycle_file, "--via-splitting")
        assert proc.returncode == 4, proc.stderr
        assert "certificate failure: lifted packing failed verification" in proc.stderr

    def test_over_reported_strength_flow_is_refused(self, tmp_path):
        # eta = 2 here; a lambda one too large prunes the optimum and prints 5/2
        path = tmp_path / "n8.json"
        path.write_text(dump_instance(*list(sample_instances(40, 8, 6, 3, 0))[4]))
        proc = _run_faulty("connectivity.pair_flow", "over-report", "strength", str(path))
        assert proc.returncode == 4, proc.stderr
        assert "certificate failure: flow value" in proc.stderr

    def test_prune_flow_falling_short_is_refused(self, tmp_path):
        # the 12th draw of sample_instances(20, 8, 8, 4, 20) packs 5
        # half-integer trees where the completed LP vertex packs 4; prune
        # flows that fall short would end the search at its incumbent 3,
        # with no trees
        g, a = list(sample_instances(20, 8, 8, 4, 20))[11]
        path = tmp_path / "s20d11.json"
        path.write_text(dump_instance(g, a))
        proc = _run_faulty("connectivity.pair_flow", "fall-short", "pack", str(path), "--mode", "half")
        assert proc.returncode == 4, proc.stderr
        assert "certificate failure: flow value" in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["pack"], "integer packing rate 1 differs from its value 2"),
        (["pack", "--mode", "half"], "half-integer packing rate 1 differs from its value 3/2"),
        (["analyze"], "integer packing rate 1 differs from its value 2"),
    ], ids=["int", "half", "analyze"])
    def test_over_reported_packing_value_is_refused(self, cycle_file, argv, message):
        # the a = 5 cycle packs one tree, at integer and half-integer rate alike;
        # analyze runs the integer packing first
        proc = _run_faulty("packing._branch_and_bound", "over-report", argv[0], cycle_file, *argv[1:])
        assert proc.returncode == 4, proc.stderr
        assert f"certificate failure: {message}" in proc.stderr

    def test_over_reported_lp_rate_breaks_weak_duality(self, cycle_file):
        # the LP rate 5/4 reported as 9/4 exceeds eta = 5/4 on the a = 5 cycle
        proc = _run_faulty("analysis.fractional_capacity_lp", "over-report", "analyze", cycle_file)
        assert proc.returncode == 4, proc.stderr
        assert "certificate failure: LP rate 9/4 exceeds edge strength 5/4" in proc.stderr

    @pytest.mark.parametrize("function, fault, instance, argv, message", [
        ("max_integer_packing", "over-report", "cycle5", [], "integer packing 2 exceeds half-integer rate 1"),
        ("half_integer_capacity", "over-report", "cycle3", [], "half-integer rate 5/2 exceeds LP rate 3/2"),
        ("max_integer_packing", "over-report-later", "cycle5", ["--via-splitting"],
         "split rate 2 exceeds split LP rate 5/4"),
        ("eliminate_relays", "halve-scale", "k4", ["--via-splitting"], "split LP rate 9/2 exceeds LP rate 5/2"),
    ], ids=["int-half", "half-lp", "split-rate", "split-lp"])
    def test_rates_out_of_order_are_refused(self, tmp_path, function, fault, instance, argv, message):
        # the a = 5 cycle has k = half = 1 below LP = 5/4, the 3-terminal one
        # k = 1 below half = LP = 3/2; the split graph of the a = 5 cycle is
        # the cycle on its terminals, packing 1 of its LP 5/4, and K4 + relay
        # packs at scale 2, its split LP 9/2 over 2 below its LP 5/2
        g, a = {"cycle5": example2_instance(5, (0, 2)), "cycle3": example2_instance(3, (0, 2)),
                "k4": k4_with_relay(1)}[instance]
        path = tmp_path / f"{instance}.json"
        path.write_text(dump_instance(g, a))
        proc = _run_faulty(f"analysis.{function}", fault, "analyze", str(path), *argv)
        assert proc.returncode == 4, proc.stderr
        assert f"certificate failure: {message}" in proc.stderr

    @pytest.mark.parametrize("function, terminals, relays, message", [
        ("half_integer_capacity", 3, (0, 2), "half-integer rate 1/2 is below the paper's bound 1"),
        ("fractional_capacity_lp", 5, (0, 2), "LP rate 1/4 is below the paper's bound 5/4"),
        ("max_integer_packing", 3, (), "integer packing 0 is below the paper's bound 1"),
    ], ids=["half", "frac", "int"])
    def test_rate_below_a_paper_bound_is_refused(self, tmp_path, function, terminals, relays, message):
        # lambda = 2 on the cycles: the a = 5 one meets Theorem 3's LP bound
        # with equality (LP 5/4), the triangle packs the one tree of Theorem 1,
        # and the 3-terminal one with relays has k = 1 below half = 3/2, so
        # analyze runs its half-integer search
        path = tmp_path / "cycle.json"
        path.write_text(dump_instance(*example2_instance(terminals, relays)))
        proc = _run_faulty(f"analysis.{function}", "under-report", "analyze", str(path))
        assert proc.returncode == 4, proc.stderr
        assert f"certificate failure: {message}" in proc.stderr

    def test_under_reported_partition_bound_is_refused(self, cycle_file):
        # the bound 5/4 of the a = 5 cycle reported as 1/4: the LP's first
        # pivot already passes it
        proc = _run_faulty("analysis.partition_bound", "under-report", "analyze", cycle_file)
        assert proc.returncode == 4, proc.stderr
        assert "certificate failure: LP objective 1 passed its certified upper bound 1/4" in proc.stderr

    @pytest.mark.parametrize("argv", [["split"], ["analyze", "--via-splitting"]])
    def test_missing_split_partner_is_a_certificate_failure(self, cycle_file, argv):
        # Mader's theorem promises an admissible partner, so a refused one is a bug
        proc = _run_faulty("splitting._keeps_targets", "fail", argv[0], cycle_file, *argv[1:])
        assert proc.returncode == 4, proc.stderr
        assert "certificate failure: no admissible partner" in proc.stderr

    @pytest.mark.parametrize("function, fault, message", [
        ("analysis.reduce_core", "heavy-part", "edge strength witness failed verification"),
        ("analysis.reduce_core", "drop-chain-edge", "half-integer packing failed verification"),
        ("multigraph.Reduction.lift", "lighter-side", "edge strength witness failed verification"),
    ], ids=["heavy-part", "drop-chain-edge", "lighter-side"])
    def test_faulty_reduction_is_refused(self, tmp_path, function, fault, message):
        # the 3-terminal cycle with relay x between v0 and v1, capacity 2 to v0
        # and 1 to v1: x becomes a v0-v1 part of capacity 1, and the strength
        # witness, the three singletons, puts x back with v0
        g = Multigraph.build(["v0", "v1", "v2", "x"], [
            ("v0", "x", 2), ("x", "v1", 1), ("v1", "v2", 1), ("v2", "v0", 1)])
        path = tmp_path / "heavy-relay.json"
        path.write_text(dump_instance(g, TerminalSet("v0", ("v1", "v2"))))
        assert _run_cli("analyze", str(path)).returncode == 0
        proc = _run_faulty(function, fault, "analyze", str(path))
        assert proc.returncode == 4, proc.stderr
        assert f"certificate failure: {message}" in proc.stderr

    def test_selftest_packing_names_the_broken_link(self):
        # the packing scope's analyses check their own order
        proc = _run_faulty("analysis.max_integer_packing", "over-report", "selftest", "packing")
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("certificate failure: integer packing ")
        assert " exceeds half-integer rate " in proc.stderr

    def test_selftest_splitting_exits_on_a_certificate_failure(self):
        # relay elimination checks every flow it reads; a refused one ends
        # the scope as in every other command, not as a FAIL line
        proc = _run_faulty("connectivity.pair_flow", "over-report", "selftest", "splitting")
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("certificate failure: flow value")

    def test_refused_routing_scheme_is_a_certificate_failure(self):
        # the cycle family's scheme is a packing its builder verifies
        proc = _run_faulty("instances.verify_packing", "fail", "selftest", "examples")
        assert proc.returncode == 4, proc.stderr
        assert "certificate failure: routing scheme of the a = 3 cycle failed verification" in proc.stderr

    @pytest.mark.parametrize("argv", [["split"], ["analyze", "--via-splitting"]])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_forced_split_is_a_certificate_failure(self, tmp_path, argv, k):
        # every trial accepts, so each edge at the relay would split with
        # itself and the terminal cuts of K4 + relay would fall; the trial
        # kept no flow for any link, so the first split is refused
        path = tmp_path / "k4.json"
        path.write_text(dump_instance(*k4_with_relay(k)))
        proc = _run_faulty("splitting._keeps_targets", "accept", argv[0], str(path), *argv[1:])
        assert proc.returncode == 4, proc.stderr
        assert "certificate failure: split trial of" in proc.stderr
        assert "at 'x' kept 't1'-'s' without a flow" in proc.stderr


# Every command that prints a result, on each instance file in argv, in one
# process.
_EVERY_COMMAND = """
import sys
from mcastcap.cli import main
for path in sys.argv[1:]:
    for command, *options in (["analyze"], ["analyze", "--format", "structured"], ["analyze", "--via-splitting"],
                              ["pack", "--mode", "int"], ["pack", "--mode", "half"], ["pack", "--mode", "frac"],
                              ["strength"], ["split", "--emit-history"]):
        if main([command, path, *options]) != 0:
            sys.exit(f"{command} {options} failed on {path}")
"""


def test_selftest_runs_its_checks_under_optimize():
    # every check raises, so none is stripped with the asserts
    proc = _run_python("-O", "-c", _MAIN, "selftest")
    assert proc.returncode == 0, proc.stderr
    scopes = ("appendix", "examples", "splitting", "packing")
    assert proc.stdout == "".join(f"selftest {scope}: ok\n" for scope in scopes)


def test_no_output_depends_on_the_hash_seed(tmp_path, monkeypatch):
    # string hashes set the order of every set and frozenset of vertex names
    instances = [example2_instance(6, (0, 2)), list(sample_instances(2, 10, 10, 4, 0))[1]]
    paths = []
    for i, (g, a) in enumerate(instances):
        paths.append(tmp_path / f"instance{i}.json")
        paths[-1].write_text(dump_instance(g, a))
    outs = []
    for seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = _run_python("-c", _EVERY_COMMAND, *map(str, paths))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_long_splitting_runs_in_a_shallow_stack():
    # K4 + relay x100: 150 units split at one pivot under a 100-frame stack
    proc = _run_python("-c", (
        "import sys\n"
        "from mcastcap import Multigraph, TerminalSet, eliminate_relays, scale_capacities\n"
        "g = Multigraph.build(['s', 't1', 't2', 'x'], [('s', 't1', 1), ('s', 't2', 1),"
        " ('t1', 't2', 1), ('x', 's', 1), ('x', 't1', 1), ('x', 't2', 1)])\n"
        "sys.setrecursionlimit(100)\n"
        "out, hist, scale = eliminate_relays(scale_capacities(g, 100), TerminalSet('s', ('t1', 't2')))\n"
        "print(sum(ev.amount for ev in hist.events), scale, hist.replay() == out)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "150 1 True\n"


@pytest.mark.parametrize("argv, scale", [(["split"], 10**6), (["analyze", "--via-splitting"], 1000)])
def test_splitting_time_does_not_grow_with_capacity(tmp_path, argv, scale):
    path = tmp_path / "k4.json"
    path.write_text(dump_instance(*k4_with_relay(scale)))
    start = time.monotonic()
    proc = _run_cli(argv[0], str(path), *argv[1:])
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 10


def test_long_relay_chain_analyzes(tmp_path, capsys):
    # 30 relays in one gap of the 3-terminal cycle: the subset search cuts
    # every relay subset but the empty one and the whole chain
    assert main(["gen", "example2", "--terminals", "3", "--relays", ",".join(["0"] * 30)]) == 0
    path = tmp_path / "chain30.json"
    path.write_text(capsys.readouterr().out)
    start = time.monotonic()
    proc = _run_cli("analyze", str(path), "--format", "structured")
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 10
    out = json.loads(proc.stdout)
    assert out["fractional_rate"] == out["edge_strength"] == "3/2"


@pytest.mark.parametrize("instance", ["triangles16", "chain1200"])
def test_reduction_walls_analyze(tmp_path, capsys, instance):
    # 16 relay triangles hanging at the terminals, and 1200 relays in one gap
    # of the 3-terminal cycle: both reduce to the cycle on the terminals
    if instance == "triangles16":
        text = dump_instance(*dangling_triangles(16))
    else:
        assert main(["gen", "example2", "--terminals", "3", "--relays", ",".join(["0"] * 1200)]) == 0
        text = capsys.readouterr().out
    path = tmp_path / f"{instance}.json"
    path.write_text(text)
    start = time.monotonic()
    proc = _run_cli("analyze", str(path), "--format", "structured")
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 10
    out = json.loads(proc.stdout)
    assert out["fractional_rate"] == out["edge_strength"] == "3/2"


def test_tree_enumeration_step_limit(tmp_path):
    # 8 relay triangles on the 3-terminal cycle, each relay of a triangle
    # joined to the same terminal: every relay keeps 3 neighbours, so
    # reduce_core leaves them, and 5^8 relay subsets pass the degree test
    g, a = example2_instance(3)
    names = sorted(a.members)
    edges = [(e.u, e.v, e.cap) for e in g.edges]
    for i in range(8):
        x, y, z = (f"{r}{i}" for r in "xyz")
        edges += [(names[i % 3], r, 1) for r in (x, y, z)] + [(x, y, 1), (y, z, 1), (z, x, 1)]
    path = tmp_path / "k4s8.json"
    path.write_text(dump_instance(Multigraph.build({v for e in edges for v in e[:2]}, edges), a))
    budget = packing.MAX_ENUMERATION_STEPS
    for command in ("analyze", "pack"):
        start = time.monotonic()
        proc = _run_cli(command, str(path))
        assert proc.returncode == 3, proc.stderr
        assert time.monotonic() - start < 10
        head, tail = proc.stderr.split(" steps, ")
        assert head.startswith("resource limit: tree enumeration used ")
        assert int(head.split()[-1]) > budget
        assert tail == f"more than the budget MAX_ENUMERATION_STEPS = {budget}\n"


def test_scripts_run_clean():
    out = ""
    # the sweep checks its values under -O too
    for flags, script, *args in ([[], "random_confirmation.py", "--count", "5"],
                                 [["-O"], "cycle_family_sweep.py", "--max-terminals", "10",
                                  "--relays", "0,2"]):
        proc = _run_python(*flags, str(ROOT / "scripts" / script), *args)
        assert proc.returncode == 0, proc.stderr
        out += proc.stdout
    assert "checked 5 instances (|V|<=8, |A|=3): every rate in order and above its floors" in out
    assert "BAD" not in out
    # the wall counts that the ROADMAP reads: two draws per sparse family,
    # then the named walls, all of which finish
    proc = _run_python(str(ROOT / "scripts" / "wall_sweep.py"), "--count", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 25 and lines[-1] == "sparse families: 40 of 40 exit 0; exit 3: none"
    assert lines[20].startswith("x7 copy of sample_instances(5, 10, 10, 4, 0)[1]")
    assert all(line.endswith("exit 3:   0") for line in lines[:-1])
    # the line counts and the timing comparison that the ROADMAP's rules read
    proc = _run_python(str(ROOT / "scripts" / "src_lines.py"))
    assert proc.returncode == 0, proc.stderr
    *modules, total = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [m[0] for m in modules] == sorted(p.stem for p in (ROOT / "src" / "mcastcap").glob("*.py"))
    assert total == ["total", *(str(sum(int(m[i]) for m in modules)) for i in (1, 2))]
    proc = _run_python(str(ROOT / "scripts" / "ab_time.py"), str(ROOT), str(ROOT),
                       "--workload", "cycle", "--rounds", "2", "--passes", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ratio of medians (change / parent)" in proc.stdout


def test_random_confirmation_without_cycles_gives_up():
    # with no extra edge every draw is a tree, and no seed qualifies
    start = time.monotonic()
    proc = _run_python(str(ROOT / "scripts" / "random_confirmation.py"), "--count", "1", "--extra-edges", "0")
    assert proc.returncode != 0
    assert time.monotonic() - start < 10
    assert "mcastcap.errors.ResourceLimit: sampling (vertices, extra edges, terminals) = (8, 0, 3)" in proc.stderr
