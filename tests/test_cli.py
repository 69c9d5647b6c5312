import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcastcap import dump_instance, example2_instance
from mcastcap.cli import main


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

    def test_deterministic(self, cycle_file, capsys):
        main(["analyze", cycle_file, "--format", "structured"])
        first = capsys.readouterr().out
        main(["analyze", cycle_file, "--format", "structured"])
        assert capsys.readouterr().out == first

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
        assert main(["bounds", "--lambda", "0"]) == 2


class TestPack:
    def test_modes(self, cycle_file, capsys):
        for mode, value in (("int", "1"), ("half", "1"), ("frac", "5/4")):
            assert main(["pack", cycle_file, "--mode", mode]) == 0
            d = json.loads(capsys.readouterr().out)
            assert d["value"] == value
            assert d["packing"]["trees"]


class TestSplit:
    def test_split(self, cycle_file, capsys):
        assert main(["split", cycle_file, "--emit-history"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["scale"] == 1
        assert set(d["result"]["vertices"]) == {"v0", "v1", "v2", "v3", "v4"}
        assert len(d["history"]["events"]) == 2


class TestStrength:
    def test_strength(self, cycle_file, capsys):
        assert main(["strength", cycle_file]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["eta"] == "5/4"
        assert len(d["witness"]["blocks"]) == 5


class TestGen:
    def test_example2_round_trip(self, tmp_path, capsys):
        assert main(["gen", "example2", "--terminals", "4", "--relays", "0,2"]) == 0
        payload = capsys.readouterr().out
        path = tmp_path / "gen.json"
        path.write_text(payload)
        assert main(["analyze", str(path)]) == 0
        assert "fractional rate (LP)     = 4/3" in capsys.readouterr().out

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


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/file.json"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert main(["analyze", str(path)]) == 2

    def test_bad_terminals(self, tmp_path, capsys):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b"],
            "edges": [["a", "b", 1]],
            "source": "a",
            "sinks": ["zz"],
        }))
        assert main(["analyze", str(path)]) == 2


# Runs under ``python -O``, which strips asserts: the certificate checks must
# still refuse a result whose verifier (replaced here by one that always
# fails) rejects it.
_FAILING_VERIFIER = """
import sys
from mcastcap import cli
if not sys.flags.optimize:
    sys.exit("not running under -O")
setattr(cli, sys.argv[1], lambda *args: False)
sys.exit(cli.main(sys.argv[2:]))
"""


class TestCertificateChecks:
    @pytest.mark.parametrize("verifier, command", [
        ("verify_packing", "analyze"),
        ("verify_packing", "pack"),
        ("verify_partition", "analyze"),
        ("verify_partition", "strength"),
    ])
    def test_checks_survive_optimize(self, cycle_file, verifier, command):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _FAILING_VERIFIER, verifier, command, cycle_file],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 4, proc.stderr
        assert "certificate failure" in proc.stderr
