"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph import builders
from repro.graph.io import save_graph_json


@pytest.fixture
def diamond_json(tmp_path):
    path = tmp_path / "diamond.json"
    save_graph_json(builders.diamond_chain(6), path)
    return str(path)


@pytest.fixture
def qn_file(tmp_path):
    path = tmp_path / "qn.gsql"
    path.write_text("""
CREATE QUERY Qn(string srcName, string tgtName) {
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
}
""")
    return str(path)


class TestRun:
    def test_run_counting(self, capsys, diamond_json, qn_file):
        code = main(
            [
                "run",
                qn_file,
                "--graph",
                diamond_json,
                "--param",
                "srcName=v0",
                "--param",
                "tgtName=v6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "'pathCount': 64" in out

    def test_run_enumeration_engine(self, capsys, diamond_json, qn_file):
        code = main(
            [
                "run",
                qn_file,
                "--graph",
                diamond_json,
                "--engine",
                "nre",
                "--param",
                "srcName=v0",
                "--param",
                "tgtName=v4",
            ]
        )
        assert code == 0
        assert "'pathCount': 16" in capsys.readouterr().out

    def test_param_type_coercion(self):
        from repro.cli import _parse_param

        assert _parse_param("k=5") == ("k", 5)
        assert _parse_param("x=1.5") == ("x", 1.5)
        assert _parse_param("flag=true") == ("flag", True)
        assert _parse_param("name=v0") == ("name", "v0")

    def test_bad_param_rejected(self):
        import argparse

        from repro.cli import _parse_param

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_param("oops")

    def test_engine_choices_are_the_engine_names(self):
        # the CLI lists them without importing the engine
        from repro.cli import _ENGINES
        from repro.core.pattern import EngineMode

        assert _ENGINES == EngineMode.NAMES
        for name in _ENGINES:
            assert isinstance(EngineMode.named(name), EngineMode)
        with pytest.raises(ValueError, match="unknown engine 'warp'"):
            EngineMode.named("warp")


class TestExplain:
    def test_explain_mentions_plan(self, capsys, qn_file):
        assert main(["explain", qn_file]) == 0
        out = capsys.readouterr().out
        assert "QUERY Qn" in out
        assert "tractable" in out
        assert "SDMC" in out
        assert "PUSHDOWN" in out


class TestGenerateAndSemantics:
    def test_generate_snb(self, capsys, tmp_path):
        out_path = tmp_path / "snb.json"
        assert main(["generate-snb", str(out_path), "--scale", "0.05"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["vertices"] > 0
        assert out_path.exists()

    def test_semantics_counting(self, capsys, diamond_json):
        assert main(["semantics", diamond_json, "v0", "E>*"]) == 0
        out = capsys.readouterr().out
        assert "v6\t64" in out

    def test_semantics_trail(self, capsys, diamond_json):
        assert (
            main(
                [
                    "semantics",
                    diamond_json,
                    "v0",
                    "E>*",
                    "--semantics",
                    "no-repeated-edge",
                ]
            )
            == 0
        )
        assert "v6\t64" in capsys.readouterr().out


class TestValidateCommand:
    def test_clean_query(self, capsys, qn_file):
        assert main(["validate", qn_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_broken_query(self, capsys, tmp_path):
        bad = tmp_path / "bad.gsql"
        bad.write_text("CREATE QUERY q() { @@ghost += 1; }")
        assert main(["validate", str(bad)]) == 1
        assert "undeclared-accumulator" in capsys.readouterr().out

    def test_explain_reports_issues(self, capsys, tmp_path):
        bad = tmp_path / "bad.gsql"
        bad.write_text("CREATE QUERY q() { @@ghost += 1; }")
        assert main(["explain", str(bad)]) == 1
        assert "validation issues" in capsys.readouterr().out

    def test_validate_against_graph_types(self, capsys, tmp_path, diamond_json):
        bad = tmp_path / "typo.gsql"
        bad.write_text("""
CREATE QUERY q() {
  S = SELECT t FROM Vertexx:s -(E>*)- V:t;
}""")
        assert main(["validate", str(bad), "--graph", diamond_json]) == 1
        assert "unknown-vertex-type" in capsys.readouterr().out
