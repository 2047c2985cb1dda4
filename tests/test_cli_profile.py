"""Tests for ``repro profile`` and the clean missing-file error paths."""

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


QN_PARAMS = ["--param", "srcName=v0", "--param", "tgtName=v6"]


class TestProfile:
    def test_text_output(self, capsys, diamond_json, qn_file):
        code = main(["profile", qn_file, "--graph", diamond_json] + QN_PARAMS)
        out = capsys.readouterr().out
        assert code == 0
        assert "PROFILE Qn" in out
        assert "engine=counting/all-shortest-paths" in out
        assert "block.acc_executions" in out
        assert "sdmc.product_states" in out
        # the hop line carries the 2^6 multiplicity annotation
        assert "multiplicity_out=64" in out

    def test_json_output(self, capsys, diamond_json, qn_file):
        code = main(
            ["profile", qn_file, "--graph", diamond_json, "--format", "json"]
            + QN_PARAMS
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.obs/1"
        assert doc["query"] == "Qn"
        assert doc["counters"]["block.acc_executions"] == 1
        assert doc["counters"]["block.binding_multiplicity"] == 64
        assert [span["name"] for span in doc["spans"]] == ["compile", "query"]

    def test_output_file_written(self, capsys, tmp_path, diamond_json, qn_file):
        trace = tmp_path / "trace.json"
        code = main(
            ["profile", qn_file, "--graph", diamond_json,
             "--output", str(trace)] + QN_PARAMS
        )
        assert code == 0
        # text still goes to stdout, trace to the file
        assert "PROFILE Qn" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        assert doc["schema"] == "repro.obs/1"
        assert doc["counters"]["sdmc.calls"] == 1

    def test_enumeration_engine(self, capsys, diamond_json, qn_file):
        code = main(
            ["profile", qn_file, "--graph", diamond_json, "--engine", "nre"]
            + QN_PARAMS
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine=enumeration/no-repeated-edge" in out
        assert "enum.paths_emitted" in out


class TestMissingFileErrors:
    """Unreadable query files exit 1 with one clean line — no traceback."""

    def check(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert "No such file or directory" in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_explain_missing_file(self, capsys):
        self.check(capsys, ["explain", "/nonexistent/query.gsql"])

    def test_profile_missing_file(self, capsys, diamond_json):
        self.check(
            capsys,
            ["profile", "/nonexistent/query.gsql", "--graph", diamond_json],
        )

    def test_run_missing_file(self, capsys, diamond_json):
        self.check(
            capsys, ["run", "/nonexistent/query.gsql", "--graph", diamond_json]
        )

    def test_validate_missing_file(self, capsys):
        self.check(capsys, ["validate", "/nonexistent/query.gsql"])


class TestQueryErrors:
    """A GSQL syntax or compile error exits 1 with one
    ``path:line:col: message`` line — no traceback."""

    SYNTAX = "CREATE QUERY q() {\n  SELECT FROM;\n}\n"
    COMPILE = "CREATE QUERY q() {\n  MapAccum<int> @@m;\n  PRINT @@m;\n}\n"

    def check(self, capsys, tmp_path, argv, text, want):
        path = tmp_path / "q.gsql"
        path.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], str(path)] + argv[1:])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.err == f"{path}{want}\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["run", "explain", "profile", "validate"])
    def test_syntax_error(self, capsys, tmp_path, diamond_json, command):
        argv = [command] + (["--graph", diamond_json] if command in ("run", "profile") else [])
        self.check(
            capsys, tmp_path, argv, self.SYNTAX,
            ":2:10: expected an expression (found 'FROM')",
        )

    def test_compile_error(self, capsys, tmp_path, diamond_json):
        self.check(
            capsys, tmp_path, ["run", "--graph", diamond_json], self.COMPILE,
            ": MapAccum takes <KeyType, ValueType>",
        )

    RUNTIME = (
        "CREATE QUERY q() {\n"
        "  S = SELECT p FROM Customer:c -(Bought>)- Product:p WHERE p.weight < 3;\n"
        "  PRINT S;\n"
        "}\n"
    )
    ACCUMULATOR = (
        "CREATE QUERY q() {\n"
        "  MapAccum<int, int> @@m;\n"
        "  S = SELECT c FROM Customer:c ACCUM @@m += (1, 2 -> 3);\n"
        "  PRINT @@m;\n"
        "}\n"
    )

    @pytest.fixture
    def sales_json(self, tmp_path):
        path = tmp_path / "sales.json"
        save_graph_json(builders.sales_graph(), path)
        return str(path)

    @pytest.mark.parametrize("command", ["run", "profile"])
    @pytest.mark.parametrize("text, message", [
        (RUNTIME, "Vertex(Product:p0) has no attribute 'weight'"),
        (ACCUMULATOR, "MapAccum input must be a one-key, one-value arrow "
                      "(key -> value), got 2 key(s) and 1 value(s)"),
    ], ids=["missing-attribute", "accumulator-input"])
    def test_runtime_error(self, capsys, tmp_path, sales_json, command, text, message):
        """An error the query raises while it runs exits 4
        (query-runtime-error) with one ``path: message`` line."""
        path = tmp_path / "q.gsql"
        path.write_text(text)
        code = main([command, str(path), "--graph", sales_json])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == f"{path}: {message}\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""
