import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from wordposets import cli


@pytest.fixture
def files(tmp_path):
    paths = {}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return paths[name]

    put("a2.cox", "generators: 2\nedge: 1 2 3\n")
    put("s4.cox", "generators: 3\nedge: 1 2 3\nedge: 2 3 3\n")
    put("inf2.cox", "generators: 2\nedge: 1 2 inf\n")
    put("bad.cox", "generators: 2\nedge: 1 2\n")
    put("ex.alpha", "symbols: a b c d\ncommute: a b\ncommute: c d\ncommute: a d\n")
    put("a3.json", json.dumps({"rank": 3, "edges": [[1, 2, 3], [2, 3, 3]]}))
    return paths


def run(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_count_classes(files, capsys):
    code, out, _ = run(capsys, ["count-classes", "--graph", files["a2.cox"],
                                "--word", "1 2 1"])
    assert code == 0
    assert out == "2\n"


def test_count_classes_json(files, capsys):
    code, out, _ = run(capsys, ["count-classes", "--graph", files["a2.cox"],
                                "--word", "1 2 1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "count-classes"
    assert doc["value"] == 2
    assert doc["input"]["word"] == [1, 2, 1]


def test_count_reduced(files, capsys):
    code, out, _ = run(capsys, ["count-reduced", "--graph", files["a2.cox"],
                                "--word", "1 2 1"])
    assert code == 0
    assert out == "2\n"


def test_count_reduced_s4_longest(files, capsys):
    code, out, _ = run(capsys, ["count-reduced", "--graph", files["s4.cox"],
                                "--word", "1 2 1 3 2 1"])
    assert code == 0
    assert out == "16\n"


def test_json_graph_file_accepted(files, capsys):
    code, out, _ = run(capsys, ["count-classes", "--graph", files["a3.json"],
                                "--word", "1 2 1 3 2 1"])
    assert code == 0
    assert out == "8\n"


def test_enum_classes(files, capsys):
    code, out, _ = run(capsys, ["enum-classes", "--graph", files["a2.cox"],
                                "--word", "2 1 2"])
    assert code == 0
    assert out == "1 2 1\n2 1 2\n"


def test_trace_count_contiguous_word(files, capsys):
    code, out, _ = run(capsys, ["trace-count", "--alphabet", files["ex.alpha"],
                                "--word", "abcd"])
    assert code == 0
    assert out == "5\n"


def test_trace_count_spaced_word(files, capsys):
    code, out, _ = run(capsys, ["trace-count", "--alphabet", files["ex.alpha"],
                                "--word", "a b c d", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 5
    assert doc["input"]["word"] == ["a", "b", "c", "d"]


def test_poset_text(files, capsys):
    code, out, _ = run(capsys, ["poset", "--graph", files["s4.cox"],
                                "--word", "1 3 2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "elements: 3"
    assert lines[1] == "labels: 1 3 2"
    assert "cover: 0 2" in lines and "cover: 1 2" in lines


def test_poset_json(files, capsys):
    code, out, _ = run(capsys, ["poset", "--graph", files["s4.cox"],
                                "--word", "1 3 2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == ["1", "3", "2"]
    assert sorted(map(tuple, doc["covers"])) == [(0, 2), (1, 2)]


def test_poset_dot(files, capsys):
    code, out, _ = run(capsys, ["poset", "--graph", files["s4.cox"],
                                "--word", "1 3 2", "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph")
    assert "n0 -> n2;" in out


def test_pn(files, capsys):
    code, out, _ = run(capsys, ["pn", "--n", "4"])
    assert code == 0
    assert out == "8\n"


def test_pseq(files, capsys):
    code, out, _ = run(capsys, ["pseq", "--n", "5"])
    assert code == 0
    assert out == "1\n1\n2\n8\n62\n"


def test_pseq_json(files, capsys):
    code, out, _ = run(capsys, ["pseq", "--n", "3", "--json"])
    assert code == 0
    assert json.loads(out)["value"] == [1, 1, 2]


def test_limit_bound_with_pm(files, capsys):
    code, out, _ = run(capsys, ["limit-bound", "--m", "12",
                                "--pm", "2894710651370536"])
    assert code == 0
    assert out == "0.539419\n"


def test_limit_bound_computes_pm_when_absent(files, capsys):
    code, out, _ = run(capsys, ["limit-bound", "--m", "5"])
    assert code == 0
    assert float(out) == pytest.approx(math.log(62) / 10, abs=1e-6)


def test_limit_bound_json_reports_pm(files, capsys):
    code, out, _ = run(capsys, ["limit-bound", "--m", "5", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["pm"] == 62


def test_search_mk(files, capsys):
    code, out, _ = run(capsys, ["search-mk", "--k", "5"])
    assert code == 0
    assert out == "3\n"


def test_search_mk_json_witness(files, capsys):
    code, out, _ = run(capsys, ["search-mk", "--k", "4", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 2
    assert len(doc["witness_word"]) == 4
    assert set(doc["witness_graph"]) == {"rank", "edges"}


def test_search_mk_labels_flag(files, capsys):
    code, out, _ = run(capsys, ["search-mk", "--k", "3", "--labels", "2",
                                "--max-rank", "3"])
    assert code == 0
    assert out == "1\n"


def test_check_passes(files, capsys):
    code, out, _ = run(capsys, ["check", "--graph", files["a2.cox"],
                                "--word", "1 2 1"])
    assert code == 0
    assert "reduced-count: PASS (2)" in out
    assert "class-count: PASS (2)" in out
    assert "bound: PASS" in out


def test_check_identity_skips_bound(files, capsys):
    code, out, _ = run(capsys, ["check", "--graph", files["a2.cox"],
                                "--word", ""])
    assert code == 0
    assert "bound: SKIP (identity)" in out


def test_check_exits_3_on_mismatch(files, capsys, monkeypatch):
    monkeypatch.setattr("wordposets.reduced.count_classes",
                        lambda graph, word, **kw: 999)
    code, out, _ = run(capsys, ["check", "--graph", files["a2.cox"],
                                "--word", "1 2 1"])
    assert code == 3
    assert "class-count: FAIL" in out


# ------------------------------------------------------------- exit codes

def test_usage_error_no_command(capsys):
    code, _, err = run(capsys, [])
    assert code == 1
    assert "error" in err.lower()


def test_usage_error_unknown_command(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1


def test_usage_error_missing_flag(files, capsys):
    code, _, err = run(capsys, ["count-classes", "--graph", files["a2.cox"]])
    assert code == 1


def test_missing_file(capsys):
    code, _, err = run(capsys, ["count-classes", "--graph", "/no/such.cox",
                                "--word", "1"])
    assert code == 1
    assert "cannot read" in err


def test_bad_graph_file(files, capsys):
    code, _, err = run(capsys, ["count-classes", "--graph", files["bad.cox"],
                                "--word", "1"])
    assert code == 1
    assert "line 2" in err


def test_bad_word(files, capsys):
    code, _, err = run(capsys, ["count-classes", "--graph", files["a2.cox"],
                                "--word", "1 2 x"])
    assert code == 1


def test_letter_out_of_range(files, capsys):
    code, _, err = run(capsys, ["count-classes", "--graph", files["a2.cox"],
                                "--word", "1 2 5"])
    assert code == 1


def test_non_reduced_word_reports_prefix(files, capsys):
    code, _, err = run(capsys, ["count-classes", "--graph", files["a2.cox"],
                                "--word", "2 2 1"])
    assert code == 1
    assert "offending prefix [2, 2]" in err


def test_budget_exit_code_count_reduced(files, capsys):
    word = " ".join(["1", "2"] * 33)  # 66 letters, reduced, over the cap
    code, _, err = run(capsys, ["count-reduced", "--graph", files["inf2.cox"],
                                "--word", word])
    assert code == 2


def test_budget_exit_code_trace(files, tmp_path, capsys):
    alpha = tmp_path / "one.alpha"
    alpha.write_text("symbols: a\n")
    code, _, err = run(capsys, ["trace-count", "--alphabet", str(alpha),
                                "--word", "a" * 80])
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "count-classes" in out


# ------------------------------------------------------ long-word probes

# (1 2)^1500 is reduced in the rank-2 group with label inf; every prefix has
# a single left descent, so the descent recursion is 3000 levels deep.
LONG_ALTERNATION = " ".join(["1", "2"] * 1500)


def test_count_classes_long_word_has_no_depth_limit(files, capsys):
    code, out, err = run(capsys, ["count-classes", "--graph", files["inf2.cox"],
                                  "--word", LONG_ALTERNATION])
    assert code == 0
    assert out == "1\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["count-classes", "count-reduced", "enum-classes", "check"])
def test_misread_sign_ends_with_error_line(tmp_path, capsys, command):
    # float coordinates of (1 2 3)^15 are too coarse to read every descent;
    # the run must refuse with exit 1, not answer or raise a traceback
    graph = tmp_path / "h5inf.cox"
    graph.write_text("generators: 3\nedge: 1 2 5\nedge: 2 3 inf\n")
    code, out, err = run(capsys, [command, "--graph", str(graph),
                                  "--word", " ".join(["1 2 3"] * 15)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_enum_classes_long_word_hits_poset_budget(files, capsys):
    code, out, err = run(capsys, ["enum-classes", "--graph", files["inf2.cox"],
                                  "--word", LONG_ALTERNATION])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cap is 64" in err
    assert "Traceback" not in err


# ------------------------------------------------ many calls, one process

def _python(code, *argv):
    """Exit code, stdout and stderr of ``code`` run in a fresh interpreter."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    return proc.returncode, proc.stdout, proc.stderr


RUN_ALONE = "import sys; from wordposets import cli; sys.exit(cli.run(sys.argv[1:]))"


def test_calls_in_one_process_match_calls_alone(files, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    sequence = [
        ["count-classes", "--graph", files["a2.cox"], "--word", "1 2 1", "--json"],
        ["count-classes", "--graph", files["a2.cox"], "--word", "1 2 1"],
        ["poset", "--graph", files["s4.cox"], "--word", "1 3 2", "--format", "dot"],
        ["poset", "--graph", files["s4.cox"], "--word", "1 3 2"],
        ["search-mk", "--k", "3", "--labels", "2", "--max-rank", "3"],
        ["search-mk", "--k", "3"],
        ["--help"],
    ]
    alone = [_python(RUN_ALONE, *argv) for argv in sequence]
    cli._parser.cache_clear()
    together = [run(capsys, argv) for argv in sequence]
    assert together == alone
    assert cli._parser.cache_info().misses == 1


def test_parser_is_not_built_at_import():
    code = "from wordposets import cli, networks; print(cli._parser.cache_info().misses)"
    assert _python(code) == (0, "0\n", "")
