import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from wordposets import INFINITY, CoxeterGraph, cli, iter_elements, oracle_reduced, wp_set


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


def test_search_mk_empty_label_set_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["search-mk", "--k", "3", "--labels", ","])
    assert (code, out, err) == (1, "", "error: --labels must name at least one label\n")


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


def test_check_names_every_class_count_route(files, capsys, monkeypatch):
    monkeypatch.setattr("wordposets.reduced.count_classes",
                        lambda graph, word, **kw: 999)
    code, out, _ = run(capsys, ["check", "--graph", files["a2.cox"],
                                "--word", "1 2 1"])
    assert code == 3
    assert "class-count: FAIL (recursion 999, oracle 2, posets 2)\n" in out


def test_check_compares_the_reduced_word_fold(files, capsys, monkeypatch):
    monkeypatch.setattr("wordposets.reduced.count_reduced_words",
                        lambda graph, word, **kw: 999)
    code, out, _ = run(capsys, ["check", "--graph", files["a2.cox"],
                                "--word", "1 2 1"])
    assert code == 3
    assert "reduced-count: FAIL (recursion 999, poset route 2, oracle 2)" in out


def test_check_bound_fail_keeps_exit_0(files, capsys, monkeypatch):
    # the bound is an observed check, not an oracle: with every counting
    # route agreeing on C = 2 for the one-letter word, 9 * 4 > 4 * 3 prints
    # FAIL but the counts are consistent, so the exit code stays 0
    from wordposets.poset import WordPoset
    monkeypatch.setattr("wordposets.reduced.wp_set",
                        lambda graph, word, **kw: [WordPoset.from_covers(("1",), [])] * 2)
    monkeypatch.setattr("wordposets.reduced.count_reduced_words", lambda graph, word, **kw: 2)
    monkeypatch.setattr("wordposets.reduced.count_classes", lambda graph, word, **kw: 2)
    monkeypatch.setattr("wordposets.reduced.oracle_reduced",
                        lambda graph, word, **kw: ({(1,), (2,)}, 2))
    code, out, _ = run(capsys, ["check", "--graph", files["a2.cox"], "--word", "1"])
    assert code == 0
    assert out == "reduced-count: PASS (2)\nclass-count: PASS (2)\nbound: FAIL\n"


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


# nested past the JSON decoder's recursion limit
DEEP_JSON = '{"rank": 2, "edges": ' + "[" * 10**4 + "]" * 10**4 + "}"


@pytest.mark.parametrize("text,argv", [
    ('{"rank": 3, "edges": 5}', ["count-classes", "--word", "1", "--graph"]),
    ('{"rank": 3, "edges": null}', ["count-classes", "--word", "1", "--graph"]),
    ("generators: 2\nedge: 1 3 3\n", ["count-classes", "--word", "1", "--graph"]),
    ("commute: a b\nsymbols: a b\n", ["trace-count", "--word", "ab", "--alphabet"]),
    (None, ["search-mk", "--k", "3", "--labels", "3,x"]),
    (DEEP_JSON, ["count-classes", "--word", "1", "--graph"]),
], ids=["json-edges-5", "json-edges-null", "edge-out-of-range", "commute-before-symbols",
        "bad-label", "json-nested-too-deep"])
def test_malformed_input_ends_with_error_line(tmp_path, capsys, text, argv):
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = argv + [str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_count_reduced_has_no_position_cap(files, capsys):
    word = " ".join(["1", "2"] * 33)  # 66 letters, reduced, past the poset cap
    code, out, _ = run(capsys, ["count-reduced", "--graph", files["inf2.cox"],
                                "--word", word])
    assert (code, out) == (0, "1\n")


def test_position_cap_applies_only_where_posets_are_built(tmp_path, capsys):
    # in I2(inf) x A1 the infinite dihedral part of (1 2)^k 3 has one reduced
    # word and 3 commutes with both letters, so 3 may sit in any of the
    # 2k + 1 places: 2k + 1 reduced words in one commutation class
    graph = tmp_path / "inf2a1.cox"
    graph.write_text("generators: 3\nedge: 1 2 inf\n")
    short, long = "1 2 " * 3 + "3", "1 2 " * 33 + "3"
    words, classes = oracle_reduced(CoxeterGraph(3, [(1, 2, INFINITY)]), (1, 2) * 3 + (3,))
    assert (len(words), classes) == (7, 1)
    for word, count in ((short, "7\n"), (long, "67\n")):
        assert run(capsys, ["count-reduced", "--graph", str(graph), "--word", word]) == (0, count, "")
        assert run(capsys, ["count-classes", "--graph", str(graph), "--word", word]) == (0, "1\n", "")
    code, out, err = run(capsys, ["enum-classes", "--graph", str(graph), "--word", long])
    assert (code, out) == (2, "")
    assert err == "error: word has 67 letters, position cap is 64\n"


def test_enum_classes_lines_are_the_posets_of_wp_set(tmp_path, capsys):
    # the least word of each class printed by enum-classes, handed back to
    # poset, gives the class poset that wp_set holds under that word
    graph = tmp_path / "h3.cox"
    graph.write_text("generators: 3\nedge: 1 2 5\nedge: 2 3 3\n")
    h3 = CoxeterGraph(3, [(1, 2, 5), (2, 3, 3)])
    w0 = list(iter_elements(h3))[-1]
    posets = wp_set(h3, w0).posets
    code, out, _ = run(capsys, ["enum-classes", "--graph", str(graph), "--word", " ".join(map(str, w0))])
    assert code == 0 and len(out.splitlines()) == len(posets) == 44
    for line in out.splitlines():
        code, doc, _ = run(capsys, ["poset", "--graph", str(graph), "--word", line, "--format", "json"])
        key = tuple(map(int, line.split()))
        assert (code, json.loads(doc)) == (0, posets[key].to_json_dict())


def test_enum_classes_builds_no_posets(tmp_path, capsys, monkeypatch):
    # enum-classes prints least words only, so it lists H3's 44 classes
    # with the poset builder out of reach
    graph = tmp_path / "h3.cox"
    graph.write_text("generators: 3\nedge: 1 2 5\nedge: 2 3 3\n")
    w0 = " ".join(map(str, list(iter_elements(CoxeterGraph(3, [(1, 2, 5), (2, 3, 3)])))[-1]))
    argv = ["enum-classes", "--graph", str(graph), "--word", w0]
    code, expected, _ = run(capsys, argv)

    def refuse(*args, **kwargs):
        raise AssertionError("enum-classes built a poset")
    monkeypatch.setattr("wordposets.reduced.build_word_poset", refuse)
    assert run(capsys, argv) == (0, expected, "")
    assert code == 0 and len(expected.splitlines()) == 44


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


# (1 2 3)^15 in the graph m(1,2) = 5, m(2,3) = inf has one commutation class
# (1 and 3 commute, so its least word turns each 3 1 into 1 3) and 2^14
# reduced words, since each adjacent 3 1 may swap on its own
MISREAD_SIGN_ANSWERS = {
    "count-classes": "1\n",
    "count-reduced": "16384\n",
    "enum-classes": "1 2" + " 1 3 2" * 14 + " 3\n",
    "check": "reduced-count: PASS (16384)\nclass-count: PASS (1)\nbound: PASS\n",
}


@pytest.mark.parametrize("command", ["count-classes", "count-reduced", "enum-classes", "check"])
def test_misread_sign_ends_with_error_line(tmp_path, capsys, command):
    # float coordinates of (1 2 3)^15 were too coarse to read every descent;
    # on the exact state every command answers, with no error line
    graph = tmp_path / "h5inf.cox"
    graph.write_text("generators: 3\nedge: 1 2 5\nedge: 2 3 inf\n")
    code, out, err = run(capsys, [command, "--graph", str(graph),
                                  "--word", " ".join(["1 2 3"] * 15)])
    assert (code, out, err) == (0, MISREAD_SIGN_ANSWERS[command], "")


def test_large_labels_count_or_hit_the_ring_cap(tmp_path, capsys):
    # labels 7, 11 and 13 put the state in a cyclotomic ring of degree 720;
    # no braid move fits in six letters, so the word's class is all of its
    # reduced words.  The 4-cycle with labels 5, 7, 8 and 9 has lcm 2520,
    # MAX_RING_LCM itself; past it the graph is refused as a budget.
    graph = tmp_path / "g.cox"
    for edges in ["edge: 1 2 7\nedge: 2 3 11\nedge: 3 4 13\n",
                  "edge: 1 2 5\nedge: 2 3 7\nedge: 3 4 8\nedge: 1 4 9\n"]:
        graph.write_text("generators: 4\n" + edges)
        assert run(capsys, ["count-classes", "--graph", str(graph),
                            "--word", "1 2 3 4 3 2"]) == (0, "1\n", "")
    graph.write_text("generators: 2\nedge: 1 2 2521\n")
    code, out, err = run(capsys, ["count-classes", "--graph", str(graph), "--word", "1 2"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "cap is 2520" in err


@pytest.mark.parametrize("rank", [2 ** 70, 1025])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_rank_past_the_cap_is_a_budget_error(tmp_path, capsys, rank, fmt):
    # the rank is refused before any rank x rank matrix is allocated
    graph = tmp_path / "big.cox"
    graph.write_text(json.dumps({"rank": rank}) if fmt == "json" else f"generators: {rank}\n")
    code, out, err = run(capsys, ["count-classes", "--graph", str(graph), "--word", "1 2"])
    assert (code, out) == (2, "")
    assert err == f"error: graph has rank {rank}, rank cap is 1024\n"
    assert "Traceback" not in err


def test_rank_at_the_cap_answers_without_a_traceback(tmp_path, capsys):
    # every generator of an edgeless rank-1024 graph commutes with every
    # other, but the word 1 has support {1}, so the class count's window
    # is sized by one letter, not searched over 1024
    graph = tmp_path / "edgeless.cox"
    graph.write_text("generators: 1024\n")
    argv = ["--graph", str(graph), "--word", "1"]
    assert run(capsys, ["count-classes", *argv]) == (0, "1\n", "")
    assert run(capsys, ["check", *argv]) == (
        0, "reduced-count: PASS (1)\nclass-count: PASS (1)\nbound: PASS\n", "")


def test_count_reduced_builds_no_posets(tmp_path, capsys, monkeypatch):
    # (1 2 3 4)^15 is H4's longest element, c^(h/2) for the Coxeter number
    # h = 30.  A regression pin of the descent fold's answer: no independent
    # value of H4's reduced-word count is available offline to check it
    # against.  The fold needs neither word posets nor their extensions.
    def refuse(*args, **kwargs):
        raise AssertionError("count-reduced built a word poset")
    monkeypatch.setattr("wordposets.reduced.wp_set", refuse)
    monkeypatch.setattr("wordposets.reduced.adjoin_min", refuse)
    graph = tmp_path / "h4.cox"
    graph.write_text("generators: 4\nedge: 1 2 5\nedge: 2 3 3\nedge: 3 4 3\n")
    assert run(capsys, ["count-reduced", "--graph", str(graph), "--word",
                        " ".join(["1 2 3 4"] * 15)]) == (0, "1852659333124308\n", "")


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


def test_installed_entry_point_runs_main(tmp_path):
    # ``python -m wordposets.cli`` calls ``cli.main``, the installed script
    src = str(pathlib.Path(cli.__file__).parents[1])
    graph = tmp_path / "inf2a1.cox"
    graph.write_text("generators: 3\nedge: 1 2 inf\n")

    def main(*argv):
        proc = subprocess.run([sys.executable, "-m", "wordposets.cli", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        return proc.returncode, proc.stdout, proc.stderr
    assert main("pn", "--n", "5") == (0, "62\n", "")
    code, out, err = main("count-classes", "--graph", str(tmp_path / "missing.cox"), "--word", "1")
    assert (code, out) == (1, "") and err.startswith("error: ")
    code, out, err = main("enum-classes", "--graph", str(graph), "--word", "1 2 " * 33 + "3")
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_parser_is_not_built_at_import():
    code = "from wordposets import cli, networks; print(cli._parser.cache_info().misses)"
    assert _python(code) == (0, "0\n", "")


# (1 2 3 4)^15 is the longest element of H4, c^(h/2) for the Coxeter number h = 30
H4_W0 = " ".join(["1 2 3 4"] * 15)


# About 2.5-3 s each on a 2-core VM, at about 380 MB peak RSS
@pytest.mark.parametrize("command", ["check", "enum-classes"])
def test_longest_element_of_h4_stops_at_the_word_cap(tmp_path, command):
    # 60 letters, within the position cap, and 105,516,880 classes: the
    # listing counts the class words it holds against the memo cap, so it
    # stops with one error line under 2 GB of address space (set in the
    # child alone), not with a MemoryError
    resource = pytest.importorskip("resource")
    graph = tmp_path / "h4.cox"
    graph.write_text("generators: 4\nedge: 1 2 5\nedge: 2 3 3\nedge: 3 4 3\n")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    code = f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {hard})); {RUN_ALONE}"
    assert _python(code, command, "--graph", str(graph), "--word", H4_W0) == (
        2, "", "error: word-poset memo exceeds 1000000 entries\n")
