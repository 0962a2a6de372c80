"""End-to-end acceptance checks.

Each test prints one ``[acceptance] criterion N ...: PASS/FAIL`` line (run
pytest with ``-s`` to see them as they happen) and then asserts, so a FAIL
line always comes with a failing test.  Every word poset built along the
way is pooled; the final criterion re-validates the whole pool against the
structural conditions.

The stretch check for the 9-wire sorting-network count runs by default and
takes about 10 s.
"""

import time

import pytest

from oracles import random_trace_corpus
from wordposets import (
    CommutationAlphabet,
    CoxeterGraph,
    bound_check,
    build_word_poset,
    canonical_word,
    count_class,
    count_classes,
    count_reduced_words,
    enumerate_linear_extensions,
    iter_elements,
    limit_lower_bound,
    oracle_enumerate_class,
    oracle_reduced,
    p_n,
    p_sequence,
    search_M,
    validate,
    wp_set,
)

S4 = CoxeterGraph.type_a(3)
S5 = CoxeterGraph.type_a(4)
B3 = CoxeterGraph(3, [(1, 2, 3), (2, 3, 4)])
H3 = CoxeterGraph(3, [(1, 2, 3), (2, 3, 5)])

# every poset constructed while the criteria run, re-validated at the end
_POOL = []


def _pool_wp_sets(graph, words):
    alphabet = CommutationAlphabet.from_coxeter(graph)
    for word in words:
        for poset in wp_set(graph, word):
            _POOL.append((poset, alphabet))


def _report(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_sorting_network_sequence():
    start = time.monotonic()
    seq = p_sequence(8)
    elapsed = time.monotonic() - start
    expected = [1, 1, 2, 8, 62, 908, 24698, 1232944]
    _report("criterion 1 (sorting-network counts through 8 wires)",
            seq == expected and elapsed <= 300,
            f"got {seq} in {elapsed:.1f}s")


def test_criterion_1_stretch_nine_wires():
    value = p_n(9)
    _report("criterion 1 stretch (9-wire count)", value == 112018190,
            f"got {value}")


def test_criterion_2_symmetric_group_oracle_equivalence():
    mismatches = []
    checked = 0
    for graph, words in ((S4, list(iter_elements(S4))),
                         (S5, [w for w in iter_elements(S5) if len(w) <= 8])):
        _pool_wp_sets(graph, words)
        for word in words:
            checked += 1
            oracle_words, oracle_classes = oracle_reduced(graph, word)
            wps = wp_set(graph, word)
            if count_reduced_words(graph, word) != len(oracle_words):
                mismatches.append(("reduced", word))
            if not (count_classes(graph, word) == oracle_classes == len(wps)):
                mismatches.append(("classes", word))
    _report("criterion 2 (reduced-word and class counts vs closure oracle)",
            not mismatches, f"{checked} elements, {len(mismatches)} mismatches")


def test_criterion_3_recursion_vs_construction():
    mismatches = []
    checked = 0
    for graph in (S4, B3):
        words = list(iter_elements(graph))
        _pool_wp_sets(graph, words)
        for word in words:
            checked += 1
            if count_classes(graph, word) != len(wp_set(graph, word)):
                mismatches.append(word)
    _report("criterion 3 (inclusion-exclusion vs direct poset construction)",
            not mismatches, f"{checked} elements, {len(mismatches)} mismatches")


def test_criterion_4_class_count_bound():
    violations = []
    checked = 0
    for graph in (S4, S5, B3, H3):
        for word in iter_elements(graph):
            if not word:
                continue
            checked += 1
            if not bound_check(graph, word):
                violations.append(word)
    _report("criterion 4 (class-count bound on four groups)",
            not violations, f"{checked} elements, {len(violations)} violations")


def test_criterion_5_max_classes_search():
    start = time.monotonic()
    values = []
    for k in range(7):
        result = search_M(k, labels={2, 3, float("inf")}, max_rank=k)
        values.append(result.value)
        if result.word:
            _pool_wp_sets(result.graph, [result.word])
    elapsed = time.monotonic() - start
    expected = [1, 1, 1, 2, 2, 3, 8]
    _report("criterion 5 (largest class count per length, 0..6)",
            values == expected and elapsed <= 600,
            f"got {values} in {elapsed:.1f}s")


def test_criterion_6_random_trace_suite():
    mismatches = 0
    for word, alphabet in random_trace_corpus(200):
        poset = build_word_poset(word, alphabet)
        _POOL.append((poset, alphabet))
        cls = oracle_enumerate_class(word, alphabet)
        if count_class(word, alphabet) != len(cls):
            mismatches += 1
        if set(enumerate_linear_extensions(poset, alphabet)) != cls:
            mismatches += 1
    _report("criterion 6 (200 random trace instances vs swap closure)",
            mismatches == 0, f"{mismatches} mismatches")


def test_criterion_7_worked_example():
    alphabet = CommutationAlphabet(
        "abcd", [("a", "b"), ("c", "d"), ("a", "d")])
    poset = build_word_poset("abcd", alphabet)
    _POOL.append((poset, alphabet))
    covers = {(poset.labels[x], poset.labels[y]) for x, y in poset.covers()}
    size = count_class("abcd", alphabet)
    oracle = len(oracle_enumerate_class("abcd", alphabet))
    ok = covers == {("a", "c"), ("b", "c"), ("b", "d")} and size == 5 == oracle
    _report("criterion 7 (four-letter worked example)", ok,
            f"covers {sorted(covers)}, size {size}, oracle {oracle}")


def test_criterion_8_growth_rate_arithmetic():
    value = limit_lower_bound(12, 2894710651370536)
    _report("criterion 8 (growth-rate lower bound from 12 wires)",
            abs(value - 0.53941) <= 1e-4, f"got {value:.6f}")


def test_criterion_9_every_poset_validates():
    if not _POOL:
        pytest.skip("needs the earlier criteria to run in the same session")
    bad = 0
    for poset, alphabet in _POOL:
        if validate(poset, alphabet):
            bad += 1
    # canonical words must also be stable under rebuild, a cheap sanity pass
    for poset, alphabet in _POOL[:50]:
        word = canonical_word(poset, alphabet)
        rebuilt = build_word_poset(word, alphabet)
        assert canonical_word(rebuilt, alphabet) == word
    _report("criterion 9 (structural validation of every pooled poset)",
            bad == 0, f"{len(_POOL)} posets, {bad} invalid")
