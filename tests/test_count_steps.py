"""The class count's subset plan by size, the window's leaf reduction, and
graph costs that scale with the edges: commuting bit sets, state rows, a
Cartan matrix built only when read, involutions held by the graph, and
element queries that step their word once."""

import gc
import itertools
import math
import random
import time
import weakref

import pytest

from oracles import least_word_class_count, random_coxeter_graph
from wordposets import (
    CommutationAlphabet,
    CoxeterGraph,
    NotReducedError,
    canonical_form,
    count_classes,
    iter_elements,
    left_descents,
    multiply_left,
    search_M,
    w0_word,
)
from wordposets import coxeter, reduced

S6 = CoxeterGraph.type_a(5)
B4 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (3, 4, 4)])
D5 = CoxeterGraph(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)])
F4 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 4), (3, 4, 3)])
H3 = CoxeterGraph(3, [(1, 2, 5), (2, 3, 3)])
AFFINE_A3 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (1, 4, 3)])
AFFINE_A4 = CoxeterGraph(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (1, 5, 3)])
STAR = CoxeterGraph(6, [(1, leaf, 3) for leaf in range(2, 7)])


def _listed(graph, descents):
    # the subsets of two or more letters, in the order the count step reads
    # their codes; each larger one from the index of the subset it extends
    pairs, more = reduced._by_size(graph, descents)
    assert tuple(a for a, _seconds in pairs) == descents
    listed = [(a, x) for a, seconds in pairs for x in seconds]
    for d, sign, steps in more:
        assert sign == (-1) ** (1 - d)
        for j, a in steps:
            assert j < len(listed) and len(listed[j]) == -d - 1 and a > listed[j][-1]
            listed.append(listed[j] + (a,))
    return listed


@pytest.mark.parametrize("graph", [S6, D5, AFFINE_A4, STAR],
                         ids=["S6", "D5", "affine-A4", "star"])
def test_plan_by_size_lists_each_commuting_subset_once(graph):
    # every subset of the generators, so every descent tuple and more: the
    # plan holds each pairwise-commuting T of two or more letters once
    gens = tuple(graph.generators)
    for size in range(1, len(gens) + 1):
        for descents in itertools.combinations(gens, size):
            listed = _listed(graph, descents)
            assert len(set(listed)) == len(listed)
            assert set(listed) == {
                t for k in range(2, size + 1) for t in itertools.combinations(descents, k)
                if all(graph.commutes(a, b) for a, b in itertools.combinations(t, 2))}


def test_plans_are_grouped_once_per_descent_tuple():
    # the count fills its shared plan lazily, one grouped entry per tuple met
    plans = reduced._count_plan(S6.commuting)[0]
    assert count_classes(S6, w0_word(6)) == 908
    assert plans and all(plan == reduced._by_size(S6, ds) for ds, plan in plans.items())


# The counts and the least-word oracle take about 1.8 s together (2-core VM);
# H3 is in test_reduced.py::test_least_word_oracle_matches_class_counts.
@pytest.mark.parametrize("graph, max_length", [
    (B4, None), (D5, None), (F4, None), (AFFINE_A3, 10)],
    ids=["B4", "D5", "F4", "affine-A3-upto-10"])
def test_counts_by_size_match_least_words(graph, max_length):
    # D5 reaches the steps past the pairs: 1, 4 and 5 pairwise commute
    for word in iter_elements(graph, max_length):
        assert count_classes(graph, word) == least_word_class_count(graph, word)


def test_window_of_a_shuffled_path_needs_no_search():
    # a path's leaves are taken one by one, in any numbering: 100 generators
    # in a seeded shuffled order have 50 pairwise commuting, found at once
    order = list(range(1, 101))
    random.Random(0).shuffle(order)
    graph = CoxeterGraph(100, [(a, b, 3) for a, b in zip(order, order[1:])])
    start = time.perf_counter()
    assert reduced._count_plan(graph.commuting)[1] == 50
    assert time.perf_counter() - start < 2
    assert reduced._count_plan(STAR.commuting)[1] == 5


def test_a_count_keeps_no_reference_to_its_graph():
    # the involutions are kept by the graph's rank and edges, not by the
    # graph: an equal graph shares them, and the graph itself can go
    graph = CoxeterGraph.type_a(3)
    assert count_classes(graph, (1,)) == 1
    assert reduced._involutions(graph) is reduced._involutions(CoxeterGraph.type_a(3))
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("graph", [
    CoxeterGraph(1024, [(1, 2, 3), (2, 1024, 4), (500, 7, 6), (3, 9, float("inf"))]),
    B4, D5, F4, AFFINE_A4, STAR], ids=["rank-1024", "B4", "D5", "F4", "affine-A4", "star"])
def test_state_rows_hold_only_the_edges(graph):
    # with integer labels a state row negates y_a and subtracts the Cartan
    # entry A[a][j] y_a from each y_j of an edge; a label-2 pair adds nothing
    cartan = graph.cartan
    for a, row in enumerate(graph.state_rows):
        assert row == ((a, a, 2),) + tuple((j, a, c) for j, c in enumerate(cartan[a]) if c and j != a)


@pytest.mark.parametrize("graph, word", [
    (S6, w0_word(6)), (H3, max(iter_elements(H3), key=len)), (AFFINE_A3, (1, 2, 3, 4, 1, 2))],
    ids=["S6", "H3", "affine-A3"])
def test_element_queries_step_their_word_once(graph, word, monkeypatch):
    # the state of w is stepped once, checking reducedness right to left;
    # canonical_form then reads the least word off it
    calls = []
    step_state = coxeter.step_state
    monkeypatch.setattr(coxeter, "step_state", lambda *args: calls.append(1) or step_state(*args))
    canonical_form(graph, word)
    assert len(calls) == 2 * len(word)
    calls.clear()
    left_descents(graph, word)
    assert len(calls) == len(word)


def test_unreduced_words_name_the_shortest_prefix():
    # the right-to-left check meets the 2 2 of 1 2 2 1 from the end; the
    # message still names the shortest prefix that is not reduced
    for query in (canonical_form, left_descents, lambda graph, word: multiply_left(graph, 1, word)):
        with pytest.raises(NotReducedError, match=r"offending prefix \[1, 2, 2\]$"):
            query(S6, (1, 2, 2, 1))
        with pytest.raises(NotReducedError, match=r"offending prefix \[3, 1, 3\]$"):
            query(S6, (3, 1, 3, 2))


def test_window_of_a_shuffled_rank_1024_path_is_planned_in_linear_time():
    # a struck rival's other foes are looked at again, not every generator:
    # 1024 generators in a seeded shuffled order have 512 pairwise commuting
    order = list(range(1, 1025))
    random.Random(0).shuffle(order)
    graph = CoxeterGraph(1024, [(a, b, 3) for a, b in zip(order, order[1:])])
    start = time.perf_counter()
    assert reduced._count_plan(graph.commuting)[1] == 512
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("rank, edges, word, max_length", [
    (4, [(1, 2, 3), (2, 3, 3), (3, 4, 3)], w0_word(5), None),
    (3, [(1, 2, 5), (2, 3, 3)], (1, 2, 3) * 5, None),
    (4, [(1, 2, 5), (2, 3, 3), (3, 4, 3)], (1, 2, 3, 4) * 2, 4),
    (3, [(1, 2, 5), (2, 3, float("inf"))], (1, 2, 1, 3, 2, 3), 4),
    (1024, [(1, 2, 3), (2, 3, 4)], (1, 2, 1, 3), 1)], ids=["A4", "H3", "H4", "5-inf", "rank-1024"])
def test_no_engine_builds_the_cartan_matrix(rank, edges, word, max_length, monkeypatch):
    # the Cartan matrix serves only the tests' column calculus: no counter,
    # fold, oracle, growth or search reads it, so none builds it
    graph, built, cartan_pair = CoxeterGraph(rank, edges), [], coxeter._cartan_pair
    monkeypatch.setattr(coxeter, "_cartan_pair", lambda *args: built.append(args) or cartan_pair(*args))
    count_classes(graph, word)
    reduced.least_words(graph, word)
    reduced.wp_set(graph, word)
    reduced.count_reduced_words(graph, word)
    reduced.oracle_reduced(graph, word)
    list(iter_elements(graph, max_length))
    search_M(4)
    assert "cartan" not in vars(graph) and not built
    monkeypatch.undo()
    # built on first read, every pair through _cartan_pair as before, so a
    # float graph keeps -2cos(pi/2), not 0, on its label-2 pair {1, 3}
    cartan, gens = graph.cartan, graph.generators
    assert all(cartan[a - 1][a - 1] == 2 for a in gens)
    assert all((cartan[a - 1][b - 1], cartan[b - 1][a - 1]) == coxeter._cartan_pair(graph.label(a, b), graph.exact)
               for a in gens for b in gens if a < b)
    assert graph.exact or cartan[0][2] == -2 * math.cos(math.pi / 2) != 0


@pytest.mark.parametrize("graphs", ["random", "rank-1024"])
def test_commuting_bit_sets_agree_with_the_labels(graphs):
    # bit b of commuting[a - 1] says whether a and b commute; the alphabet
    # reads the bit sets, and exact says every label is 2, 3, 4, 6 or inf
    if graphs == "random":
        rng, labels = random.Random(27), (2, 2, 3, 4, 5, 6, 8, 10, float("inf"))
        drawn = [random_coxeter_graph(rng, 5, labels) for _ in range(100)]
        drawn += [random_coxeter_graph(rng) for _ in range(100)]
    else:
        drawn = [CoxeterGraph(1024), CoxeterGraph.type_a(1024)]
    for graph in drawn:
        gens = graph.generators
        commutes = [[graph.commutes(a, b) for b in gens] for a in gens]
        assert [[c >> b & 1 == 1 for b in gens] for c in graph.commuting] == commutes
        assert CommutationAlphabet.from_coxeter(graph) == CommutationAlphabet(
            gens, [(a, b) for a in gens for b in gens if a < b and commutes[a - 1][b - 1]])
        assert graph.exact == {graph.label(a, b) for a in gens for b in gens if a != b}.issubset(
            {2, 3, 4, 6, float("inf")})
