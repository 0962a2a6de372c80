import itertools
import math
import os
import pickle
import random
import time

import pytest

from wordposets import (
    BudgetError,
    CoxeterGraph,
    INFINITY,
    SearchResult,
    SignToleranceError,
    count_classes,
    is_reduced,
    iter_elements,
    limit_lower_bound,
    oracle_reduced,
    p_n,
    p_sequence,
    search_M,
    w0_word,
)
from wordposets import coxeter, networks, reduced
from wordposets.networks import (
    _Ticker,
    _best_full_support_counts,
    _canonical_labels,
    _connected_graphs_by_rank,
    _graph_from_labels,
)
from wordposets.reduced import _involutions


def test_w0_word_examples():
    assert w0_word(1) == ()
    assert w0_word(2) == (1,)
    assert w0_word(4) == (1, 2, 1, 3, 2, 1)


def test_w0_word_is_reduced_of_full_length():
    for n in range(2, 7):
        word = w0_word(n)
        assert len(word) == n * (n - 1) // 2
        assert is_reduced(CoxeterGraph.type_a(n - 1), word)


def test_w0_word_rejects_bad_n():
    with pytest.raises(ValueError):
        w0_word(0)
    with pytest.raises(ValueError):
        w0_word(2.5)
    with pytest.raises(ValueError):
        w0_word(True)
    with pytest.raises(ValueError):
        p_n(True)


def test_p_n_small_values():
    assert [p_n(n) for n in range(1, 6)] == [1, 1, 2, 8, 62]


def test_p_sequence():
    assert p_sequence(3) == [1, 1, 2]
    assert p_sequence(6) == [1, 1, 2, 8, 62, 908]


def test_p_sequence_nondecreasing():
    seq = p_sequence(6)
    assert all(a <= b for a, b in zip(seq, seq[1:]))


def test_p_sequence_rejects_bad_n():
    with pytest.raises(ValueError):
        p_sequence(0)
    with pytest.raises(ValueError):
        p_sequence(True)


def test_limit_lower_bound_examples():
    assert limit_lower_bound(2, 1) == 0.0
    assert limit_lower_bound(8, 1232944) == pytest.approx(0.50089, abs=1e-5)
    assert limit_lower_bound(12, 2894710651370536) == pytest.approx(0.53941, abs=1e-4)


def test_limit_lower_bound_is_log_over_crossings():
    assert limit_lower_bound(5, 62) == pytest.approx(math.log(62) / 10)


def test_limit_lower_bound_monotone_in_p():
    assert limit_lower_bound(6, 908) < limit_lower_bound(6, 909)


def test_limit_lower_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        limit_lower_bound(1, 10)
    with pytest.raises(ValueError):
        limit_lower_bound(6, 0)


# P(6..9) from acceptance criterion 1, P(10) and P(11) computed by p_n,
# P(12) the input of acceptance criterion 8
KNOWN_P = {6: 908, 7: 24698, 8: 1232944, 9: 112018190, 10: 18410581880,
           11: 5449192389984, 12: 2894710651370536}


def test_class_count_bound_ratio_at_longest_elements_rises_toward_one():
    # r(n) = 9 P(n)^2 / (4 * 3^k_n), k_n = n(n-1)/2, compared in integers:
    # the check 9 C^2 <= 4 * 3^len holds at n <= 12 with shrinking room, so
    # it is an observation on the elements counted so far, not a theorem
    def k(n):
        return n * (n - 1) // 2

    for n, p in KNOWN_P.items():
        assert 9 * p * p < 4 * 3 ** k(n)
        if n + 1 in KNOWN_P:
            q = KNOWN_P[n + 1]
            assert q * q * 3 ** k(n) > p * p * 3 ** k(n + 1)


def test_search_over_labels_through_k_is_max_over_every_coxeter_group():
    # a label m > k acts as infinity at length k, so {2, ..., k, inf} is
    # complete for M(k); one label more leaves the value unchanged
    values = []
    for k in range(6):
        result = search_M(k, {*range(2, k + 1), INFINITY}, k)
        values.append(result.value)
        assert len(result.word) == k
        assert oracle_reduced(result.graph, result.word)[1] == result.value
        if 2 <= k <= 4:
            assert search_M(k, {*range(2, k + 2), INFINITY}, k).value == result.value
    assert values == [1, 1, 1, 2, 2, 3]


def test_search_counts_labels_above_k_as_infinity():
    # a label m > k is counted as infinity, so m = 1009 builds no state ring
    # of degree 504 for each graph; value and witness word are those of inf
    for k in range(4, 7):
        expected = search_M(k, {2, 3, INFINITY}, 4)
        for m in (7, 1009):
            start = time.monotonic()
            result = search_M(k, {2, 3, m}, 4)
            elapsed = time.monotonic() - start
            assert (result.value, result.word) == (expected.value, expected.word)
    assert elapsed < 2  # search_M(6, {2, 3, 1009}, 4)


def test_search_small_values():
    values = [search_M(k, max_rank=k).value for k in range(6)]
    assert values == [1, 1, 1, 2, 2, 3]


def test_search_k0():
    result = search_M(0)
    assert isinstance(result, SearchResult)
    assert result.value == 1
    assert result.word == ()


def test_search_result_is_a_frozen_record():
    a2 = CoxeterGraph(2, [(1, 2, 3)])
    result = SearchResult(value=2, graph=a2, word=(1, 2, 1))
    assert result == SearchResult(2, a2, (1, 2, 1)) == search_M(3)
    assert result != SearchResult(2, a2, (2, 1, 2))
    assert result.__eq__((2, a2, (1, 2, 1))) is NotImplemented
    assert hash(result) == hash(SearchResult(2, CoxeterGraph.type_a(2), (1, 2, 1)))
    assert repr(result) == ("SearchResult(value=2, graph=CoxeterGraph(rank=2, "
                            "edges=[(1, 2, 3)]), word=(1, 2, 1))")
    assert repr(search_M(0)) == "SearchResult(value=1, graph=CoxeterGraph(rank=1, edges=[]), word=())"
    with pytest.raises(AttributeError):
        result.value = 3
    assert result.value == 2
    assert pickle.loads(pickle.dumps(result)) == result


def test_search_witnesses_attain_their_value():
    for k in range(1, 6):
        result = search_M(k, max_rank=k)
        assert len(result.word) == k
        assert result.graph.rank <= k
        assert is_reduced(result.graph, result.word)
        assert count_classes(result.graph, result.word) == result.value


def test_search_no_gap_label_set():
    # without label 2 the whole length must sit on one connected support
    result = search_M(3, labels={3}, max_rank=3)
    assert result.value == 2
    assert count_classes(result.graph, result.word) == 2


@pytest.mark.parametrize("label", [3, 5, INFINITY])
def test_search_no_gap_length_k_on_rank_k_is_the_complete_graph(label):
    # without label 2 the (k, k) entry is read directly, not enumerated: the
    # complete rank-k graph on the least edge label, as given, and 1 2 ... k
    assert search_M(2, {label}, 2) == SearchResult(1, CoxeterGraph(2, [(1, 2, label)]), (1, 2))


def test_search_with_label_2_composes_singletons_not_a_diagonal_part():
    # a length-2 part on 2 generators ties two commuting singletons, whose
    # sorted parts are less: the witness has no edge
    assert search_M(2, {2, 3}, 2) == SearchResult(1, CoxeterGraph(2), (1, 2))


def test_search_only_commuting_label():
    # label set {2}: every element is a product of distinct commuting
    # generators, one class each
    result = search_M(3, labels={2}, max_rank=3)
    assert result.value == 1
    assert sorted(result.word) == [1, 2, 3]
    assert result.graph.edges() == []


def test_search_infinite_label_only():
    result = search_M(4, labels={INFINITY}, max_rank=2)
    assert result.value == 1
    assert len(result.word) == 4


def test_search_rank_shortfall_is_an_error():
    # rank-1 groups stop at length 1, so k=2 with max_rank=1 has no element
    with pytest.raises(ValueError):
        search_M(2, labels={2}, max_rank=1)


def test_search_input_validation():
    with pytest.raises(ValueError):
        search_M(-1)
    with pytest.raises(ValueError):
        search_M(2, max_rank=3)
    with pytest.raises(ValueError):
        search_M(1, max_rank=0)
    with pytest.raises(ValueError):
        search_M(3, labels={1, 3})
    with pytest.raises(ValueError):
        search_M(True)
    with pytest.raises(ValueError):
        search_M(3, max_rank=True)


def test_search_budget():
    with pytest.raises(BudgetError):
        search_M(5, budget=10)


def test_search_memo_cap():
    with pytest.raises(BudgetError, match="^class-count memo exceeds 3 entries$"):
        search_M(5, memo_cap=3)


# graphs with a diagram involution, so the search grows one element per orbit
FOLDING = {
    "A4": (CoxeterGraph.type_a(4), 10),
    "D4": (CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (2, 4, 3)]), 10),
    "affine-A3": (CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (1, 4, 3)]), 9),
    "path-3-inf-3": (CoxeterGraph(4, [(1, 2, 3), (2, 3, INFINITY), (3, 4, 3)]), 9),
}


@pytest.mark.parametrize("graph,k", [
    (CoxeterGraph(3, [(1, 2, 3), (2, 3, INFINITY)]), 7),
    (CoxeterGraph(4, [(1, 2, 4), (2, 3, 6), (3, 4, INFINITY)]), 6),
    (CoxeterGraph(4, [(1, 2, 3), (1, 3, 4), (1, 4, INFINITY)]), 6),
    (CoxeterGraph(3, [(1, 2, 5), (2, 3, 3)]), 9),
    (CoxeterGraph(3, [(1, 2, 5), (2, 3, INFINITY)]), 7),
] + list(FOLDING.values()),
    ids=["rank3-3-inf", "rank4-4-6-inf", "star-3-4-inf", "H3", "rank3-5-inf"] + list(FOLDING))
def test_search_table_matches_brute_force(graph, k):
    # the counts found in place during the growth must be the ones that
    # count_classes gives each full-support element, with the least word
    # among the maximizers as witness (the star has three commuting leaves)
    expected = {}
    for word in iter_elements(graph, k):
        if len(set(word)) == graph.rank:
            c = count_classes(graph, word)
            cur = expected.get(len(word))
            if cur is None or c > cur[0]:
                expected[len(word)] = (c, word)
    assert expected
    assert _best_full_support_counts(graph, k, _Ticker(10 ** 9), None) == expected


@pytest.mark.parametrize("name", FOLDING)
def test_folding_search_cases_have_an_involution(name):
    graph, _k = FOLDING[name]
    assert _involutions(graph)


def test_folded_search_table_equals_unfolded(monkeypatch):
    # every symmetric connected graph of rank <= 4 over {2, 3, 4, inf}: one
    # element per orbit must give the counts and least witnesses of all
    # (and spend fewer budget steps, one per kept extension of a representative)
    by_rank = _connected_graphs_by_rank(4, [3, 4, INFINITY], True, _Ticker(10 ** 9))
    graphs = [graph for r in by_rank for labels in by_rank[r]
              if _involutions(graph := _graph_from_labels(r, labels))]
    assert len([graph for graph in graphs if graph.rank == 4]) == 113
    folded_ticker, unfolded_ticker = _Ticker(10 ** 9), _Ticker(10 ** 9)
    folded = [_best_full_support_counts(graph, 6, folded_ticker, None) for graph in graphs]
    monkeypatch.setattr(reduced, "_involutions", lambda graph: ())
    assert [_best_full_support_counts(graph, 6, unfolded_ticker, None)
            for graph in graphs] == folded
    assert folded_ticker.left > unfolded_ticker.left


def _all_relabelings(r, label_map):
    # the canonical form as the least tuple over every permutation, spelled out
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    return min(tuple(
        label_map[(perm[i], perm[j])] if perm[i] < perm[j] else label_map[(perm[j], perm[i])]
        for i, j in pairs) for perm in itertools.permutations(range(r)))


def test_canonical_labels_match_all_relabelings():
    labels = [2, 3, 4, INFINITY]
    for r in range(1, 5):
        pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
        for row in itertools.product(labels, repeat=len(pairs)):
            label_map = dict(zip(pairs, row))
            assert _canonical_labels(r, label_map) == _all_relabelings(r, label_map)
    rng = random.Random(5)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for _ in range(500):
        label_map = {pair: rng.choice(labels) for pair in pairs}
        assert _canonical_labels(5, label_map) == _all_relabelings(5, label_map)


@pytest.mark.parametrize("max_rank,edge_labels,allow_gap", [
    (4, [3, 4, INFINITY], True), (4, [3, INFINITY], False), (5, [3], True)],
    ids=["rank4-2-3-4-inf", "rank4-3-inf", "rank5-2-3"])
def test_connected_graphs_by_rank_match_all_relabelings(monkeypatch, max_rank, edge_labels,
                                                        allow_gap):
    found = _connected_graphs_by_rank(max_rank, edge_labels, allow_gap, _Ticker(10 ** 9))
    monkeypatch.setattr(networks, "_canonical_labels", _all_relabelings)
    assert _connected_graphs_by_rank(max_rank, edge_labels, allow_gap, _Ticker(10 ** 9)) == found


def test_dropped_descent_read_raises_in_search(monkeypatch):
    # a descent lost by the read (here only where another one is left, so
    # the read is never empty) disagrees with the element it was grown
    # from; the search must refuse rather than count a misread element
    def reader(graph):
        read = coxeter.descent_reader(graph)

        def dropped(state):
            bits = read(state)
            return bits & bits - 1 or bits
        return dropped

    monkeypatch.setattr(reduced, "descent_reader", reader)
    with pytest.raises(SignToleranceError):
        search_M(4)


def test_p_n_never_beats_search():
    # P(n) <= M(k_n): the staircase element lives inside the search space
    assert p_n(3) <= search_M(3, max_rank=3).value
    assert p_n(4) <= search_M(6, max_rank=4).value


@pytest.mark.parametrize("max_rank, edge_labels, graphs", [
    (4, [3, 4, INFINITY], 269), (3, [3, 4, 5, INFINITY], 34)],
    ids=["rank4-2-3-4-inf", "rank3-2-3-4-5-inf"])
def test_excess_one_has_at_most_two_classes(max_rank, edge_labels, graphs):
    # a connected element of rank r and length r + 1 doubles one letter, so
    # only a braid aba = bab with m(a, b) = 3 fits, and each class has at most
    # one braid neighbour: C <= 2.  Exhaustive over every connected graph of
    # rank 2..max_rank (gaps allowed), each witness checked by the closure
    by_rank = _connected_graphs_by_rank(max_rank, edge_labels, True, _Ticker(10 ** 9))
    assert sum(len(by_rank[r]) for r in range(2, max_rank + 1)) == graphs
    best = 0
    for r in range(2, max_rank + 1):
        for label_tuple in by_rank[r]:
            graph = _graph_from_labels(r, label_tuple)
            c, word = _best_full_support_counts(graph, r + 1, _Ticker(10 ** 9), None)[r + 1]
            assert c == oracle_reduced(graph, word)[1] <= 2
            best = max(best, c)
    assert best == 2


@pytest.mark.parametrize("max_rank, edge_labels, graphs", [
    (4, [3, 4, INFINITY], 269), (3, [3, 4, 5, 6, INFINITY], 55)],
    ids=["rank4-2-3-4-inf", "rank3-2-3-4-5-6-inf"])
def test_class_bounds_are_the_exhaustive_maxima(max_rank, edge_labels, graphs):
    # the skip's bounds at excess e = 0, 1, 2 (length r + e on a connected
    # rank-r support) are attained and never passed: a label m >= 5 never
    # moves at excess 2, so {2, 3, 4, inf} covers every label set there
    by_rank = _connected_graphs_by_rank(max_rank, edge_labels, True, _Ticker(10 ** 9))
    assert sum(len(by_rank[r]) for r in range(2, max_rank + 1)) == graphs
    for r in range(2, max_rank + 1):
        best = {}
        for label_tuple in by_rank[r]:
            graph = _graph_from_labels(r, label_tuple)
            for length, (c, word) in _best_full_support_counts(
                    graph, r + 2, _Ticker(10 ** 9), None).items():
                assert c == oracle_reduced(graph, word)[1]
                best[length] = max(best.get(length, 0), c)
        assert best == {r + e: networks._class_bound(r, r + e) for e in range(3)}
    assert [networks._class_bound(r, r + 2) for r in range(2, 5)] == [2, 3, 4]
    assert networks._class_bound(5, 7) is None and networks._class_bound(2, 5) is None


@pytest.fixture
def grown(monkeypatch):
    # the graphs whose elements the search grows, one per call
    graphs = []
    counts = networks._best_full_support_counts
    monkeypatch.setattr(networks, "_best_full_support_counts",
                        lambda *args: graphs.append(args[0]) or counts(*args))
    return graphs


def test_layer_skip_changes_no_answer(monkeypatch, grown):
    # the bounds only skip layers that cannot reach the best so far, so with
    # no bound at all every search on the grid answers the same, but grows
    # more graphs
    grid = [(k, labels, max_rank)
            for labels in ({3}, {3, INFINITY}, {3, 4}, {4, INFINITY}, {2, 3, INFINITY},
                           {2, 3, 4, INFINITY}, {2, 4}, {2, 5, INFINITY})
            for k in range(1, 7) for max_rank in range(1, min(k, 4) + 1)]

    def answers():
        grown.clear()
        out = []
        for k, labels, max_rank in grid:
            try:
                out.append(search_M(k, labels, max_rank))
            except ValueError as error:
                out.append(str(error))
        return out, len(grown)

    skipped, skipped_grown = answers()
    # without label 2 no parts commute: the witness graph is complete
    for (_k, labels, _max_rank), result in zip(grid, skipped):
        if 2 not in labels and isinstance(result, SearchResult):
            rank = result.graph.rank
            assert len(result.graph.edges()) == rank * (rank - 1) // 2
    monkeypatch.setattr(networks, "_class_bound", lambda rank, length: None)
    unbounded, unbounded_grown = answers()
    assert unbounded == skipped and unbounded_grown > skipped_grown


@pytest.mark.parametrize("bounds, graphs", [(True, 19), (False, 269)])
def test_class_search_skips_the_rank_4_layer(monkeypatch, grown, bounds, graphs):
    # search_M(6, {2, 3, 4, inf}, 4): ranks <= 3 give 8, and a rank-4 part
    # of length 6 (excess 2) has at most 4 classes, with nothing beside it
    if not bounds:
        monkeypatch.setattr(networks, "_class_bound", lambda rank, length: None)
    result = search_M(6, {2, 3, 4, INFINITY}, 4)
    assert (result.value, result.word) == (8, (1, 2, 3, 1, 2, 3))
    assert len(grown) == graphs
    assert {graph.rank for graph in grown} == ({2, 3} if bounds else {2, 3, 4})


def test_skipped_layer_spends_no_budget(monkeypatch):
    # the rank-4 layer is neither listed nor grown, so a budget that the
    # full search passes is enough for the answer
    assert search_M(6, {2, 3, 4, INFINITY}, 4, budget=2000).value == 8
    monkeypatch.setattr(networks, "_class_bound", lambda rank, length: None)
    with pytest.raises(BudgetError, match="^search budget exhausted$"):
        search_M(6, {2, 3, 4, INFINITY}, 4, budget=2000)


@pytest.mark.parametrize("labels", [{2, 4, 5, 6}, {4, 5, 6, INFINITY}], ids=["2-4-5-6", "4-5-6-inf"])
def test_excess_1_bound_reads_the_labels(labels):
    # without label 3 no braid move fits at excess 1, so a rank-5 part of
    # length 6 has 1 class and cannot tie the 2 of the lower ranks: the
    # rank-5 layer is skipped, and the search answers within the budget
    result = search_M(6, labels, 5, budget=3_000_000)
    assert result.value == 2 == oracle_reduced(result.graph, result.word)[1]


def test_m6_over_every_coxeter_group():
    # labels {2, ..., 6, inf} are complete at length 6, and the excess bounds
    # skip ranks 4 and 5, which cannot beat the 8 that ranks <= 3 give
    result = search_M(6, {2, 3, 4, 5, 6, INFINITY}, 6)
    assert result == SearchResult(8, CoxeterGraph(3, [(1, 3, 3), (2, 3, 3)]), (1, 2, 3, 1, 2, 3))
    assert oracle_reduced(result.graph, result.word)[1] == 8


@pytest.mark.skipif(os.environ.get("WORDPOSETS_STRETCH") != "1",
                    reason="M(7) on {2, 3, inf} takes about 10 s; set WORDPOSETS_STRETCH=1")
def test_m7_on_two_three_infinity():
    # ranks <= 5 give 8; a rank-6 part of length 7 has at most 2 classes
    result = search_M(7, {2, 3, INFINITY})
    assert result == SearchResult(8, CoxeterGraph(4, [(2, 4, 3), (3, 4, 3)]), (1, 2, 3, 4, 2, 3, 4))
    assert oracle_reduced(result.graph, result.word)[1] == 8


def test_a_layer_that_only_ties_the_best_is_grown(grown):
    # search_M(4, {2, 3, inf}, 3): ranks <= 2 give 2 (a singleton beside
    # 1 2 1), and a rank-3 part of length 4 (excess 1) has at most 2 classes;
    # a tie could win the least-parts tie-break, so the layer is grown
    assert search_M(4, {2, 3, INFINITY}, 3).value == 2
    assert 3 in {graph.rank for graph in grown}


def _composed_by_brute_force(table, k, max_rank):
    # every multiset of entries, the largest product first, then the least sorted parts
    best = {}
    for n in range(k + 1):
        for parts in itertools.combinations_with_replacement(sorted(table), n):
            length, rank = sum(p[1] for p in parts), sum(p[0] for p in parts)
            value = (math.prod(table[p][0] for p in parts), parts)
            for ranks in range(rank, max_rank + 1) if length <= k else ():
                if (cur := best.get((length, ranks))) is None or (-value[0], value[1]) < (-cur[0], cur[1]):
                    best[(length, ranks)] = value
    return best


def _hand_made(counts):
    # larger parts first, so that keeping the first best product would not keep the least parts
    return {part: (counts[part], (), ()) for part in sorted(counts, reverse=True)}


@pytest.mark.parametrize("table, k, max_rank", [
    (([3, 4, INFINITY], True), 6, 4),
    (([3, INFINITY], True), 6, 6),
    (([3, 4], False), 5, 5),
    # a singleton beside (2, 3) ties (3, 4) at length 4, and its parts are less
    (_hand_made({(1, 1): 1, (2, 3): 2, (2, 4): 1, (3, 4): 2, (3, 5): 4, (3, 6): 5, (4, 6): 6}), 8, 6),
    # even lengths only, so no odd length composes; (1, 2) twice ties (2, 4)
    (_hand_made({(1, 2): 2, (2, 2): 1, (2, 4): 4, (3, 4): 3, (3, 6): 8, (4, 8): 16}), 8, 7),
], ids=["2-3-4-inf", "2-3-inf", "3-4", "ties", "even"])
def test_composition_table_matches_brute_force(table, k, max_rank):
    # each cell (length, ranks) is the best over all multisets of entries of
    # that total length and total rank at most ranks; no other cell is held
    if isinstance(table, tuple):  # the edge labels and gap of the table the search builds
        table = networks._single_component_table(k, *table, max_rank, _Ticker(10 ** 9), None)
    cells = networks._compose_parts(table, k, max_rank)
    assert cells == _composed_by_brute_force(table, k, max_rank)
    assert all(cells[(0, ranks)] == (1, ()) for ranks in range(max_rank + 1))
