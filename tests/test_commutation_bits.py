"""One commutation encoding: the alphabet holds one bit set per symbol, the
graph holds its labels per edge, and no rank x rank table is built at the
rank cap; the diagram involution search against a brute-force reference."""

import itertools
import random
import tracemalloc

from oracles import label_involutions, random_coxeter_graph, random_trace_corpus
from wordposets import CommutationAlphabet, CoxeterGraph, INFINITY, cli, parse_alphabet
from wordposets import reduced

ALPHABET_TEXTS = [
    "symbols: a b c d\ncommute: a c\ncommute: b c\ncommute: b d\n",
    "symbols: x y\n",
    "symbols: p q r\ncommute: r p\ncommute: q r\ncommute: p q\n",
]


def test_rank_cap_holds_no_rank_squared_table(tmp_path, capsys):
    # a rank x rank table of 1024 generators is 8 MB of row tuples; the bit
    # sets, the edge labels and the state rows are each linear in the rank
    edgeless = tmp_path / "edgeless.cox"
    edgeless.write_text("generators: 1024\n")
    tracemalloc.start()
    try:
        graph = CoxeterGraph(1024)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        CommutationAlphabet.from_coxeter(graph)
        alphabet_peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        code = cli.run(["check", "--graph", str(edgeless), "--word", "1"])
        check_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == "reduced-count: PASS (1)\nclass-count: PASS (1)\nbound: PASS\n"
    assert held < 1 << 20
    assert alphabet_peak < 1 << 20
    assert check_peak < 2 << 20


def _connected(rank, edges):
    reached, todo = {1}, [1]
    while todo:
        a = todo.pop()
        for i, j, _m in edges:
            for b in (j, i) if a in (i, j) else ():
                if b not in reached:
                    reached.add(b)
                    todo.append(b)
    return len(reached) == rank


def test_involutions_match_the_label_reference():
    # every connected graph of rank <= 4 over {3, 4, 5, inf} with gaps (label
    # 2), in every labelling, so label-4 edges come in both orientations;
    # then random graphs of rank <= 6 that also hold label 6
    graphs = []
    for rank in range(1, 5):
        pairs = list(itertools.combinations(range(1, rank + 1), 2))
        for labels in itertools.product((2, 3, 4, 5, INFINITY), repeat=len(pairs)):
            edges = [(i, j, m) for (i, j), m in zip(pairs, labels) if m != 2]
            if _connected(rank, edges):
                graphs.append(CoxeterGraph(rank, edges))
    rng = random.Random(28)
    graphs += [random_coxeter_graph(rng, 6, (2, 2, 2, 3, 3, 4, 5, 6, INFINITY)) for _ in range(300)]
    found = 0
    for graph in graphs:
        sigmas = {tuple(reduced._sigma(graph, flip)) for flip in reduced._involutions(graph)}
        assert sigmas == label_involutions(graph), graph
        found += len(sigmas)
    assert found > 1000


def test_involutions_match_the_label_reference_on_larger_rings():
    # every labelling of rank <= 3 over {2, 4, 6, 7, 8, inf}: rings of degree
    # 3 to 24 that also hold label-4 and label-6 edges in both orientations
    graphs = []
    for rank in range(1, 4):
        pairs = list(itertools.combinations(range(1, rank + 1), 2))
        for labels in itertools.product((2, 4, 6, 7, 8, INFINITY), repeat=len(pairs)):
            graphs.append(CoxeterGraph(rank, [(i, j, m) for (i, j), m in zip(pairs, labels) if m != 2]))
    assert len(graphs) == 223
    assert max(graph.state_degree for graph in graphs) > 2
    found = 0
    for graph in graphs:
        sigmas = {tuple(reduced._sigma(graph, flip)) for flip in reduced._involutions(graph)}
        assert sigmas == label_involutions(graph), graph
        found += len(sigmas)
    assert found == 68


def test_involution_search_reads_only_rank_edges_and_degree():
    # the state ring's basis, psi and rows are gone, so the search can read
    # nothing but the rank, the edge triples and the state degree
    paths = [[(a, a + 1, m) for a, m in enumerate(labels, 1)]
             for labels in [(7, 8, 8, 7), (INFINITY, 7, 7, INFINITY), (6, 8, 8, 6), (4, 7, 7, 4)]]
    # (1 3)(2 4) keeps the order of both label-6 edges; the path reversals
    # turn the label-6 and label-4 edges round
    found = []
    for edges in paths + [[(1, 2, 6), (3, 4, 6), (2, 5, 7), (4, 5, 7)]]:
        graph = CoxeterGraph(5, edges)
        del graph.state_rows, graph.state_basis, graph.state_psi
        sigmas = {tuple(reduced._sigma(graph, flip)) for flip in reduced._involutions(graph)}
        assert sigmas == label_involutions(graph), edges
        found.append(len(sigmas))
    assert found == [1, 1, 0, 0, 1]


def test_involution_search_reach_on_cycles():
    # the n-cycle's involutions are its n reflections and, for n even, the
    # half turn; the 256 search pairings find all of them up to n = 18, and
    # past that as many as these pins, so the search prunes as it did
    for n in range(3, 25):
        graph = CoxeterGraph(n, [(a, a % n + 1, 3) for a in range(1, n + 1)])
        sigmas = {tuple(reduced._sigma(graph, flip)) for flip in reduced._involutions(graph)}
        dihedral = {(0,) + tuple((c - a) % n + 1 for a in range(n)) for c in range(n)}
        dihedral |= {(0,) + tuple((a + n // 2) % n + 1 for a in range(n))} if n % 2 == 0 else set()
        assert sigmas <= dihedral
        assert len(sigmas) == {19: 18, 20: 17, 21: 15, 22: 16, 23: 14, 24: 15}.get(n, len(dihedral))


def test_alphabet_bit_sets_agree_with_commutes():
    # bit j of commuting[i] says whether symbols i and j commute; the pairs
    # read off the bits rebuild an equal alphabet with an equal hash
    alphabets = [parse_alphabet(text) for text in ALPHABET_TEXTS]
    alphabets += [alphabet for _word, alphabet in random_trace_corpus(200, seed=28)]
    for a in alphabets:
        n = len(a)
        assert [[a.commuting[i] >> j & 1 == 1 for j in range(n)] for i in range(n)] == [
            [a.commutes(s, t) for t in a.symbols] for s in a.symbols]
        rebuilt = CommutationAlphabet(a.symbols, a.pairs())
        assert rebuilt == a and hash(rebuilt) == hash(a)


def test_coxeter_alphabet_and_graph_identity():
    rng = random.Random(280)
    for graph in [random_coxeter_graph(rng, 6) for _ in range(100)] + [CoxeterGraph.type_a(1024)]:
        gens = graph.generators
        built = CommutationAlphabet(gens, [(a, b) for a in gens for b in gens
                                           if a < b and graph.commutes(a, b)])
        alphabet = CommutationAlphabet.from_coxeter(graph)
        assert alphabet == built and hash(alphabet) == hash(built)
    # the equality key holds the rank, not only the edges
    assert CoxeterGraph(3, [(1, 2, 3)]) != CoxeterGraph(4, [(1, 2, 3)])
    assert CoxeterGraph(3, [(2, 1, 3)]) == CoxeterGraph(3, [(1, 2, 3), (1, 2, 3)])
    assert hash(CoxeterGraph(3, [(2, 1, 3)])) == hash(CoxeterGraph(3, [(1, 2, 3)]))
