import json
import math
import random

import pytest

from oracles import (
    brute_is_reduced,
    brute_left_descents,
    brute_length,
    brute_same_element,
    inversions,
    random_coxeter_graph,
    random_word,
    rewriting_closure,
    word_to_permutation,
)
from wordposets import (
    INFINITY,
    TOLERANCE,
    CanonicalElement,
    CoxeterGraph,
    GraphParseError,
    NotReducedError,
    SignToleranceError,
    canonical_form,
    element_of,
    is_reduced,
    left_descents,
    multiply_left,
    parse_graph,
    shortest_non_reduced_prefix,
)
from wordposets.coxeter import (
    _column_sign,
    apply_generator,
    descents_from_inverse,
    element_state,
    inverse_columns,
    matrix_key,
    state_descents,
    word_columns,
)
from wordposets.reduced import _levels, iter_elements, oracle_reduced

A2 = CoxeterGraph(2, [(1, 2, 3)])
FREE2 = CoxeterGraph(2)  # m(1,2) = 2
B2 = CoxeterGraph(2, [(1, 2, 4)])
H2 = CoxeterGraph(2, [(1, 2, 5)])
INF2 = CoxeterGraph(2, [(1, 2, INFINITY)])
S4 = CoxeterGraph.type_a(3)


# ---------------------------------------------------------------- graphs

def test_graph_defaults_to_commuting():
    g = CoxeterGraph(3)
    assert g.label(1, 2) == 2
    assert g.commutes(1, 3)
    assert g.edges() == []


def test_graph_basic_api():
    g = CoxeterGraph(3, [(1, 2, 3), (2, 3, 4)])
    assert list(g.generators) == [1, 2, 3]
    assert g.label(1, 2) == 3
    assert g.label(2, 1) == 3
    assert g.label(1, 1) == 1
    assert g.label(1, 3) == 2
    assert not g.commutes(1, 2)
    assert g.commutes(1, 3)
    assert not g.commutes(2, 2)
    assert g.edges() == [(1, 2, 3), (2, 3, 4)]


def test_graph_accepts_reversed_edges_and_duplicates():
    g = CoxeterGraph(2, [(2, 1, 3), (1, 2, 3)])
    assert g.label(1, 2) == 3


def test_graph_equality_ignores_edge_order():
    a = CoxeterGraph(3, [(1, 2, 3), (2, 3, 4)])
    b = CoxeterGraph(3, [(2, 3, 4), (2, 1, 3)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != CoxeterGraph(3, [(1, 2, 3)])


@pytest.mark.parametrize("rank,edges", [
    (0, []),
    (-1, []),
    (2, [(1, 3, 3)]),
    (2, [(1, 1, 3)]),
    (2, [(1, 2, 2)]),
    (2, [(1, 2, 1)]),
    (2, [(1, 2, 3.5)]),
    (2, [(1, 2, 3), (2, 1, 4)]),
])
def test_graph_constructor_rejects(rank, edges):
    with pytest.raises(ValueError):
        CoxeterGraph(rank, edges)


def test_type_a():
    g = CoxeterGraph.type_a(3)
    assert g.edges() == [(1, 2, 3), (2, 3, 3)]
    assert g.commutes(1, 3)


def test_cartan_exact_values():
    assert A2.exact
    assert A2.cartan == ((2, -1), (-1, 2))
    assert B2.cartan[0][1] * B2.cartan[1][0] == 2
    g6 = CoxeterGraph(2, [(1, 2, 6)])
    assert g6.cartan[0][1] * g6.cartan[1][0] == 3
    assert INF2.cartan[0][1] == -2 and INF2.cartan[1][0] == -2


def test_cartan_general_path():
    assert not H2.exact
    expected = -2.0 * math.cos(math.pi / 5)
    assert H2.cartan[0][1] == pytest.approx(expected)
    assert H2.cartan[1][0] == pytest.approx(expected)
    assert H2.cartan[0][0] == 2.0


def test_mixed_labels_force_general_path():
    g = CoxeterGraph(3, [(1, 2, 3), (2, 3, 5)])
    assert not g.exact


# ---------------------------------------------------------------- parsing

def test_parse_graph_text():
    g = parse_graph("""
    # symmetric group on 4 points
    generators: 3
    edge: 1 2 3
    edge: 2 3 3
    """)
    assert g == S4


def test_parse_graph_no_edges():
    g = parse_graph("generators: 2\n")
    assert g.label(1, 2) == 2


def test_parse_graph_inf():
    g = parse_graph("generators: 2\nedge: 1 2 inf\n")
    assert g.label(1, 2) == INFINITY


def test_parse_graph_reversed_endpoints():
    g = parse_graph("generators: 2\nedge: 2 1 4\n")
    assert g.label(1, 2) == 4


def test_parse_graph_json():
    text = json.dumps({"rank": 3, "edges": [[1, 2, 3], [2, 3, "inf"]]})
    g = parse_graph(text)
    assert g.label(1, 2) == 3
    assert g.label(2, 3) == INFINITY
    assert g.label(1, 3) == 2


def test_graph_json_roundtrip():
    g = CoxeterGraph(3, [(1, 2, 4), (2, 3, INFINITY)])
    assert parse_graph(json.dumps(g.to_json_dict())) == g


@pytest.mark.parametrize("text", [
    "",
    "edge: 1 2 3\n",
    "generators: 0\n",
    "generators: two\n",
    "generators: 2\ngenerators: 2\n",
    "generators: 2\nedge: 1 2\n",
    "generators: 2\nedge: 1 3 3\n",
    "generators: 2\nedge: 1 1 3\n",
    "generators: 2\nedge: 1 2 2\n",
    "generators: 2\nedge: 1 2 x\n",
    "generators: 2\nedge: 1 2 3\nedge: 2 1 4\n",
    "generators: 2\nwhat is this\n",
    "{not json",
    '{"edges": []}',
    '{"rank": 2, "edges": [[1, 2]]}',
    '{"rank": 2, "edges": [[1, 2, 2]]}',
    '{"rank": true, "edges": []}',
    '{"rank": 3, "edges": [[true, 2, 3]]}',
])
def test_parse_graph_errors(text):
    with pytest.raises(GraphParseError):
        parse_graph(text)


def test_parse_graph_error_cites_line():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("generators: 2\nedge: 1 2\n")


# ---------------------------------------------------------------- words

def test_is_reduced_examples():
    assert is_reduced(A2, ())
    assert not is_reduced(A2, (1, 1))
    assert is_reduced(A2, (1, 2, 1))
    assert not is_reduced(FREE2, (1, 2, 1))


def test_word_letter_validation():
    with pytest.raises(ValueError):
        is_reduced(A2, (0,))
    with pytest.raises(ValueError):
        is_reduced(A2, (3,))
    with pytest.raises(ValueError):
        is_reduced(A2, ("1",))


def test_shortest_non_reduced_prefix():
    assert shortest_non_reduced_prefix(A2, (1, 2, 1)) is None
    assert shortest_non_reduced_prefix(A2, (1, 1, 2)) == (1, 1)
    assert shortest_non_reduced_prefix(FREE2, (2, 1, 2, 1)) == (2, 1, 2)
    prefix = shortest_non_reduced_prefix(A2, (1, 2, 1, 2))
    assert prefix == (1, 2, 1, 2)
    assert is_reduced(A2, prefix[:-1])


def test_element_of_examples():
    assert element_of(A2, (1, 1)) == ()
    assert element_of(FREE2, (1, 2, 1)) == (2,)
    assert element_of(A2, (2, 1, 2, 2, 1)) == (2,)


def test_element_of_fixes_reduced_words():
    assert element_of(A2, (1, 2, 1)) == (1, 2, 1)
    assert element_of(S4, (1, 2, 1, 3, 2, 1)) == (1, 2, 1, 3, 2, 1)


def test_left_descents_examples():
    assert left_descents(A2, ()) == set()
    assert left_descents(A2, (1, 2, 1)) == {1, 2}
    assert left_descents(A2, (1, 2)) == {1}


def test_left_descents_requires_reduced():
    with pytest.raises(NotReducedError):
        left_descents(A2, (1, 1))


def test_not_reduced_error_names_offending_prefix():
    with pytest.raises(NotReducedError, match=r"\[1, 1\]"):
        left_descents(A2, (1, 1, 2))


def test_canonical_form_examples():
    assert canonical_form(A2, ()).word == ()
    assert canonical_form(A2, (2, 1, 2)).word == (1, 2, 1)
    assert canonical_form(FREE2, (2, 1)).word == (1, 2)


def test_canonical_form_idempotent():
    elt = canonical_form(S4, (3, 2, 1, 3, 2, 3))
    assert canonical_form(S4, elt.word).word == elt.word


def test_canonical_element_length():
    elt = CanonicalElement((1, 2, 1))
    assert elt.length == 3
    assert len(elt) == 3


def test_multiply_left_examples():
    assert multiply_left(A2, 1, ()) == (1,)
    assert multiply_left(A2, 1, (1, 2)) == (2,)
    w = multiply_left(A2, 2, (1, 2))
    assert len(w) == 3
    assert canonical_form(A2, w) == canonical_form(A2, (2, 1, 2))


def test_multiply_left_validates_inputs():
    with pytest.raises(ValueError):
        multiply_left(A2, 0, (1,))
    with pytest.raises(NotReducedError):
        multiply_left(A2, 1, (2, 2))


# --------------------------------------------------- brute-force cross-checks

def test_is_reduced_matches_inversion_count_in_s4():
    # every word of length <= 5 over the rank-3 path graph
    for length in range(6):
        for code in range(3 ** length):
            word, rest = [], code
            for _ in range(length):
                word.append(rest % 3 + 1)
                rest //= 3
            word = tuple(word)
            perm = word_to_permutation(4, word)
            assert is_reduced(S4, word) == (inversions(perm) == len(word))


def test_element_of_matches_permutation_in_s4():
    rng = random.Random(17)
    for _ in range(150):
        word = random_word(rng, 3, 10)
        short = element_of(S4, word)
        assert is_reduced(S4, short)
        assert word_to_permutation(4, short) == word_to_permutation(4, word)
        assert len(short) == inversions(word_to_permutation(4, word))


def test_reducedness_matches_rewriting_closure_on_random_graphs():
    rng = random.Random(29)
    for _ in range(60):
        g = random_coxeter_graph(rng, max_rank=3)
        word = random_word(rng, g.rank, 6)
        assert is_reduced(g, word) == brute_is_reduced(g, word)


def test_element_of_matches_rewriting_closure_on_random_graphs():
    rng = random.Random(31)
    for _ in range(40):
        g = random_coxeter_graph(rng, max_rank=3)
        word = random_word(rng, g.rank, 6)
        short = element_of(g, word)
        assert len(short) == brute_length(g, word)
        assert brute_same_element(g, short, word)


def test_descents_match_brute_force_on_all_of_s4():
    for word in iter_elements(S4):
        assert left_descents(S4, word) == brute_left_descents(S4, word)


def test_descents_empty_only_for_identity():
    for word in iter_elements(S4):
        assert (left_descents(S4, word) == set()) == (word == ())


def test_canonical_form_constant_on_rewriting_classes():
    for graph in (S4, B2):
        for word in iter_elements(graph):
            members = rewriting_closure(graph, word, False)
            assert {canonical_form(graph, w).word for w in members} == {word}
            assert min(members) == word


def test_multiply_left_round_trip():
    rng = random.Random(37)
    for _ in range(60):
        g = random_coxeter_graph(rng, max_rank=3)
        word = element_of(g, random_word(rng, g.rank, 8))
        a = rng.randint(1, g.rank)
        once = multiply_left(g, a, word)
        assert abs(len(once) - len(word)) == 1
        in_descents = a in left_descents(g, word)
        assert (len(once) == len(word) - 1) == in_descents
        twice = multiply_left(g, a, once)
        assert canonical_form(g, twice) == canonical_form(g, word)


def test_reduced_iff_element_length_preserved():
    rng = random.Random(41)
    for _ in range(80):
        g = random_coxeter_graph(rng, max_rank=4)
        word = random_word(rng, g.rank, 8)
        assert is_reduced(g, word) == (len(element_of(g, word)) == len(word))


# ---------------------------------------------------------------- numerics

def test_float_path_agrees_with_exact_on_common_labels():
    # same group, one graph forced onto the float path by a label-5 edge
    # on extra generators that the words never touch
    exact = CoxeterGraph.type_a(3)
    fuzzy = CoxeterGraph(5, [(1, 2, 3), (2, 3, 3), (4, 5, 5)])
    assert not fuzzy.exact
    rng = random.Random(43)
    for _ in range(60):
        word = random_word(rng, 3, 8)
        assert is_reduced(exact, word) == is_reduced(fuzzy, word)
        assert element_of(exact, word) == element_of(fuzzy, word)


def test_h2_dihedral_structure():
    # m = 5: longest element has length 5, alternating words
    assert is_reduced(H2, (1, 2, 1, 2, 1))
    assert not is_reduced(H2, (1, 2, 1, 2, 1, 2))
    assert left_descents(H2, (1, 2, 1, 2, 1)) == {1, 2}
    assert canonical_form(H2, (2, 1, 2, 1, 2)).word == (1, 2, 1, 2, 1)


def test_infinite_label_never_shortens_alternation():
    word = tuple(1 if i % 2 == 0 else 2 for i in range(30))
    assert is_reduced(INF2, word)
    assert left_descents(INF2, word) == {1}


def test_column_sign_tolerance():
    assert _column_sign(H2, [0.5, 1e-12]) == 1
    assert _column_sign(H2, [-0.5, -1e-12]) == -1
    with pytest.raises(SignToleranceError):
        _column_sign(H2, [1e-12, -1e-12])
    with pytest.raises(SignToleranceError):
        _column_sign(H2, [0.5, -0.5])
    assert TOLERANCE == 1e-9


def test_matrix_key_identifies_elements():
    # same element, different reduced words -> same key; different element ->
    # different key; holds on the float path too
    for g, u, v in [(S4, (1, 2, 1), (2, 1, 2)), (H2, (1, 2, 1, 2, 1), (2, 1, 2, 1, 2))]:
        ku = matrix_key(g, inverse_columns(g, u))
        kv = matrix_key(g, inverse_columns(g, v))
        assert ku == kv
        assert matrix_key(g, inverse_columns(g, u[:-1])) != ku
    assert matrix_key(S4, word_columns(S4, ())) == matrix_key(S4, inverse_columns(S4, ()))


# ------------------------------------------------- canonical form vs oracle

H3 = CoxeterGraph(3, [(1, 2, 5), (2, 3, 3)])
AFFINE_A2 = CoxeterGraph(3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)])
INF_RANK3 = CoxeterGraph(3, [(1, 2, INFINITY), (2, 3, 3)])


@pytest.mark.parametrize("graph", [H3, AFFINE_A2, INF_RANK3],
                         ids=["H3", "affine-A2", "rank3-inf"])
def test_canonical_form_is_least_reduced_word(graph):
    # the braid/commutation closure knows nothing of the column state the
    # canonical form is stepped on
    assert graph.exact == (graph is not H3)
    rng = random.Random(61)
    for _ in range(40):
        word = element_of(graph, random_word(rng, 3, 10))
        words, _classes = oracle_reduced(graph, word)
        assert canonical_form(graph, word).word == min(words)


# ------------------------------------- exact vector state vs column matrix

A4 = CoxeterGraph.type_a(4)
B4 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (3, 4, 4)])
D4 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (2, 4, 3)])
F4 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 4), (3, 4, 3)])
AFFINE_A3 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (1, 4, 3)])
RANK4_MIXED = CoxeterGraph(4, [(1, 2, 4), (2, 3, 6), (3, 4, INFINITY), (1, 4, 6)])


def _column_level_sizes(graph, max_length):
    """Elements per length, grown on inverse column matrices and told apart
    by matrix_key alone."""
    cols = inverse_columns(graph, ())
    level = {matrix_key(graph, cols): cols}
    sizes = []
    while level and len(sizes) <= max_length:
        sizes.append(len(level))
        nxt = {}
        for cols in level.values():
            descents = descents_from_inverse(graph, cols)
            for a in graph.generators:
                if a not in descents:
                    child = list(cols)
                    apply_generator(child, graph, a - 1)
                    nxt.setdefault(matrix_key(graph, child), child)
        level = nxt
    return sizes


@pytest.mark.parametrize("graph, max_length, order", [
    (A4, 100, 120), (B4, 100, 384), (D4, 100, 192), (F4, 100, 1152),
    (AFFINE_A3, 10, None), (INF_RANK3, 10, None), (RANK4_MIXED, 10, None),
], ids=["A4", "B4", "D4", "F4", "affine-A3", "rank3-inf", "rank4-4-6-inf"])
def test_exact_state_matches_column_matrix(graph, max_length, order):
    # the engine tells elements apart by the n-vector state alone; the
    # column calculus must see the same elements per length and, for every
    # canonical word, the same left descents
    assert graph.exact
    levels = list(_levels(graph, max_length))
    sizes = [len(level) for level in levels]
    assert sizes == _column_level_sizes(graph, max_length)
    if order is not None:
        assert sum(sizes) == order
    for level in levels:
        for key, (word, state) in level.items():
            assert key == state == element_state(graph, word)
            assert state_descents(graph, state) == \
                tuple(descents_from_inverse(graph, inverse_columns(graph, word)))
