import functools
import json
import math
import pickle
import random
from decimal import Decimal, localcontext

import pytest

from oracles import (
    brute_is_reduced,
    brute_left_descents,
    brute_length,
    brute_same_element,
    inversions,
    poincare_polynomial,
    random_coxeter_graph,
    random_word,
    rewriting_closure,
    steinberg_series,
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
from wordposets import coxeter, networks, reduced
from wordposets.coxeter import (
    _column_sign,
    apply_generator,
    descents_from_inverse,
    element_state,
    inverse_columns,
    matrix_key,
    state_descents,
    step_state,
    word_columns,
)
from wordposets.reduced import (
    _levels,
    count_classes,
    count_reduced_words,
    iter_elements,
    oracle_reduced,
    wp_set,
)

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


@pytest.mark.parametrize("pair", [(0, 1), (1, 4)])
def test_graph_label_out_of_range(pair):
    with pytest.raises(ValueError, match="out of range"):
        CoxeterGraph(3).label(*pair)


def test_graph_is_not_equal_to_other_types():
    g = CoxeterGraph(2, [(1, 2, 3)])
    assert g.__eq__([[1, 3], [3, 1]]) is NotImplemented and g != [[1, 3], [3, 1]]


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
    (True, []),
    (3, [(True, 2, 3)]),
])
def test_graph_constructor_rejects(rank, edges):
    with pytest.raises(ValueError):
        CoxeterGraph(rank, edges)


def test_graph_constructor_names_a_bad_edge_as_given():
    with pytest.raises(GraphParseError, match=r"^edge \(1, 3, 3\): "):
        CoxeterGraph(2, [(1, 2, 3), (1, 3, 3)])
    with pytest.raises(GraphParseError, match=r"^edge \(2, 1, 4\): conflicting labels"):
        parse_graph("generators: 2\nedge: 1 2 3\nedge: 2 1 4\n")


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
    '{"rank": 3, "edges": 5}',
    '{"rank": 3, "edges": null}',
    '{"rank": 3, "edges": {}}',
])
def test_parse_graph_errors(text):
    with pytest.raises(GraphParseError):
        parse_graph(text)


def test_parse_graph_error_cites_line():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("generators: 2\nedge: 1 2\n")


def test_parse_graph_json_conflict_cites_entry():
    with pytest.raises(GraphParseError, match=r"^edge \[2, 1, 4\]: conflicting labels"):
        parse_graph('{"rank": 2, "edges": [[1, 2, 3], [2, 1, 4]]}')


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
    with pytest.raises(ValueError):
        is_reduced(A2, (True,))
    with pytest.raises(ValueError):
        count_classes(A2, (True, 2, True))


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


def test_canonical_element_is_a_frozen_record():
    elt = CanonicalElement(word=(1, 2, 1))
    assert elt == CanonicalElement((1, 2, 1)) == canonical_form(A2, (2, 1, 2))
    assert elt != CanonicalElement((1, 2))
    assert elt.__eq__((1, 2, 1)) is NotImplemented and elt != (1, 2, 1)
    assert hash(elt) == hash(CanonicalElement((1, 2, 1)))
    assert len({elt, CanonicalElement((1, 2, 1)), CanonicalElement(())}) == 2
    assert repr(elt) == "CanonicalElement(word=(1, 2, 1))"
    assert repr(CanonicalElement(())) == "CanonicalElement(word=())"
    with pytest.raises(AttributeError):
        elt.word = (1,)
    assert elt.word == (1, 2, 1)
    assert pickle.loads(pickle.dumps(elt)) == elt


def test_multiply_left_examples():
    assert multiply_left(A2, 1, ()) == (1,)
    assert multiply_left(A2, 1, (1, 2)) == (2,)
    w = multiply_left(A2, 2, (1, 2))
    assert len(w) == 3
    assert canonical_form(A2, w) == canonical_form(A2, (2, 1, 2))


def test_multiply_left_validates_inputs():
    with pytest.raises(ValueError):
        multiply_left(A2, 0, (1,))
    with pytest.raises(ValueError):
        multiply_left(A2, True, (1,))
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


def test_element_queries_return_the_canonical_word():
    # element_of, multiply_left and delete_left_descent answer with the least
    # reduced word of their element, as canonical_form does
    rng = random.Random(67)
    graphs = [H3, AFFINE_A2] + [
        random_coxeter_graph(rng, labels=(2, 3, 4, 5, 6, INFINITY)) for _ in range(40)]
    moved = 0
    for graph in graphs:
        word = _grown_reduced_word(graph, rng, 8)
        least = canonical_form(graph, word).word
        moved += word != least
        a = rng.randint(1, graph.rank)
        assert element_of(graph, word) == element_of(graph, (a, a) + word) == least
        state = element_state(graph, word)
        for a in graph.generators:
            out = multiply_left(graph, a, word)
            assert element_state(graph, out) == step_state(graph, state, a)
            assert out == canonical_form(graph, out).word
            if a in left_descents(graph, word):
                assert coxeter.delete_left_descent(graph, a, word) == out
    assert moved >= 10  # most grown words are not the least word of their element


def test_delete_left_descent_refuses_a_non_descent():
    with pytest.raises(RuntimeError, match="not a left descent"):
        coxeter.delete_left_descent(A2, 2, (1, 2))
    assert coxeter.delete_left_descent(A2, 1, (1, 2)) == (2,)
    assert coxeter.delete_left_descent(S4, 2, (2, 1, 2, 3)) == (1, 2, 3)


def test_least_word_read_ends_at_the_identity(monkeypatch):
    # a misread descent set raises rather than returning a wrong word or looping
    w0 = (1, 2, 1, 3, 2, 1)
    monkeypatch.setattr(coxeter, "state_descents", lambda graph, state: ())
    with pytest.raises(SignToleranceError):
        canonical_form(S4, w0)
    with pytest.raises(SignToleranceError):
        element_of(S4, w0)
    monkeypatch.setattr(coxeter, "state_descents", lambda graph, state: (1,))
    with pytest.raises(SignToleranceError):
        canonical_form(A2, (2,))


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
    levels = [level for level, _links in _levels(graph, max_length)]
    sizes = [len(level) for level in levels]
    assert sizes == _column_level_sizes(graph, max_length)
    if order is not None:
        assert sum(sizes) == order
    for level in levels:
        for state, word in level.items():
            assert state == element_state(graph, word)
            assert state_descents(graph, state) == \
                tuple(descents_from_inverse(graph, inverse_columns(graph, word)))


# ------------------------------------ ring state vs growth series and columns

H4 = CoxeterGraph(4, [(1, 2, 5), (2, 3, 3), (3, 4, 3)])
H5_INF = CoxeterGraph(3, [(1, 2, 5), (2, 3, INFINITY)])
RANK4_RING = CoxeterGraph(4, [(1, 2, 4), (2, 3, 5), (3, 4, 7), (1, 4, INFINITY)])
# finite parabolic subgroups as (|J|, degrees): the empty one, the single
# generators, and the finite pairs; every larger J is infinite
H5_INF_PARABOLICS = [(0, ())] + [(1, (2,))] * 3 + [(2, (2, 5)), (2, (2, 2))]
RANK4_RING_PARABOLICS = [(0, ())] + [(1, (2,))] * 4 + [
    (2, (2, 4)), (2, (2, 5)), (2, (2, 7)), (2, (2, 2)), (2, (2, 2))]


@pytest.mark.parametrize("graph, series, column_length", [
    (H3, poincare_polynomial((2, 6, 10)), 15),
    (H4, poincare_polynomial((2, 12, 20, 30)), 10),
    (H5_INF, steinberg_series(H5_INF_PARABOLICS, 20), 12),
    (RANK4_RING, steinberg_series(RANK4_RING_PARABOLICS, 8), 8),
], ids=["H3", "H4", "5-inf", "rank4-4-5-7-inf"])
def test_ring_state_matches_growth_series_and_column_matrix(graph, series, column_length):
    # elements per length against growth series that use no root
    # arithmetic; then, on words short enough for the floats, the same
    # elements per length and the same left descents as the column calculus
    assert graph.state_degree > 1
    levels = [level for level, _links in _levels(graph, len(series) - 1)]
    assert [len(level) for level in levels] == series
    levels = levels[:column_length + 1]
    assert [len(level) for level in levels] == _column_level_sizes(graph, column_length)
    for level in levels:
        for state, word in level.items():
            assert state == element_state(graph, word)
            assert state_descents(graph, state) == \
                tuple(descents_from_inverse(graph, inverse_columns(graph, word)))


FLOAT_CALCULUS = ("apply_generator", "_column_sign", "matrix_key", "inverse_columns",
                  "descents_from_inverse", "identity_columns")


def _grown_reduced_word(graph, rng, length):
    """A reduced word grown by prepending random non-descents, up to
    ``length`` letters or until every generator is a left descent."""
    word = ()
    while len(word) < length:
        ups = [a for a in graph.generators if a not in left_descents(graph, word)]
        if not ups:
            break
        word = (rng.choice(ups),) + word
    return word


def _check_multiply_left(graph, word):
    # a*w drops one letter exactly when a is a left descent, stays reduced,
    # and is the element one generator step from w
    descents = left_descents(graph, word)
    for a in graph.generators:
        out = multiply_left(graph, a, word)
        assert is_reduced(graph, out)
        assert len(out) == len(word) + (-1 if a in descents else 1)
        assert element_state(graph, out) == step_state(graph, element_state(graph, word), a)


def test_engines_never_touch_the_float_calculus(monkeypatch):
    # the column calculus is the tests' reference only: every engine answers
    # on H3 and H4, and multiply_left also on the {5, inf} and {4, 5, 7, inf}
    # graphs, from the exact state alone
    def refuse(*args, **kwargs):
        raise AssertionError("the float column calculus was called")

    for module in (coxeter, reduced, networks):
        for name in FLOAT_CALCULUS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for graph, degrees, length in [(H3, (2, 6, 10), 10), (H4, (2, 12, 20, 30), 8)]:
        elements = list(iter_elements(graph, length))
        assert len(elements) == sum(poincare_polynomial(degrees)[:length + 1])
        word = elements[-1]
        words, classes = oracle_reduced(graph, word)
        assert is_reduced(graph, word) and not is_reduced(graph, word + word[:1])
        assert element_of(graph, word + word[-1:]) == word[:-1]
        assert count_classes(graph, word) == len(wp_set(graph, word)) == classes
        assert count_reduced_words(graph, word) == len(words)
        assert canonical_form(graph, max(words)).word == min(words)
        assert left_descents(graph, word) == {w[0] for w in words}
        for sample in random.Random(length).sample(elements, 40):
            _check_multiply_left(graph, sample)
    rng = random.Random(9)
    w0 = _grown_reduced_word(H4, rng, 100)
    assert len(w0) == 60
    _check_multiply_left(H4, w0)
    for graph in (H5_INF, RANK4_RING):
        for _ in range(5):
            _check_multiply_left(graph, _grown_reduced_word(graph, rng, 40))
    assert networks.search_M(5, {2, 3, 5}).value == 3


def _value_at(poly, x):
    return functools.reduce(lambda acc, c: acc * x + c, reversed(poly), 0)


def test_cyclotomic_polynomials_multiply_to_x_n_minus_one():
    # prod over d | n of Phi_d(x) = x^n - 1, read at x = 2 and x = 3, and
    # deg Phi_n = phi(n); the large n have square factors, as ring periods do
    for n in [*range(1, 301), 720, 1008, 2002, 2520, 4620, 5040]:
        assert len(coxeter._cyclotomic(n)) - 1 == sum(math.gcd(k, n) == 1 for k in range(1, n + 1))
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for x in (2, 3):
            assert math.prod(_value_at(coxeter._cyclotomic(d), x) for d in divisors) == x ** n - 1


# ----------------------------------------- exact signs in the real subfield

PI = Decimal("3.14159265358979323846264338327950288419716939937510"
             "58209749445923078164062862089986280348253421170679")


def _high_precision_value(coeffs, period):
    """sum_k coeffs[k] b_k, b_0 = 1 and b_k = 2 cos(k pi / period), to about
    100 digits: each cosine from its Taylor series."""
    with localcontext() as ctx:
        ctx.prec = 110
        total = Decimal(coeffs[0])
        for k, c in enumerate(coeffs[1:], 1):
            x, term, cos, i = PI * k / period, Decimal(1), Decimal(1), 0
            while abs(term) > Decimal(10) ** -105:
                i += 2
                term *= -x * x / (i * (i - 1))
                cos += term
            total += c * 2 * cos
        return +total


def _float_read_is_open(graph, coeffs):
    """Whether the certified float read leaves the sign of coeffs open."""
    big = max(map(abs, coeffs))
    value = sum(c / big * x for c, x in zip(coeffs, graph.state_basis))
    return abs(value) <= 2.0 ** -47 * len(coeffs) * sum(map(abs, coeffs)) / big


def test_state_degree_is_half_the_cyclotomic_degree():
    # each coordinate lies in Z[2 cos(pi / L)], of degree phi(2L) / 2
    path = CoxeterGraph(4, [(1, 2, 7), (2, 3, 11), (3, 4, 13)])
    cycle = CoxeterGraph(4, [(1, 2, 5), (2, 3, 7), (3, 4, 8), (1, 4, 9)])
    assert [g.state_degree for g in (H3, H4, path, cycle)] == [2, 2, 360, 576]
    assert element_state(cycle) == ((1,) + (0,) * 575) * 4  # the identity


@pytest.mark.parametrize("edges", [
    [(1, 2, 5), (2, 3, 7)], [(1, 2, 8), (2, 3, 5)], [(1, 2, 7), (2, 3, 11), (3, 4, 13)],
    [(1, 2, 5), (2, 3, 7), (3, 4, 8), (1, 4, 9)]], ids=["5-7", "8-5", "7-11-13", "5-7-8-9"])
def test_ring_rows_multiply_by_twice_the_label_cosine(edges):
    # the rows' block from y_a to a neighbour y_j is the product by
    # 2 cos(pi / m) in the basis 1, 2 cos(k pi / L); every column, read in
    # floats, also those whose products pass k = d or k = L / 2
    graph = CoxeterGraph(max(j for _i, j, _m in edges), edges)
    d, basis = graph.state_degree, graph.state_basis
    for a, j, m in edges + [(j, a, m) for a, j, m in edges]:
        block = [[0] * d for _ in range(d)]
        for x, k, c in graph.state_rows[a - 1]:
            if x // d == j - 1:
                block[k % d][x % d] -= c
        for q, column in enumerate(block):
            terms = [c * b for c, b in zip(column, basis)]
            assert abs(sum(terms) - 2 * math.cos(math.pi / m) * basis[q]) <= \
                1e-12 * (1 + sum(map(abs, terms)))


def test_fibonacci_values_read_exactly_on_h3():
    # (F_(n+1), -F_n) holds F_(n+1) - F_n phi = (-1/phi)^n, a descent exactly
    # for odd n; past n of about 40 the float read of coefficients near
    # phi^n cannot see a value near phi^-n
    fib = [0, 1]
    while len(fib) < 92:
        fib.append(fib[-1] + fib[-2])
    for n in range(91):
        state = (fib[n + 1], -fib[n]) + (1, 0) * 2
        assert state_descents(H3, state) == ((1,) if n % 2 else ())
        assert state_descents(H3, state[2:] + state[:2]) == ((3,) if n % 2 else ())
    assert _float_read_is_open(H3, (fib[91], -fib[90]))


def test_near_zero_values_of_a_seven_ring_are_decided_exactly():
    # u = -2 cos(3 pi / 7) = -1 + b_1 - b_2 has |u| = 0.445 while its
    # coefficients grow like 1.8^n; from n of about 25 the float read of u^n
    # is open, and the exact read agrees with a 100-digit evaluation
    graph = CoxeterGraph(2, [(1, 2, 7)])
    assert graph.state_degree == 3
    v, open_reads = (1, 0, 0), 0
    for n in range(100):
        value = _high_precision_value(v, 7)
        assert (value < 0) == (n % 2 == 1)
        assert state_descents(graph, v + (1, 0, 0)) == ((1,) if value < 0 else ())
        open_reads += _float_read_is_open(graph, v)
        x, y, z = v
        v = (-x + y, x - y - z, z - x)
    assert open_reads >= 70


def test_near_zero_values_of_a_larger_ring_match_a_high_precision_read():
    # labels 5 and 7: L = 35, d = 12.  Coefficients near 10^30 with a
    # constant term that cancels their sum to within 1/2 leave every float
    # read open; none raises, and each sign is the 100-digit one
    graph = CoxeterGraph(3, [(1, 2, 5), (2, 3, 7)])
    d = graph.state_degree
    assert d == 12
    rng = random.Random(35)
    for _ in range(20):
        coeffs = [0] + [rng.randint(-10 ** 30, 10 ** 30) for _ in range(d - 1)]
        coeffs[0] = -int(_high_precision_value(coeffs, 35).to_integral_value())
        assert _float_read_is_open(graph, coeffs)
        value = _high_precision_value(coeffs, 35)
        state = tuple(coeffs) + element_state(graph)[d:]
        assert state_descents(graph, state) == ((1,) if value < 0 else ())
