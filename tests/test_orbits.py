"""Counting over orbits: an involution sigma of the generators that fixes w
also maps the lower interval [e, w] onto itself and keeps every class and
reduced-word count, so the interval fold grows one element per orbit
{u, sigma(u)}.  These tests pin which graphs fold, that the folded growth
holds the lesser state of each orbit with its actual links, and that the
folded counts equal the unfolded ones and the brute-force oracle."""

import pytest

from wordposets import (
    BudgetError,
    CoxeterGraph,
    canonical_form,
    count_classes,
    count_reduced_words,
    iter_elements,
    oracle_reduced,
    p_n,
    w0_word,
)
from wordposets.coxeter import element_state, state_descents
from wordposets import reduced
from wordposets.reduced import _involutions, _levels

A3 = CoxeterGraph.type_a(3)
A4 = CoxeterGraph.type_a(4)
D4 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (2, 4, 3)])
AFFINE_A3 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (1, 4, 3)])
I2_5 = CoxeterGraph(2, [(1, 2, 5)])
B2 = CoxeterGraph(2, [(1, 2, 4)])
G2 = CoxeterGraph(2, [(1, 2, 6)])
B4 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (3, 4, 4)])
F4 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 4), (3, 4, 3)])
H3 = CoxeterGraph(3, [(1, 2, 5), (2, 3, 3)])


def _longest(graph):
    return list(iter_elements(graph))[-1]


def _flip(graph, word):
    # the state map of an involution that fixes the element, as the fold picks it
    top = element_state(graph, word[::-1])
    return next((flip for flip in _involutions(graph) if flip(top) == top), None)


def _sigma(graph, word):
    # the generator whose state block the flip moves onto each generator's
    flip, d = _flip(graph, word), graph.state_degree
    return flip and tuple(t // d + 1 for t in flip(range(graph.rank * d))[::d])


def _unfolded(monkeypatch):
    monkeypatch.setattr(reduced, "_involutions", lambda graph: ())


@pytest.mark.parametrize("rank", range(2, 9))
def test_longest_element_of_type_a_folds_by_reversal(rank):
    assert _sigma(CoxeterGraph.type_a(rank), w0_word(rank + 1)) == tuple(range(rank, 0, -1))


def test_longest_element_of_i2_5_folds_by_the_swap():
    # label 5 puts the state in a cyclotomic ring; sigma permutes its blocks
    assert I2_5.state_degree > 1
    assert _sigma(I2_5, (1, 2, 1, 2, 1)) == (2, 1)


@pytest.mark.parametrize("graph, word", [
    (D4, None), (AFFINE_A3, ()), (AFFINE_A3, (1, 3)), (AFFINE_A3, (2, 1, 3, 2))],
    ids=["D4-w0", "affine-A3-e", "affine-A3-13", "affine-A3-2132"])
def test_some_involution_fixes_the_element(graph, word):
    word = _longest(graph) if word is None else word
    sigma = _sigma(graph, word)
    assert sigma is not None and sigma != tuple(graph.generators)
    image = {a: sigma[a - 1] for a in graph.generators}
    assert all(image[image[a]] == a for a in graph.generators)
    assert all(graph.label(image[a], image[b]) == graph.label(a, b)
               for a in graph.generators for b in graph.generators)
    assert canonical_form(graph, [image[a] for a in word]) == canonical_form(graph, word)


@pytest.mark.parametrize("graph", [B2, B4, F4, G2, H3], ids=["B2", "B4", "F4", "G2", "H3"])
def test_no_involution_without_symmetric_labels_and_cartan(graph):
    # B2, F4 and G2 have a label-preserving swap, but the integer Cartan
    # split of labels 4 and 6 is not symmetric under it
    assert _involutions(graph) == ()
    assert _flip(graph, _longest(graph)) is None


@pytest.mark.parametrize("graph, word", [(A3, (1,)), (I2_5, (1, 2))], ids=["A3-s1", "I2-5-s1s2"])
def test_no_involution_fixes_a_moved_element(graph, word):
    assert len(_involutions(graph)) == 1
    assert _flip(graph, word) is None


def _decoded(levels, flip):
    # each level with its links as {state: {a: actual state of a*element}},
    # the code 2 * id + f read through the previous level's key order and,
    # when f is 1, the flip
    out, keys = [], []
    for level, links in levels:
        m = len(links) // len(level)
        out.append((level, {y: {a: flip(keys[c >> 1]) if c & 1 else keys[c >> 1]
                                for a in range(1, m) if (c := links[i * m + a]) >= 0}
                            for i, y in enumerate(level)}))
        keys = list(level)
    return out


@pytest.mark.parametrize("graph, word", [
    (A4, None), (D4, None), (AFFINE_A3, (2, 1, 3, 2, 4, 1, 3, 2))],
    ids=["A4-w0", "D4-w0", "affine-A3"])
def test_orbit_growth_keeps_the_lesser_state_with_actual_links(graph, word):
    word = _longest(graph) if word is None else word
    flip = _flip(graph, word)
    folded = _decoded(_levels(graph, word=word, flip=flip), flip)
    full = _decoded(_levels(graph, word=word), flip)
    assert len(folded) == len(full) == len(word) + 1
    for (level, links), (full_level, full_links) in zip(folded, full):
        assert set(level) == {min(y, flip(y)) for y in full_level}
        for y in level:
            assert level[y] == full_level[y]
            assert links[y] == full_links[y]


@pytest.mark.parametrize("graph, max_length, fixed", [
    (A3, None, 8), (A4, None, 8), (D4, None, 120), (AFFINE_A3, 7, 79)],
    ids=["A3", "A4", "D4", "affine-A3"])
def test_folded_counts_match_unfolded_and_oracle(graph, max_length, fixed, monkeypatch):
    # the fixed elements of S4 and S5 under reversal are the permutations
    # commuting with w0, 8 in each; D4 and affine A3 have several involutions
    words = [w for w in iter_elements(graph, max_length) if _flip(graph, w)]
    assert len(words) == fixed
    folded = [(count_classes(graph, w), count_reduced_words(graph, w)) for w in words]
    _unfolded(monkeypatch)
    assert [(count_classes(graph, w), count_reduced_words(graph, w)) for w in words] == folded
    for w, (classes, reduced_words) in zip(words, folded):
        oracle_words, oracle_classes = oracle_reduced(graph, w)
        assert (classes, reduced_words) == (oracle_classes, len(oracle_words))


@pytest.mark.parametrize("n, classes, words", [
    (5, 62, 768), (6, 908, 292_864), (7, 24698, 1_100_742_656)])
def test_longest_elements_of_s5_to_s7_keep_their_counts(n, classes, words):
    graph = CoxeterGraph.type_a(n - 1)
    assert _flip(graph, w0_word(n)) is not None
    assert p_n(n) == count_classes(graph, w0_word(n)) == classes
    assert count_reduced_words(graph, w0_word(n)) == words


CAP = 1500


def test_memo_cap_counts_orbit_representatives(monkeypatch):
    # S7's class count window holds at most 1,112 orbit representatives at
    # once, and at most 2,208 elements unfolded
    assert p_n(7, memo_cap=CAP) == 24698
    _unfolded(monkeypatch)
    with pytest.raises(BudgetError, match=f"class-count memo exceeds {CAP} entries"):
        p_n(7, memo_cap=CAP)


def test_memo_cap_boundary_is_the_orbit_window_peak():
    # the window peaks at exactly 1,112 orbit representatives on S7
    assert p_n(7, memo_cap=1112) == 24698
    with pytest.raises(BudgetError, match="class-count memo exceeds 1111 entries"):
        p_n(7, memo_cap=1111)


def test_class_count_takes_no_generator_steps_of_its_own(monkeypatch):
    # S7's folded interval has 2,544 orbit representatives and 7,632 growth
    # edges; the growth of w0's interval, all of S7, takes one step per
    # growth edge.  Stepping each Tu with len(T) >= 2 from T'u took 17,810.
    calls = []
    step_state = reduced.step_state
    monkeypatch.setattr(reduced, "step_state", lambda *args: calls.append(1) or step_state(*args))
    assert p_n(7) == 24698
    assert len(calls) == 7632
    graph, word = CoxeterGraph.type_a(6), w0_word(7)
    calls.clear()
    elements = sum(len(level) for level, _links in _levels(graph, word=word, flip=_flip(graph, word)))
    assert (elements, len(calls)) == (2544, 7632)


@pytest.mark.parametrize("graph, word, length, held", [
    (A4, w0_word(5), 10, False), (A4, (1, 4, 2, 3, 2), 5, True), (A3, None, 6, False)],
    ids=["S5-w0-folded", "S5-14232-folded", "A3-group"])
def test_growth_steps_a_level_only_after_yielding_it(graph, word, length, held, monkeypatch):
    # a level is read, yielded and only then grown, so the next level is not
    # built while the fold still uses this one (stepping each level's
    # children during its descent read raised P(9)'s peak RSS).  Between two
    # yields the growth steps once per edge out of the yielded level, and an
    # interval growth that holds u*w^-1 (w not the longest element of its
    # support) once per element of the next level for it.
    calls = []
    step_state = reduced.step_state
    monkeypatch.setattr(reduced, "step_state", lambda *args: calls.append(1) or step_state(*args))
    m = graph.rank + 1
    levels = _levels(graph) if word is None else _levels(graph, word=word, flip=_flip(graph, word))
    if held:
        edges = lambda level, links: sum(len(state_descents(graph, v)) for v in level.values())
    else:  # the whole group: A3, or S5 as the interval of its w0
        edges = lambda level, links: sum(m - 1 - len(links[i * m]) for i in range(len(level)))
    seen = []  # (steps before the yield, edges out, elements) per level
    for level, links in levels:
        seen.append((len(calls), edges(level, links), len(level)))
    assert len(seen) == length + 1 and seen[0][0] == 0
    for (before, out, _size), (after, _out, size) in zip(seen, seen[1:]):
        assert after - before == out + (size if held else 0)
    assert len(calls) == seen[-1][0] and seen[-1][1] == 0
