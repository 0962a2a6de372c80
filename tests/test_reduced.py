import os
import random

import pytest

from oracles import fully_commutative_count, least_word_class_count, random_word, standard_tableaux
from wordposets import (
    BudgetError,
    CanonicalElement,
    CommutationAlphabet,
    CoxeterGraph,
    INFINITY,
    NotReducedError,
    SignToleranceError,
    WPSet,
    WordPoset,
    bound_check,
    build_word_poset,
    canonical_form,
    canonical_word,
    count_classes,
    count_linear_extensions,
    count_reduced_words,
    element_of,
    enumerate_linear_extensions,
    is_reduced,
    iter_elements,
    oracle_enumerate_class,
    oracle_reduced,
    p_n,
    validate,
    w0_word,
    wp_set,
)
from wordposets import reduced
from wordposets.coxeter import element_state
from wordposets.reduced import ClassCounter

A2 = CoxeterGraph(2, [(1, 2, 3)])
B2 = CoxeterGraph(2, [(1, 2, 4)])
S4 = CoxeterGraph.type_a(3)
B3 = CoxeterGraph(3, [(1, 2, 3), (2, 3, 4)])
W0_S4 = (1, 2, 1, 3, 2, 1)


def test_wp_set_identity():
    wps = wp_set(S4, ())
    assert len(wps) == 1
    assert wps.element.word == ()
    only = next(iter(wps))
    assert len(only) == 0


def test_wp_set_is_a_mutable_record():
    e = CanonicalElement((1, 2, 1))
    first, second = WPSet(e), WPSet(element=e)
    assert first.posets == {} and first.posets is not second.posets
    first.posets[(1,)] = "poset"
    assert second.posets == {} and first != second
    assert WPSet(e, {(1,): "poset"}) == first == WPSet(posets={(1,): "poset"}, element=e)
    assert first.__eq__(e) is NotImplemented and first != e
    with pytest.raises(TypeError):
        hash(first)
    assert len(first) == 1 and list(first) == ["poset"]
    assert repr(first) == "WPSet(element=CanonicalElement(word=(1, 2, 1)), posets={(1,): 'poset'})"
    wps = wp_set(A2, (2, 1, 2))
    assert wps == wp_set(A2, (1, 2, 1))
    assert repr(wps) == (
        "WPSet(element=CanonicalElement(word=(1, 2, 1)), posets={"
        "(1, 2, 1): WordPoset(labels=(1, 2, 1), covers=[(0, 1), (1, 2)]), "
        "(2, 1, 2): WordPoset(labels=(2, 1, 2), covers=[(0, 1), (1, 2)])})")
    assert len(wps) == 2 and list(wps) == list(wps.posets.values())
    wps.element = e
    assert wps.element is e


def test_wp_set_a2():
    wps = wp_set(A2, (1, 2, 1))
    assert len(wps) == 2
    assert sorted(wps.posets) == [(1, 2, 1), (2, 1, 2)]
    for word, poset in wps.posets.items():
        # each class is a single chain here: three elements, two covers
        assert len(poset) == 3
        assert len(poset.covers()) == 2
        assert list(enumerate_linear_extensions(poset)) == [word]


def test_wp_set_s4_longest():
    wps = wp_set(S4, W0_S4)
    assert len(wps) == 8
    assert wps.element.word == W0_S4
    alphabet = CommutationAlphabet.from_coxeter(S4)
    seen_words = set()
    for poset in wps:
        assert len(poset) == 6
        assert validate(poset, alphabet) == []
        for w in enumerate_linear_extensions(poset, alphabet):
            assert is_reduced(S4, w)
            assert canonical_form(S4, w).word == W0_S4
            seen_words.add(w)
    assert len(seen_words) == 16


def test_wp_set_posets_have_word_length_elements():
    rng = random.Random(13)
    for _ in range(20):
        word = element_of(B3, random_word(rng, 3, 9))
        for poset in wp_set(B3, word):
            assert len(poset) == len(word)


def test_wp_set_requires_reduced():
    with pytest.raises(NotReducedError):
        wp_set(A2, (1, 1))


def test_count_reduced_words_examples():
    assert count_reduced_words(A2, ()) == 1
    assert count_reduced_words(A2, (1, 2, 1)) == 2
    assert count_reduced_words(S4, W0_S4) == 16


def test_count_classes_examples():
    assert count_classes(A2, ()) == 1
    assert count_classes(A2, (1, 2, 1)) == 2
    assert count_classes(S4, W0_S4) == 8


def test_count_classes_hand_recursion_a2():
    # D(121) = {1,2}, no independent pair, so C(121) = C(21) + C(12)
    assert count_classes(A2, (2, 1)) == 1
    assert count_classes(A2, (1, 2)) == 1
    assert count_classes(A2, (1, 2, 1)) == \
        count_classes(A2, (2, 1)) + count_classes(A2, (1, 2))


def test_oracle_reduced_examples():
    words, classes = oracle_reduced(A2, ())
    assert words == {()} and classes == 1
    words, classes = oracle_reduced(A2, (1, 2, 1))
    assert words == {(1, 2, 1), (2, 1, 2)} and classes == 2
    words, classes = oracle_reduced(B2, (1, 2, 1, 2))
    assert words == {(1, 2, 1, 2), (2, 1, 2, 1)} and classes == 2


def test_oracle_reduced_requires_reduced():
    with pytest.raises(NotReducedError):
        oracle_reduced(A2, (2, 2))


def test_oracle_reduced_budget():
    with pytest.raises(BudgetError):
        oracle_reduced(S4, W0_S4, max_words=5)


@pytest.mark.parametrize("graph, word, size, classes", [
    (CoxeterGraph(3, [(1, 2, 5), (2, 3, INFINITY)]), (1, 2, 3) * 6, 32, 1),
    (S4, W0_S4, 16, 8),
], ids=["one-class", "S4-w0"])
def test_oracle_reduced_budget_edge(graph, word, size, classes):
    # a cap of exactly the word count suffices, and no single class trips it
    words, found = oracle_reduced(graph, word, max_words=size)
    assert (len(words), found) == (size, classes)
    assert oracle_reduced(graph, word) == (words, found)
    with pytest.raises(BudgetError, match=f"^reduced-word closure exceeds {size - 1} words$"):
        oracle_reduced(graph, word, max_words=size - 1)


def test_counts_match_oracle_on_random_b3_elements():
    rng = random.Random(19)
    for _ in range(25):
        word = element_of(B3, random_word(rng, 3, 9))
        words, classes = oracle_reduced(B3, word)
        assert count_reduced_words(B3, word) == len(words)
        assert count_classes(B3, word) == classes
        assert len(wp_set(B3, word)) == classes


def test_recursion_and_construction_agree_on_s4():
    for word in iter_elements(S4):
        assert count_classes(S4, word) == len(wp_set(S4, word))


def test_commutation_moves_preserve_reducedness():
    alphabet = CommutationAlphabet.from_coxeter(B3)
    rng = random.Random(47)
    for _ in range(15):
        word = element_of(B3, random_word(rng, 3, 9))
        for member in oracle_enumerate_class(word, alphabet):
            assert is_reduced(B3, member)


def test_class_counter_shares_memo():
    counter = ClassCounter(S4)
    values = {word: counter.count(word) for word in iter_elements(S4)}
    assert values[W0_S4] == 8
    assert sum(values.values()) == sum(
        count_classes(S4, w) for w in iter_elements(S4))


def test_class_counter_checks_its_word():
    counter = ClassCounter(S4)
    for count in (counter.count, lambda word: count_classes(S4, word)):
        for bad in ((0,), (5,)):
            with pytest.raises(ValueError, match="not a generator index"):
                count(bad)
        with pytest.raises(NotReducedError, match=r"\[1, 1\]"):
            count((1, 1))


def test_memo_cap_enforced():
    with pytest.raises(BudgetError):
        count_classes(S4, W0_S4, memo_cap=3)
    with pytest.raises(BudgetError):
        wp_set(S4, W0_S4, memo_cap=3)


def test_memo_cap_bounds_the_live_window():
    # S8 has 40,320 elements but at most 18,208 in five consecutive levels
    # (alpha = 4 commuting generators plus the level being counted), and
    # two consecutive levels of S5 hold at most 42 of its 120 elements
    assert p_n(8, memo_cap=30_000) == 1232944
    assert count_reduced_words(CoxeterGraph.type_a(4), w0_word(5), memo_cap=60) == 768


def test_bound_check_examples():
    assert bound_check(A2, (1,))
    assert bound_check(S4, W0_S4)  # 9 * 64 <= 4 * 729


def test_bound_check_all_of_s5():
    s5 = CoxeterGraph.type_a(4)
    for word in iter_elements(s5):
        if word:
            assert bound_check(s5, word)


def test_bound_check_rejects_identity_and_non_reduced():
    with pytest.raises(ValueError):
        bound_check(S4, ())
    with pytest.raises(NotReducedError):
        bound_check(S4, (1, 1))


def test_iter_elements_s4():
    words = list(iter_elements(S4))
    assert len(words) == 24
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    by_length = [lengths.count(k) for k in range(7)]
    assert by_length == [1, 3, 5, 6, 5, 3, 1]
    for w in words:
        assert canonical_form(S4, w).word == w
    assert len(set(words)) == 24


def test_iter_elements_respects_max_length():
    inf2 = CoxeterGraph(2, [(1, 2, INFINITY)])
    words = list(iter_elements(inf2, max_length=3))
    assert words == [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2)]


def test_reduced_word_count_equals_extension_sum():
    rng = random.Random(53)
    for _ in range(10):
        word = element_of(S4, random_word(rng, 3, 8))
        wps = wp_set(S4, word)
        assert count_reduced_words(S4, word) == sum(
            count_linear_extensions(p) for p in wps)


H3 = CoxeterGraph(3, [(1, 2, 5), (2, 3, 3)])


@pytest.mark.parametrize("graph,order", [(B3, 48), (H3, 120)], ids=["B3", "H3"])
def test_class_count_invariant_under_inversion(graph, order):
    # reversing a reduced word gives a reduced word of the inverse and maps
    # commutation classes onto commutation classes, so C(w) = C(w^-1)
    elements = list(iter_elements(graph))
    assert len(elements) == order
    for word in elements:
        assert count_classes(graph, word) == count_classes(graph, word[::-1])


def test_empty_descent_read_off_non_identity_raises(monkeypatch):
    # only the identity has no left descent; reading none elsewhere means a
    # sign was misread, which must not pass for a leaf of the recursion
    monkeypatch.setattr(reduced, "descent_reader", lambda graph: lambda state: 0)
    with pytest.raises(SignToleranceError):
        count_classes(S4, W0_S4)
    with pytest.raises(SignToleranceError):
        wp_set(S4, W0_S4)


def test_dropped_descent_read_raises_in_counters(monkeypatch):
    # a descent lost by the read (here only where another one is left, so
    # the read is never empty) disagrees with the links the interval was
    # grown by; both recursions must refuse rather than count fewer classes
    descent_reader = reduced.descent_reader

    def reader(graph):
        read = descent_reader(graph)

        def dropped(state):
            bits = read(state)
            return bits & bits - 1 or bits
        return dropped

    monkeypatch.setattr(reduced, "descent_reader", reader)
    with pytest.raises(SignToleranceError):
        count_classes(S4, W0_S4)
    with pytest.raises(SignToleranceError):
        wp_set(S4, W0_S4)


def test_misread_below_the_top_of_w_j_raises(monkeypatch):
    # s1 s3 has two descents and is fixed by the diagram flip of S4; a read
    # that drops its least descent there alone leaves the top state's read,
    # and so the W_J growth of w0, as it is: the level's own read must refuse
    s1s3 = element_state(S4, (1, 3))
    descent_reader = reduced.descent_reader

    def reader(graph):
        read = descent_reader(graph)
        return lambda state: 0b1000 if state == s1s3 else read(state)

    monkeypatch.setattr(reduced, "descent_reader", reader)
    with pytest.raises(SignToleranceError):
        count_classes(S4, W0_S4)
    with pytest.raises(SignToleranceError):
        count_reduced_words(S4, W0_S4)


def test_interval_ending_at_two_elements_raises(monkeypatch):
    # grown from the identity, the interval of s1 s2 must end at one
    # element; a read that adds descent 3 to s1 (the state of s2 * w^-1) and
    # none to s3 s1 grows a stray s3 s2 beside s1 s2 on the top level
    s1, s3s1 = element_state(S4, (1,)), element_state(S4, (3, 1))
    descent_reader = reduced.descent_reader

    def reader(graph):
        read = descent_reader(graph)
        return lambda state: 0b1010 if state == s1 else 0 if state == s3s1 else read(state)

    monkeypatch.setattr(reduced, "descent_reader", reader)
    with pytest.raises(SignToleranceError):
        count_classes(S4, (1, 2))
    with pytest.raises(SignToleranceError):
        wp_set(S4, (1, 2))


@pytest.mark.parametrize("graph,calls", [(S4, 8), (B3, 14), (H3, 44)],
                         ids=["S4", "B3", "H3"])
def test_wp_set_builds_each_class_once(graph, calls, monkeypatch):
    # the fold below the longest element carries least words, not posets;
    # each class of the longest element is one build_word_poset call, and
    # a class reached from a second minimal letter would be built twice
    made = []
    build_word_poset = reduced.build_word_poset
    monkeypatch.setattr(reduced, "adjoin_min", lambda *args, **kwargs: pytest.fail("wp_set adjoined"))
    monkeypatch.setattr(reduced, "build_word_poset",
                        lambda *args, **kwargs: made.append(args[0]) or build_word_poset(*args, **kwargs))
    w0 = list(iter_elements(graph))[-1]
    wp_set(graph, w0)
    assert len(made) == calls == count_classes(graph, w0)


AFFINE_A2 = CoxeterGraph(3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)])


@pytest.mark.parametrize("graph,max_length", [(B3, None), (H3, None), (AFFINE_A2, 7)],
                         ids=["B3", "H3", "affine-A2"])
def test_wp_set_class_words_match_oracle(graph, max_length):
    # the keys are the least words of the commutation classes, ascending,
    # and the element is named by the least reduced word of all
    alphabet = CommutationAlphabet.from_coxeter(graph)
    for word in iter_elements(graph, max_length):
        words, _ = oracle_reduced(graph, word)
        wps = wp_set(graph, word)
        assert list(wps.posets) == sorted(
            {min(oracle_enumerate_class(v, alphabet)) for v in words})
        assert wps.element.word == min(words)


@pytest.mark.parametrize("graph,max_length", [(B3, None), (H3, None), (AFFINE_A2, 7)],
                         ids=["B3", "H3", "affine-A2"])
def test_wp_set_keys_are_poset_labels(graph, max_length):
    # each poset is the word poset of its class's least word, numbered in
    # word order, so its labels read that word forwards
    alphabet = CommutationAlphabet.from_coxeter(graph)
    for word in iter_elements(graph, max_length):
        for key, poset in wp_set(graph, word).posets.items():
            assert key == canonical_word(poset, alphabet) == poset.labels
            assert poset == build_word_poset(key, alphabet)


X3_INF = CoxeterGraph(3, [(1, 2, INFINITY), (2, 3, 3)])


@pytest.mark.parametrize("graph,max_length", [(B3, None), (H3, None), (AFFINE_A2, 7), (X3_INF, 8)],
                         ids=["B3", "H3", "affine-A2", "X3inf"])
def test_oracle_class_count_is_the_commutation_partition(graph, max_length):
    # the one flood's class count against the commutation classes of its
    # words taken one by one; labels 4, 5, 3 and inf between them
    alphabet = CommutationAlphabet.from_coxeter(graph)
    for word in iter_elements(graph, max_length):
        words, classes = oracle_reduced(graph, word)
        parts = {frozenset(oracle_enumerate_class(v, alphabet)) for v in words}
        assert classes == len(parts)
        assert set().union(*parts) == words


@pytest.mark.parametrize("graph, word, calls", [
    (S4, W0_S4, 16), (B3, (1, 2, 1, 3, 2, 1, 3, 2, 3), 42)], ids=["S4-w0", "B3-w0"])
def test_oracle_reads_each_words_braid_moves_once(graph, word, calls, monkeypatch):
    # one pass: a second walk over the words would read some moves again
    read = []
    braid_moves = reduced._braid_moves
    monkeypatch.setattr(reduced, "_braid_moves",
                        lambda graph, w: read.append(w) or braid_moves(graph, w))
    words, _classes = oracle_reduced(graph, word)
    assert len(read) == len(words) == calls
    assert set(read) == words


AFFINE_A4 = CoxeterGraph(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (1, 5, 3)])


def test_counts_match_oracle_on_an_odd_cycle():
    # on the 5-cycle a commuting T has at most 2 letters, while a greedy
    # split into pairwise non-commuting groups gives 3 groups; the window
    # is sized by the first, and the counts hold either way
    subsets = reduced._independent_subsets(AFFINE_A4, AFFINE_A4.generators)
    assert max(-size for _j, _a, size, _sign in subsets) == 2
    words = list(iter_elements(AFFINE_A4, 8))
    assert len(words) == 1231
    for word in words:
        oracle_words, classes = oracle_reduced(AFFINE_A4, word)
        assert count_classes(AFFINE_A4, word) == classes
        assert count_reduced_words(AFFINE_A4, word) == len(oracle_words)


def test_memo_cap_boundary_on_an_odd_cycle_is_a_two_level_window():
    # a commuting T on the 5-cycle has at most 2 letters, so the class count
    # keeps 2 levels of counts below the one it fills, not the 3 of the
    # greedy split; the peak is 85 counts (111 with 3 levels).  867 is the
    # class count the brute-force closure gives (147,312 reduced words).
    word = (5, 4, 2, 3, 4, 5, 2, 1, 2, 4, 3, 5, 4, 2, 3, 5, 4, 1)
    assert reduced._count_plan(AFFINE_A4.commuting)[1] == 2
    assert count_classes(AFFINE_A4, word, memo_cap=85) == 867
    with pytest.raises(BudgetError, match="class-count memo exceeds 84 entries"):
        count_classes(AFFINE_A4, word, memo_cap=84)


def test_count_plans_are_shared_by_graphs_that_commute_alike():
    # the subset steps depend only on which generators commute: B3 and A3,
    # both paths, share one plan; the window is the largest commuting set
    assert reduced._count_plan(B3.commuting) is reduced._count_plan(S4.commuting)
    assert reduced._count_plan(AFFINE_A2.commuting)[1] == 1
    assert reduced._count_plan(CoxeterGraph(6).commuting)[1] == 6
    assert reduced._count_plan(CoxeterGraph.type_a(9).commuting)[1] == 5


def test_class_count_window_is_sized_by_the_word_support():
    # w0 of S4 on generators 1..3 of a rank-6 graph whose 4, 5 and 6 commute
    # with everything: the most pairwise-commuting letters of the support
    # {1, 2, 3} are 2 ({1, 3}), of the whole graph 5 ({1, 3, 4, 5, 6}); with
    # a two-level window below the level being counted the peak is 16 counts
    graph, word = CoxeterGraph(6, [(1, 2, 3), (2, 3, 3)]), (1, 2, 1, 3, 2, 1)
    assert count_classes(graph, word, memo_cap=16) == 8
    with pytest.raises(BudgetError, match="class-count memo exceeds 15 entries"):
        count_classes(graph, word, memo_cap=15)


@pytest.mark.parametrize("graph, word, wj", [
    (S4, W0_S4, True), (AFFINE_A2, (1, 2, 3, 1, 2, 3, 2), False)], ids=["S4-w0", "affine-A2"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_fold_steps_once_per_level(graph, word, wj, depth):
    # one step call per level above the identity, returning that level's
    # values in id order, with at most ``depth`` levels of links and values;
    # S4's w0 grows W_J (no value per state), the affine word its interval
    calls, m = [], graph.rank + 1

    def step(trail, window, swap):
        calls.append((len(trail), len(window)))
        return [len(calls)] * (len(trail[-1]) // m)
    levels = list(reduced._fold(graph, step, 0, depth, None, "test", word=word))
    assert calls == [(min(i + 1, depth), min(i, depth)) for i in range(1, len(word) + 1)]
    assert [values for _level, values in levels] == [[i] * len(level) for i, (level, _) in enumerate(levels)]
    assert all((value is None) == wj for level, _values in levels[1:] for value in level.values())


H5_INF = CoxeterGraph(3, [(1, 2, 5), (2, 3, INFINITY)])


@pytest.mark.parametrize("k", [10, 15, 20, 25])
def test_float_path_counts_or_refuses_long_words(k):
    # coordinates of (1 2 3)^k grow quickly (a float column calculus lost
    # their signs by k = 10); the exact state must count.  The word has one
    # class, whose poset has 2^(k-1) linear extensions because each adjacent
    # 3 1 may swap on its own.  The closure confirms it up to k = 15 (at
    # k = 20 it takes minutes, at 25 it passes its word cap);
    # count_reduced_words builds no poset, so no position cap stops it.
    word = (1, 2, 3) * k
    assert count_classes(H5_INF, word) == 1
    if k <= 15:
        words, classes = oracle_reduced(H5_INF, word)
        assert (len(words), classes) == (2 ** (k - 1), 1)
    assert count_reduced_words(H5_INF, word) == 2 ** (k - 1)


B4 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (3, 4, 4)])


@pytest.mark.parametrize("graph, shape, words", [
    (S4, (3, 2, 1), 16),
    (CoxeterGraph.type_a(4), (4, 3, 2, 1), 768),
    (CoxeterGraph.type_a(5), (5, 4, 3, 2, 1), 292_864),
    (B3, (3, 3, 3), 42),
    (B4, (4, 4, 4, 4), 24_024),
    (CoxeterGraph.type_a(6), (6, 5, 4, 3, 2, 1), 1_100_742_656),
    (CoxeterGraph.type_a(7), (7, 6, 5, 4, 3, 2, 1), 48_608_795_688_960),
    (CoxeterGraph(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 4)]), (5,) * 5, 701_149_020),
], ids=["S4", "S5", "S6", "B3", "B4", "S7", "S8", "B5"])
def test_reduced_words_of_longest_elements_match_closed_forms(graph, shape, words):
    # staircase tableaux for S_n (Stanley), square tableaux for B_n (Haiman)
    w0 = list(iter_elements(graph))[-1]
    assert count_reduced_words(graph, w0) == standard_tableaux(shape) == words


H3 = CoxeterGraph(3, [(1, 2, 5), (2, 3, 3)])
H4 = CoxeterGraph(4, [(1, 2, 5), (2, 3, 3), (3, 4, 3)])


@pytest.mark.parametrize("graph, max_length, elements", [
    (H3, None, 120), (H4, 10, 506)], ids=["H3", "H4-upto-10"])
def test_reduced_word_fold_matches_the_poset_sum(graph, max_length, elements):
    # the descent fold against linear extensions summed over the class posets
    words = list(iter_elements(graph, max_length))
    assert len(words) == elements
    for word in words:
        assert count_reduced_words(graph, word) == sum(
            count_linear_extensions(p) for p in wp_set(graph, word))


# ------------------------------------------- longest elements of W_J

D4 = CoxeterGraph(4, [(1, 2, 3), (2, 3, 3), (2, 4, 3)])
A1_A1_A2 = CoxeterGraph(4, [(3, 4, 3)])


def _longest_of_support(elements):
    # w0(J) for every support J, told by length alone: the longest element
    # of the parabolic subgroup W_J, the elements with all letters in J
    return [w for w in elements if len(w) == max(len(u) for u in elements if set(u) <= set(w))]


@pytest.mark.parametrize("graph", [CoxeterGraph.type_a(4), B3, H3, D4, A1_A1_A2],
                         ids=["A4", "B3", "H3", "D4", "A1xA1xA2"])
def test_longest_elements_of_their_support_match_oracle(graph):
    # [e, w0(J)] grows as all of W_J, holding no state of u*w^-1
    longest = _longest_of_support(list(iter_elements(graph)))
    assert len(longest) == 2 ** graph.rank
    for w in longest:
        words, classes = oracle_reduced(graph, w)
        posets = wp_set(graph, w)
        assert count_classes(graph, w) == len(posets) == classes
        assert count_reduced_words(graph, w) == len(words) == sum(map(count_linear_extensions, posets))


@pytest.mark.parametrize("graph", [CoxeterGraph.type_a(4), B3, H3, D4],
                         ids=["A4", "B3", "H3", "D4"])
def test_wp_set_posets_are_word_posets_of_their_keys(graph):
    # one builder for class posets: each is the word poset of its least word
    alphabet = CommutationAlphabet.from_coxeter(graph)
    for word in iter_elements(graph):
        for key, poset in wp_set(graph, word).posets.items():
            assert poset == build_word_poset(key, alphabet)


@pytest.mark.parametrize("graph", [B3, H3], ids=["B3", "H3"])
def test_only_longest_elements_grow_without_the_state_of_u_w_inverse(graph, monkeypatch):
    # the growth of [e, w] steps once per edge a*u -> u; past the identity it
    # steps each u*w^-1 too, unless w is the longest element of its support
    elements = list(iter_elements(graph))  # by length: each a*u before u
    down, below = {}, {}
    for u in elements:
        down[u] = [canonical_form(graph, v).word for a in graph.generators
                   if len(v := element_of(graph, (a,) + u)) < len(u)]
        below[u] = {u}.union(*(below[v] for v in down[u]))
    longest = _longest_of_support(elements)
    calls = []
    step_state = reduced.step_state
    monkeypatch.setattr(reduced, "step_state", lambda *args: calls.append(1) or step_state(*args))
    for w in elements:
        calls.clear()
        count_classes(graph, w)
        edges = sum(len(down[u]) for u in below[w])
        assert len(calls) == edges if w in longest else len(calls) > edges


# ------------------------------------------- least words, a second route

B6 = CoxeterGraph(6, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 4)])
D6 = CoxeterGraph(6, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (4, 6, 3)])
STRETCH = pytest.mark.skipif(os.environ.get("WORDPOSETS_STRETCH") != "1",
                             reason="S9's w0 takes about 5 s; set WORDPOSETS_STRETCH=1")


def _coxeter_power(rank, h):
    # (1 2 ... rank)^(h/2), the longest element where it is -1 (B_n, D_even,
    # H4), h the Coxeter number
    return tuple(range(1, rank + 1)) * (h // 2)


# The oracle's time per case on a 2-core VM: A4 0.01 s, A4 renumbered 0.01 s,
# B3 0.002 s, H3 0.04 s, D4 0.02 s, affine A2 up to length 8 0.005 s; the
# longest elements below: H4 0.45 s, B6 0.25 s, D6 0.15 s, S9 2.0 s.
@pytest.mark.parametrize("graph, max_length", [
    (CoxeterGraph.type_a(4), None), (CoxeterGraph(4, [(2, 4, 3), (4, 1, 3), (1, 3, 3)]), None),
    (B3, None), (H3, None), (D4, None), (AFFINE_A2, 8)],
    ids=["A4", "A4-path-2-4-1-3", "B3", "H3", "D4", "affine-A2-upto-8"])
def test_least_word_oracle_matches_class_counts(graph, max_length):
    # inclusion-exclusion over commuting descents against the count of least
    # words, which shares no code with it past the graph.  On the path
    # 2-4-1-3, 3 commutes with 2 and 4, so 4 2 3 has no adjacent pair b a
    # with a < b commuting yet is not least (3 4 2 is): an F that forgets
    # all but the last letter counts it and fails here alone
    for word in iter_elements(graph, max_length):
        assert least_word_class_count(graph, word) == count_classes(graph, word)


@pytest.mark.parametrize("graph, word, classes", [
    (H4, _coxeter_power(4, 30), 105516880),
    (B6, _coxeter_power(6, 12), 6272842),
    (D6, _coxeter_power(6, 10), 3031856),
    pytest.param(CoxeterGraph.type_a(8), w0_word(9), 112018190, marks=STRETCH)],
    ids=["H4", "B6", "D6", "S9"])
def test_least_word_oracle_matches_class_counts_of_longest_elements(graph, word, classes):
    # beyond the braid closure's reach (10^6 words); before this oracle only
    # P(9), a known term of OEIS A006245, had an independent check
    assert least_word_class_count(graph, word) == count_classes(graph, word) == classes


# ------------------------------------------- the least-word listing's cap

def test_least_words_cap_counts_the_class_words_held():
    # S5's w0 has 62 classes over 120 elements.  The listing holds the class
    # words of two levels, at most 84 + 80 = 164 of them (lengths 8 and 9);
    # two levels hold at most 22 + 20 = 42 elements, which a cap on
    # elements would pass at 42 or more
    graph, word = CoxeterGraph.type_a(4), w0_word(5)
    with pytest.raises(BudgetError, match="word-poset memo exceeds 62 entries"):
        reduced.least_words(graph, word, memo_cap=62)
    assert len(reduced.least_words(graph, word, memo_cap=164)) == 62
    with pytest.raises(BudgetError, match="word-poset memo exceeds 163 entries"):
        reduced.least_words(graph, word, memo_cap=163)


@pytest.mark.parametrize("count, what, answer", [
    (count_classes, "class-count", 1),
    (count_reduced_words, "reduced-word", 1),
    (reduced.least_words, "word-poset", [()]),
    (lambda graph, word, memo_cap: list(wp_set(graph, word, memo_cap=memo_cap).posets), "word-poset", [()]),
], ids=["count_classes", "count_reduced_words", "least_words", "wp_set"])
def test_memo_cap_holds_at_the_identity(count, what, answer):
    # the identity is one element with one class word: a cap of 0 holds
    # nothing, so every counter and the listing refuse it, and 1 is enough
    with pytest.raises(BudgetError, match=f"^{what} memo exceeds 0 entries$"):
        count(A2, (), memo_cap=0)
    assert count(A2, (), memo_cap=1) == answer


# ------------------------------------------- fully commutative elements

def _path(n, last=3):
    return [(i, i + 1, 3) for i in range(1, n - 1)] + [(n - 1, n, last)]


def _fully_commutative(graph, folded):
    # elements u with C(u) = 1 over the whole group; folded, each orbit
    # representative stands for its orbit under the first involution, the
    # one the fold takes on the whole group
    flip, total = folded and reduced._involutions(graph)[0], 0
    for level, counts in reduced._count_levels(graph, orbits=folded):
        total += sum(1 if not flip or flip(key) == key else 2 for key, c in zip(level, counts) if c == 1)
    return total


FC_GROUPS = (
    [(f"A{n}", CoxeterGraph.type_a(n), ("A", n)) for n in range(2, 8)]
    + [(f"B{n}", CoxeterGraph(n, _path(n, 4)), ("B", n)) for n in range(2, 7)]
    + [(f"D{n}", CoxeterGraph(n, _path(n - 1) + [(n - 2, n, 3)]), ("D", n)) for n in range(4, 7)]
    + [("F4", CoxeterGraph(4, [(1, 2, 3), (2, 3, 4), (3, 4, 3)]), ("F", 4)),
       ("H3", H3, ("H", 3)), ("H4", H4, ("H", 4)),
       ("E6", CoxeterGraph(6, [(1, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3), (2, 4, 3)]), ("E", 6))]
    + [(f"I2({m})", CoxeterGraph(2, [(1, 2, m)]), ("I2", m)) for m in (3, 4, 5, 6, 7, 8, 12)])
E7 = CoxeterGraph(7, [(1, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3), (6, 7, 3), (2, 4, 3)])


# About 2 s in all on a 2-core VM, A7, B6 and E6 unfolded 0.3-0.4 s each.
# B_n, F4, H3, H4, I2(4) and I2(6) have no involution the fold takes (the
# Cartan entries of labels 4 and 6 split asymmetrically), so run unfolded only
FC_CASES = [pytest.param(graph, group, folded, id=f"{name}-{'folded' if folded else 'unfolded'}")
            for name, graph, group in FC_GROUPS for folded in (False, True)
            if not folded or reduced._involutions(graph)]


@pytest.mark.parametrize("graph, group, folded", FC_CASES)
def test_fully_commutative_census_matches_closed_forms(graph, group, folded):
    assert _fully_commutative(graph, folded) == fully_commutative_count(*group)


@pytest.mark.skipif(os.environ.get("WORDPOSETS_STRETCH") != "1",
                    reason="E7's 2,903,040 elements take about 25 s; set WORDPOSETS_STRETCH=1")
def test_fully_commutative_census_of_e7():
    assert _fully_commutative(E7, False) == fully_commutative_count("E", 7)


# ------------------------------------------- counting reduced words is #P-hard

def _random_poset(rng, n, width):
    # a natural labelling 0 .. n-1 covered by ``width`` chains, so no
    # antichain is wider, plus random relations i < j; closed transitively
    last, preds = {}, []
    for j in range(n):
        chain = rng.randrange(width)
        down = (1 << last[chain] | preds[last[chain]]) if chain in last else 0
        for i in range(j):
            if rng.random() < 0.15:
                down |= 1 << i | preds[i]
        preds.append(down)
        last[chain] = j
    return preds


@pytest.mark.parametrize("n, count", [(8, 200), (20, 50)])
def test_reduced_words_of_a_poset_word_are_its_linear_extensions(n, count):
    # label 3 on the cover pairs of a naturally labelled poset P, 2 on every
    # other pair: w = 1 2 ... n has distinct letters, so no braid move
    # applies, its one class is its reduced words, and its word poset is P.
    # So R(w) is the number of linear extensions of P, the reduction by
    # which counting reduced words inherits #P-hardness
    rng = random.Random(20261021 + n)
    for _ in range(count):
        preds = _random_poset(rng, n, rng.randint(1, 4))
        poset = WordPoset(tuple(range(1, n + 1)), preds)
        graph = CoxeterGraph(n, [(x + 1, y + 1, 3) for x, y in poset.covers()])
        word = tuple(range(1, n + 1))
        assert count_reduced_words(graph, word) == count_linear_extensions(poset)
        assert count_classes(graph, word) == 1
        assert build_word_poset(word, CommutationAlphabet.from_coxeter(graph)).preds == poset.preds


# ------------------------------------------- the memo cap while a level grows

def _counting_steps(monkeypatch):
    calls, step_state = [], reduced.step_state
    monkeypatch.setattr(reduced, "step_state", lambda *args: calls.append(1) or step_state(*args))
    return calls


@pytest.mark.parametrize("count, what", [
    (count_reduced_words, "reduced-word"), (count_classes, "class-count")])
def test_memo_cap_stops_the_growth_of_s30_early(monkeypatch, count, what):
    # S30's w0 (435 letters): a level past the cap is cut while it grows, not
    # built whole and checked after, which takes 65,577 steps
    calls = _counting_steps(monkeypatch)
    with pytest.raises(BudgetError, match=f"^{what} memo exceeds 3000 entries$"):
        count(CoxeterGraph.type_a(29), w0_word(30), memo_cap=3000)
    assert len(calls) <= 10_000


def test_least_words_cap_stops_the_growth_early(monkeypatch):
    # edgeless rank 40, word 1 ... 40: level j holds C(40, j) elements of one
    # class each, so levels 1 and 2 hold 40 + 780 = 820 words, and level 3
    # (9,880 elements, 29,640 steps) stops after a few dozen
    graph, word = CoxeterGraph(40), tuple(range(1, 41))
    calls = _counting_steps(monkeypatch)
    with pytest.raises(BudgetError, match="^word-poset memo exceeds 821 entries$"):
        reduced.least_words(graph, word, memo_cap=821)
    assert len(calls) <= 2_000
