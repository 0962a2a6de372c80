import random

import pytest

from oracles import random_word
from wordposets import (
    BudgetError,
    CommutationAlphabet,
    CoxeterGraph,
    INFINITY,
    NotReducedError,
    SignToleranceError,
    bound_check,
    canonical_form,
    count_classes,
    count_linear_extensions,
    count_reduced_words,
    element_of,
    enumerate_linear_extensions,
    is_reduced,
    iter_elements,
    oracle_enumerate_class,
    oracle_reduced,
    validate,
    wp_set,
)
from wordposets import reduced
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


def test_memo_cap_enforced():
    with pytest.raises(BudgetError):
        count_classes(S4, W0_S4, memo_cap=3)
    with pytest.raises(BudgetError):
        wp_set(S4, W0_S4, memo_cap=3)


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
    monkeypatch.setattr(reduced, "state_descents", lambda graph, state: [])
    with pytest.raises(SignToleranceError):
        count_classes(S4, W0_S4)
    with pytest.raises(SignToleranceError):
        wp_set(S4, W0_S4)


H5_INF = CoxeterGraph(3, [(1, 2, 5), (2, 3, INFINITY)])


@pytest.mark.parametrize("k", [10, 15, 20, 25])
def test_float_path_counts_or_refuses_long_words(k):
    # float coordinates of (1 2 3)^k grow quickly; once a sign is in doubt
    # the count must refuse, never run into the memo cap or miscount
    word = (1, 2, 3) * k
    try:
        value = count_classes(H5_INF, word)
    except SignToleranceError:
        return
    assert value == oracle_reduced(H5_INF, word)[1]
