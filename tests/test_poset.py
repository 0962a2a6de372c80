import json
import random

import pytest

from oracles import brute_extension_words, random_trace_corpus
from wordposets import (
    BudgetError,
    CommutationAlphabet,
    WordPoset,
    adjoin_min,
    build_word_poset,
    canonical_word,
    count_class,
    count_linear_extensions,
    enumerate_linear_extensions,
    validate,
)

# a b c d with ab, cd, ad commuting; the remaining pairs ac, bc, bd fight.
ABCD = CommutationAlphabet("abcd", [("a", "b"), ("c", "d"), ("a", "d")])


def test_worked_example_covers():
    poset = build_word_poset("abcd", ABCD)
    assert poset.covers() == [(0, 2), (1, 2), (1, 3)]
    labeled = [(poset.labels[x], poset.labels[y]) for x, y in poset.covers()]
    assert labeled == [("a", "c"), ("b", "c"), ("b", "d")]


def test_worked_example_extensions():
    poset = build_word_poset("abcd", ABCD)
    assert count_linear_extensions(poset) == 5
    words = list(enumerate_linear_extensions(poset, ABCD))
    assert ["".join(w) for w in words] == ["abcd", "abdc", "bacd", "badc", "bdac"]
    assert canonical_word(poset, ABCD) == tuple("abcd")


def test_worked_example_against_permutation_filter():
    poset = build_word_poset("abcd", ABCD)
    words = set(enumerate_linear_extensions(poset, ABCD))
    assert words == set(brute_extension_words(poset))


def test_extensions_sorted_lexicographically():
    poset = build_word_poset("abcd", ABCD)
    words = ["".join(w) for w in enumerate_linear_extensions(poset, ABCD)]
    assert words == sorted(words)


def test_chain_when_nothing_commutes():
    alpha = CommutationAlphabet("ab", [])
    poset = build_word_poset("abab", alpha)
    assert count_linear_extensions(poset) == 1
    assert list(enumerate_linear_extensions(poset, alpha)) == [tuple("abab")]
    assert poset.covers() == [(0, 1), (1, 2), (2, 3)]


def test_antichain_when_everything_commutes():
    alpha = CommutationAlphabet("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    poset = build_word_poset("cab", alpha)
    assert poset.covers() == []
    assert count_linear_extensions(poset) == 6
    assert len(list(enumerate_linear_extensions(poset, alpha))) == 6
    assert canonical_word(poset, alpha) == tuple("abc")


def test_two_letter_antichain():
    alpha = CommutationAlphabet("ab", [("a", "b")])
    poset = build_word_poset("ab", alpha)
    assert poset.covers() == []
    assert set(enumerate_linear_extensions(poset, alpha)) == {("a", "b"), ("b", "a")}
    assert canonical_word(build_word_poset("ba", alpha), alpha) == ("a", "b")


def test_single_extension_chain_aba():
    alpha = CommutationAlphabet("ab", [])
    poset = build_word_poset("aba", alpha)
    assert list(enumerate_linear_extensions(poset, alpha)) == [tuple("aba")]


def test_adjoin_min_small_cases():
    alpha = CommutationAlphabet("ab", [("a", "b")])
    empty = build_word_poset("", alpha)
    single = adjoin_min(empty, "a", alpha)
    assert single.labels == ("a",) and single.covers() == []

    antichain = adjoin_min(build_word_poset("b", alpha), "a", alpha)
    assert antichain.covers() == []

    clashing = CommutationAlphabet("ab", [])
    chain = build_word_poset("ba", clashing)  # b below a
    grown = adjoin_min(chain, "a", clashing)
    assert canonical_word(grown, clashing) == ("a", "b", "a")
    assert len(grown.covers()) == 2


def test_equal_letters_stay_ordered():
    alpha = CommutationAlphabet("ab", [("a", "b")])
    poset = build_word_poset("aab", alpha)
    assert poset.less(0, 1)
    assert not poset.less(0, 2)
    assert count_linear_extensions(poset) == 3


def test_empty_word():
    alpha = CommutationAlphabet("a", [])
    poset = build_word_poset("", alpha)
    assert len(poset) == 0
    assert count_linear_extensions(poset) == 1
    assert list(enumerate_linear_extensions(poset)) == [()]
    assert canonical_word(poset) == ()
    assert validate(poset, alpha) == []


def test_unknown_letter_rejected():
    alpha = CommutationAlphabet("ab", [])
    with pytest.raises(ValueError):
        build_word_poset("abz", alpha)


def test_position_cap():
    alpha = CommutationAlphabet("a", [])
    with pytest.raises(BudgetError):
        build_word_poset("a" * 65, alpha)
    build_word_poset("a" * 64, alpha)  # at the cap is fine
    with pytest.raises(BudgetError):
        build_word_poset("aaa", alpha, max_positions=2)


def test_validate_passes_on_built_posets():
    for word, alpha in random_trace_corpus(40, seed=11):
        assert validate(build_word_poset(word, alpha), alpha) == []


def test_validate_reports_incomparable_constrained_pair():
    alpha = CommutationAlphabet("ab", [])
    poset = WordPoset(("a", "a"), (0, 0))
    problems = validate(poset, alpha)
    assert any("condition (a)" in p for p in problems)


def test_validate_reports_commuting_cover():
    alpha = CommutationAlphabet("ab", [("a", "b")])
    poset = WordPoset.from_covers(("a", "b"), [(0, 1)])
    problems = validate(poset, alpha)
    assert any("condition (b)" in p for p in problems)


def test_validate_reports_a_cyclic_order():
    alpha = CommutationAlphabet("ab", [])
    # a below b and b below a
    poset = WordPoset(("a", "b"), (0b10, 0b01))
    problems = validate(poset, alpha)
    assert any(p.startswith("order: antisymmetry fails") for p in problems)


def test_validate_reports_missing_transitivity():
    alpha = CommutationAlphabet("abc", [])
    # b above a, c above b, but c not recorded above a
    poset = WordPoset(("a", "b", "c"), (0, 0b001, 0b010))
    problems = validate(poset, alpha)
    assert any("transitively closed" in p for p in problems)


def test_count_matches_brute_force_on_random_words():
    rng = random.Random(7)
    for word, alpha in random_trace_corpus(60, seed=rng.randint(0, 10 ** 6)):
        word = word[:7]
        poset = build_word_poset(word, alpha)
        brute = brute_extension_words(poset)
        assert count_linear_extensions(poset) == len(brute)
        assert set(enumerate_linear_extensions(poset, alpha)) == set(brute)


def test_original_word_is_an_extension():
    for word, alpha in random_trace_corpus(30, seed=3):
        poset = build_word_poset(word, alpha)
        assert word in set(enumerate_linear_extensions(poset, alpha))


def test_canonical_word_is_minimum_extension():
    for word, alpha in random_trace_corpus(30, seed=5):
        word = word[:7]
        poset = build_word_poset(word, alpha)
        words = list(enumerate_linear_extensions(poset, alpha))
        key = lambda w: tuple(alpha.index(s) for s in w)
        assert canonical_word(poset, alpha) == min(words, key=key)


def test_adjoin_min_matches_prepended_word():
    for word, alpha in random_trace_corpus(40, seed=9):
        symbol = alpha.symbols[0]
        grown = adjoin_min(build_word_poset(word, alpha), symbol, alpha)
        direct = build_word_poset((symbol,) + word, alpha)
        assert canonical_word(grown, alpha) == canonical_word(direct, alpha)
        assert validate(grown, alpha) == []


def test_adjoin_min_keeps_old_relations():
    poset = build_word_poset("abcd", ABCD)
    grown = adjoin_min(poset, "d", ABCD)
    assert grown.labels == ("a", "b", "c", "d", "d")
    for x in range(4):
        for y in range(4):
            assert grown.less(x, y) == poset.less(x, y)
    # the new d lands below b, hence below everything above b, but not below a
    assert grown.less(4, 1) and grown.less(4, 2) and grown.less(4, 3)
    assert not grown.less(4, 0)


def test_adjoin_min_rejects_unknown_symbol():
    alpha = CommutationAlphabet("ab", [])
    poset = build_word_poset("ab", alpha)
    with pytest.raises(ValueError):
        adjoin_min(poset, "z", alpha)


def test_adjoin_min_position_cap():
    alpha = CommutationAlphabet("a", [])
    poset = build_word_poset("aa", alpha)
    with pytest.raises(BudgetError):
        adjoin_min(poset, "a", alpha, max_positions=2)


def test_from_covers_cycle_rejected():
    with pytest.raises(ValueError):
        WordPoset.from_covers(("a", "b"), [(0, 1), (1, 0)])


def test_from_covers_closes_transitively():
    poset = WordPoset.from_covers(("a", "b", "c"), [(0, 1), (1, 2)])
    assert poset.less(0, 2)
    assert poset.covers() == [(0, 1), (1, 2)]


def test_from_covers_closes_a_chain_listed_against_position_order():
    poset = WordPoset.from_covers(("a", "b", "c", "d"), [(3, 2), (2, 1), (1, 0)])
    assert poset.less(3, 0) and poset.less(2, 0) and poset.less(3, 1)
    assert not poset.less(0, 3)
    assert poset.covers() == [(1, 0), (2, 1), (3, 2)]


def test_json_roundtrip():
    poset = build_word_poset("abcd", ABCD)
    data = json.loads(json.dumps(poset.to_json_dict()))
    back = WordPoset.from_json_dict(data)
    assert back.labels == poset.labels
    assert back.preds == poset.preds


def test_dot_output():
    poset = build_word_poset("ab", CommutationAlphabet("ab", []))
    dot = poset.to_dot()
    assert dot.startswith("digraph")
    assert 'n0 [label="a"]' in dot
    assert "n0 -> n1;" in dot


def test_bad_preds_rejected():
    with pytest.raises(ValueError):
        WordPoset(("a",), (0b10,))
    with pytest.raises(ValueError):
        WordPoset(("a", "b"), (0b01, 0))


def test_labels_and_preds_of_different_lengths_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        WordPoset(("a", "b"), (0,))


@pytest.mark.parametrize("pair", [(0, 2), (-1, 0), (1, 1)])
def test_from_covers_rejects_a_bad_pair(pair):
    with pytest.raises(ValueError, match="bad cover pair"):
        WordPoset.from_covers(("a", "b"), [pair])


def test_equal_posets_hash_equal_and_other_types_are_not_equal():
    first, second = build_word_poset("abcd", ABCD), WordPoset.from_covers("abcd", [(0, 2), (1, 2), (1, 3)])
    assert first == second and hash(first) == hash(second)
    assert first.__eq__("abcd") is NotImplemented and first != "abcd"


def test_count_linear_extensions_position_cap():
    poset = build_word_poset("abc", CommutationAlphabet("abc", []))
    with pytest.raises(BudgetError, match="poset has 3 elements, position cap is 2"):
        count_linear_extensions(poset, max_positions=2)
    assert count_linear_extensions(poset, max_positions=3) == 1


def test_a_cyclic_predecessor_table_has_no_linear_extension():
    # WordPoset checks bounds and irreflexivity, not acyclicity: here a < b < a
    assert count_linear_extensions(WordPoset(("a", "b"), (0b10, 0b01))) == 0


def test_count_does_not_depend_on_position_order():
    # the count adds minimal elements to down-sets, so it must not lean on
    # positions following the word: permute them, or grow the poset by
    # adjoin_min so that positions run opposite to the word
    rng = random.Random(31)
    for word, alpha in random_trace_corpus(40, seed=rng.randint(0, 10 ** 6)):
        word = word[:8]
        poset = build_word_poset(word, alpha)
        order = list(range(len(word)))
        rng.shuffle(order)
        labels = [None] * len(word)
        for x, s in enumerate(word):
            labels[order[x]] = s
        permuted = WordPoset.from_covers(labels, [(order[x], order[y]) for x, y in poset.covers()])
        grown = WordPoset((), ())
        for s in reversed(word):
            grown = adjoin_min(grown, s, alpha)
        assert grown.labels == word[::-1]
        want = count_class(word, alpha)
        for p in (poset, permuted, grown):
            assert count_linear_extensions(p) == len(list(enumerate_linear_extensions(p))) == want
