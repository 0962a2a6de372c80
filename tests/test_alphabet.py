import pytest

from wordposets import CommutationAlphabet, GraphParseError, parse_alphabet
from wordposets.coxeter import CoxeterGraph, INFINITY


def test_basic_properties():
    alpha = CommutationAlphabet("abc", [("a", "c")])
    assert len(alpha) == 3
    assert alpha.symbols == ("a", "b", "c")
    assert alpha.index("b") == 1
    assert "a" in alpha and "z" not in alpha
    assert alpha.commutes("a", "c")
    assert alpha.commutes("c", "a")
    assert not alpha.commutes("a", "b")
    assert not alpha.commutes("a", "a")
    assert alpha.pairs() == [("a", "c")]


def test_pairs_are_index_ordered():
    alpha = CommutationAlphabet("xyz", [("z", "x"), ("y", "z")])
    assert alpha.pairs() == [("x", "z"), ("y", "z")]


def test_equality_and_hash():
    a = CommutationAlphabet("ab", [("a", "b")])
    b = CommutationAlphabet("ab", [("b", "a")])
    c = CommutationAlphabet("ab", [])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_repr_index_and_foreign_equality():
    alpha = CommutationAlphabet("abc", [("c", "a")])
    assert repr(alpha) == "CommutationAlphabet(('a', 'b', 'c'), [('a', 'c')])"
    with pytest.raises(ValueError, match="not in alphabet"):
        alpha.index("z")
    assert alpha.__eq__("abc") is NotImplemented and alpha != "abc"


def test_duplicate_symbol_rejected():
    with pytest.raises(ValueError):
        CommutationAlphabet("aba", [])


def test_unknown_symbol_in_pair_rejected():
    with pytest.raises(ValueError):
        CommutationAlphabet("ab", [("a", "q")])


def test_self_pair_rejected():
    with pytest.raises(ValueError):
        CommutationAlphabet("ab", [("a", "a")])


def test_parse_alphabet():
    text = """
    # letters first
    symbols: a b c d
    commute: a c
    commute: b c
    commute: b d
    """
    alpha = parse_alphabet(text)
    assert alpha.symbols == ("a", "b", "c", "d")
    assert alpha.pairs() == [("a", "c"), ("b", "c"), ("b", "d")]


def test_parse_alphabet_no_pairs():
    alpha = parse_alphabet("symbols: x y\n")
    assert alpha.pairs() == []


@pytest.mark.parametrize("text", [
    "commute: a b\n",
    "symbols: a b\nsymbols: c\n",
    "symbols: a b\ncommute: a\n",
    "symbols: a b\ncommute: a q\n",
    "symbols: a a\n",
    "symbols:\n",
    "symbols: a b\nnonsense here\n",
    "",
])
def test_parse_alphabet_errors(text):
    with pytest.raises(GraphParseError):
        parse_alphabet(text)


def test_parse_error_reports_line_number():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_alphabet("symbols: a b\ncommute: a\n")


def test_from_coxeter_uses_generator_numbers():
    graph = CoxeterGraph(3, [(1, 2, 3), (2, 3, 3)])
    alpha = CommutationAlphabet.from_coxeter(graph)
    assert alpha.symbols == (1, 2, 3)
    assert alpha.commutes(1, 3)
    assert not alpha.commutes(1, 2)


def test_from_coxeter_infinite_label_not_commuting():
    graph = CoxeterGraph(2, [(1, 2, INFINITY)])
    alpha = CommutationAlphabet.from_coxeter(graph)
    assert not alpha.commutes(1, 2)
