"""Commutation classes of words over a partially commutative alphabet.

Two words are equivalent when one turns into the other by repeatedly
swapping adjacent distinct commuting letters.  The class of a word is
determined by its word poset, so counting and membership tests go through
the poset rather than through explicit rewriting.  The explicit
breadth-first closure is kept as an independent reference
(``oracle_enumerate_class``) that the poset route is checked against.
"""

from __future__ import annotations

from .alphabet import CommutationAlphabet
from .errors import BudgetError
from .poset import build_word_poset, canonical_word, count_linear_extensions

__all__ = [
    "DEFAULT_MAX_CLASS_SIZE",
    "count_class",
    "same_class",
    "oracle_enumerate_class",
]

DEFAULT_MAX_CLASS_SIZE = 10 ** 6


def count_class(word, alphabet: CommutationAlphabet) -> int:
    """Number of words in the commutation class, counted without enumeration.

    The class is in bijection with the linear extensions of the word poset.
    """
    return count_linear_extensions(build_word_poset(word, alphabet))


def same_class(u, v, alphabet: CommutationAlphabet) -> bool:
    """Whether two words lie in the same commutation class.

    Compares canonical class representatives, so the cost is polynomial even
    when the class itself is huge.
    """
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        return False
    if sorted(map(alphabet.index, u)) != sorted(map(alphabet.index, v)):
        return False
    pu = build_word_poset(u, alphabet)
    pv = build_word_poset(v, alphabet)
    return canonical_word(pu, alphabet) == canonical_word(pv, alphabet)


def oracle_enumerate_class(word, alphabet: CommutationAlphabet, *,
                           max_size: int | None = None) -> set:
    """All words reachable by adjacent commuting swaps, as a set of tuples.

    Plain breadth-first closure, independent of the poset machinery; the
    reference answer for count_class and enumerate_linear_extensions.
    Raises BudgetError when the class exceeds ``max_size`` words.
    """
    if max_size is None:
        max_size = DEFAULT_MAX_CLASS_SIZE
    start = tuple(word)
    for s in start:
        if s not in alphabet:
            raise ValueError(f"letter {s!r} not in alphabet")
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(len(u) - 1):
                a, b = u[i], u[i + 1]
                if b in alphabet.commuting[a]:
                    v = u[:i] + (b, a) + u[i + 2:]
                    if v not in seen:
                        if len(seen) >= max_size:
                            raise BudgetError(
                                f"commutation class exceeds {max_size} words")
                        seen.add(v)
                        nxt.append(v)
        frontier = nxt
    return seen
