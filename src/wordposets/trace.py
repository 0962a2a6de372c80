"""Commutation classes of words over a partially commutative alphabet.

Two words are equivalent when one turns into the other by repeatedly
swapping adjacent distinct commuting letters.  The class of a word is
determined by its word poset, so counting and membership tests go through
the poset rather than through explicit rewriting.  One explicit flood of
words (``_closure``) is kept as an independent reference: it fills a class
by swaps and, given braid moves, opens a new class at each braid target
not yet reached.  ``oracle_enumerate_class`` here and
``reduced.oracle_reduced`` check the poset and inclusion-exclusion routes
against it.
"""

from __future__ import annotations

from .alphabet import CommutationAlphabet
from .errors import BudgetError
from .poset import build_word_poset, canonical_word, count_linear_extensions

__all__ = ["DEFAULT_MAX_CLASS_SIZE", "count_class", "same_class", "oracle_enumerate_class"]

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


def _closure(start, commuting, cap, what, braids=None):
    """Every word of integer letters reachable from ``start`` by swapping
    adjacent letters a b where bit b of the bit set ``commuting[a]`` is set,
    and by the moves ``braids(word)`` if given, with the number of classes
    under swaps alone; raises BudgetError past ``cap`` words.

    One flood: a class is flooded by swaps from its start, each word's
    braid targets are pending starts, and one not yet reached when taken
    opens the next class.  So each word is built and its moves read once.
    """
    seen, starts, classes = set(), [start], 0
    while starts:
        u = starts.pop()
        if u in seen:
            continue
        if seen and len(seen) >= cap:
            raise BudgetError(f"{what} exceeds {cap} words")
        seen.add(u)
        classes += 1
        frontier = [u]
        while frontier:
            u = frontier.pop()
            if braids:
                starts += braids(u)
            for i, (a, b) in enumerate(zip(u, u[1:])):
                if commuting[a] >> b & 1 and (v := u[:i] + (b, a) + u[i + 2:]) not in seen:
                    if len(seen) >= cap:
                        raise BudgetError(f"{what} exceeds {cap} words")
                    seen.add(v)
                    frontier.append(v)
    return seen, classes


def oracle_enumerate_class(word, alphabet: CommutationAlphabet, *,
                           max_size: int | None = None) -> set:
    """All words reachable by adjacent commuting swaps, as a set of tuples.

    The shared flood ``_closure`` over symbol indices, without braid moves
    (with them it is ``reduced.oracle_reduced``), independent of the poset
    and inclusion-exclusion code; the reference answer for count_class and
    enumerate_linear_extensions.
    Raises BudgetError when the class exceeds ``max_size`` words.
    """
    if max_size is None:
        max_size = DEFAULT_MAX_CLASS_SIZE
    word = tuple(word)
    for s in word:
        if s not in alphabet:
            raise ValueError(f"letter {s!r} not in alphabet")
    seen = _closure(tuple(map(alphabet.index, word)), alphabet.commuting, max_size, "commutation class")[0]
    return {tuple(map(alphabet.symbols.__getitem__, w)) for w in seen}
