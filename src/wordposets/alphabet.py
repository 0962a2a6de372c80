"""Alphabets with a partial commutation relation.

An alphabet is an ordered finite set of symbols together with a symmetric,
irreflexive predicate saying which pairs of distinct symbols commute
(ab = ba).  Words over such an alphabet fall into commutation classes:
two words are equivalent when one can be turned into the other by swapping
adjacent commuting letters.

The symbol order (position in the ``symbols`` tuple) is the order used by
every lexicographic notion in this package.
"""

from __future__ import annotations

from .errors import GraphParseError

__all__ = ["CommutationAlphabet", "parse_alphabet"]


class CommutationAlphabet:
    """Ordered symbols plus a symmetric irreflexive commutation predicate.

    A symbol never commutes with itself: two occurrences of the same letter
    are never interchangeable, which is what makes equal-letter occurrences
    totally ordered inside a word poset.
    """

    def __init__(self, symbols, commuting_pairs=()):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise GraphParseError("duplicate symbols in alphabet")
        self.symbols = symbols
        self._index = {s: i for i, s in enumerate(symbols)}
        pairs = set()
        for a, b in commuting_pairs:
            if a not in self._index or b not in self._index:
                raise GraphParseError(f"commuting pair ({a!r}, {b!r}) uses unknown symbol")
            if a == b:
                raise GraphParseError(f"symbol {a!r} declared to commute with itself")
            i, j = self._index[a], self._index[b]
            pairs.add((min(i, j), max(i, j)))
        self._pairs = frozenset(pairs)

    def __contains__(self, symbol):
        return symbol in self._index

    def __len__(self):
        return len(self.symbols)

    def __repr__(self):
        return f"CommutationAlphabet({self.symbols!r}, {sorted(self.pairs())!r})"

    def __eq__(self, other):
        if not isinstance(other, CommutationAlphabet):
            return NotImplemented
        return self.symbols == other.symbols and self._pairs == other._pairs

    def __hash__(self):
        return hash((self.symbols, self._pairs))

    def index(self, symbol):
        """Rank of a symbol in the alphabet order."""
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet") from None

    def commutes(self, a, b) -> bool:
        """True iff a and b are distinct commuting symbols."""
        i, j = self.index(a), self.index(b)
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self._pairs

    def pairs(self):
        """The commuting pairs as symbol tuples."""
        return [(self.symbols[i], self.symbols[j]) for i, j in sorted(self._pairs)]

    @classmethod
    def from_coxeter(cls, graph) -> "CommutationAlphabet":
        """Generator indices 1..rank; i and j commute iff their edge label is 2."""
        pairs = [(i, j) for i in graph.generators for j in graph.commuting[i - 1] if i < j]
        return cls(tuple(graph.generators), pairs)


def parse_alphabet(text: str) -> CommutationAlphabet:
    """Parse an alphabet description.

    Format: one line ``symbols: a b c ...`` followed by zero or more lines
    ``commute: x y``.  ``#`` starts a comment; blank lines are ignored.
    """
    symbols = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("symbols:"):
            if symbols is not None:
                raise GraphParseError(f"line {lineno}: repeated symbols line")
            symbols = line[len("symbols:"):].split()
            if not symbols:
                raise GraphParseError(f"line {lineno}: empty symbol list")
        elif line.startswith("commute:"):
            if symbols is None:
                raise GraphParseError(f"line {lineno}: commute line before symbols line")
            parts = line[len("commute:"):].split()
            if len(parts) != 2:
                raise GraphParseError(f"line {lineno}: expected 'commute: x y'")
            pairs.append(tuple(parts))
        else:
            raise GraphParseError(f"line {lineno}: unrecognized line {line!r}")
    if symbols is None:
        raise GraphParseError("missing 'symbols:' line")
    return CommutationAlphabet(symbols, pairs)
