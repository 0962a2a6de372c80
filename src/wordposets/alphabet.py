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
    totally ordered inside a word poset.  ``commuting[i]`` is the bit set of
    the symbols that commute with ``symbols[i]``: bit j for ``symbols[j]``.
    """

    def __init__(self, symbols, commuting_pairs=()):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise GraphParseError("duplicate symbols in alphabet")
        self.symbols = symbols
        self._index = index = {s: i for i, s in enumerate(symbols)}
        commuting = [0] * len(symbols)
        for a, b in commuting_pairs:
            if a not in index or b not in index:
                raise GraphParseError(f"commuting pair ({a!r}, {b!r}) uses unknown symbol")
            if a == b:
                raise GraphParseError(f"symbol {a!r} declared to commute with itself")
            commuting[index[a]] |= 1 << index[b]
            commuting[index[b]] |= 1 << index[a]
        self.commuting = tuple(commuting)

    def __contains__(self, symbol):
        return symbol in self._index

    def __len__(self):
        return len(self.symbols)

    def __repr__(self):
        return f"CommutationAlphabet({self.symbols!r}, {self.pairs()!r})"

    def __eq__(self, other):
        if not isinstance(other, CommutationAlphabet):
            return NotImplemented
        return self.symbols == other.symbols and self.commuting == other.commuting

    def __hash__(self):
        return hash((self.symbols, self.commuting))

    def index(self, symbol):
        """Rank of a symbol in the alphabet order."""
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet") from None

    def commutes(self, a, b) -> bool:
        """True iff a and b are distinct commuting symbols."""
        return self.commuting[self.index(a)] >> self.index(b) & 1 == 1

    def pairs(self):
        """The commuting pairs as symbol tuples."""
        return [(s, self.symbols[j]) for i, s in enumerate(self.symbols)
                for j in range(i + 1, len(self)) if self.commuting[i] >> j & 1]

    @classmethod
    def from_coxeter(cls, graph) -> "CommutationAlphabet":
        """Generator indices 1..rank; i and j commute iff their edge label is 2."""
        alphabet = cls(graph.generators)
        alphabet.commuting = tuple(c >> 1 for c in graph.commuting)  # bit j - 1 for generator j
        return alphabet


def _read_directives(text, head, usage, early):
    """Read one ``head:`` line and then body lines shaped like ``usage``
    ("edge: i j m"); ``#`` starts a comment.  Returns the head line's number
    and text and a (line number, fields) pair per body line.  Every syntax
    error cites its line; ``early`` names a body line met before the head."""
    body_key, arity = usage.partition(":")[0], len(usage.split()) - 1
    header, body = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, rest = line.partition(":")
        if colon and key == head:
            if header is not None:
                raise GraphParseError(f"line {lineno}: repeated {head} line")
            header = (lineno, rest.strip())
        elif colon and key == body_key:
            if header is None:
                raise GraphParseError(f"line {lineno}: {early} before {head} line")
            fields = rest.split()
            if len(fields) != arity:
                raise GraphParseError(f"line {lineno}: expected {usage!r}")
            body.append((lineno, fields))
        else:
            raise GraphParseError(f"line {lineno}: unrecognized line {line!r}")
    if header is None:
        raise GraphParseError(f"missing '{head}:' line")
    return (*header, body)


def parse_alphabet(text: str) -> CommutationAlphabet:
    """Parse an alphabet description.

    Format: one line ``symbols: a b c ...`` followed by zero or more lines
    ``commute: x y``.  ``#`` starts a comment; blank lines are ignored.
    """
    lineno, symbols, body = _read_directives(text, "symbols", "commute: x y", "commute line")
    if not symbols:
        raise GraphParseError(f"line {lineno}: empty symbol list")
    return CommutationAlphabet(symbols.split(), [pair for _, pair in body])
