"""Word posets (heaps) and their linear extensions.

The word poset of a word w places one element per letter occurrence,
labeled by that letter, and orders occurrence i before occurrence j
(for positions i < j) exactly when some chain of constraints forces it:
the direct constraints are the pairs whose letters are equal or do not
commute, and the order is the transitive closure of those.

The resulting labeled poset satisfies two conditions:

  (a) elements whose labels are equal or do not commute are comparable;
  (b) every cover pair has labels that are equal or do not commute.

A labeled poset with these two properties determines a commutation class
completely: its linear extensions, read through the labeling, are exactly
the words of the class.  Counting words in a class is therefore counting
linear extensions, and a canonical class representative is the
lexicographically smallest linear-extension word.

Order is stored as one predecessor bit set per element, so comparability
tests are single mask probes and the extension-counting dynamic program
runs forward over down-set bit sets, adding one minimal element at a time.
"""

from __future__ import annotations

from .alphabet import CommutationAlphabet
from .errors import BudgetError

__all__ = [
    "DEFAULT_MAX_POSITIONS", "WordPoset", "build_word_poset", "validate",
    "count_linear_extensions", "enumerate_linear_extensions", "canonical_word", "adjoin_min",
]

# Position sets are bit masks; 64 keeps them one machine word in spirit even
# though Python integers would take any size.
DEFAULT_MAX_POSITIONS = 64


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class WordPoset:
    """A labeled partial order on positions 0..m-1.

    ``labels[x]`` is the symbol at element x and ``preds[x]`` is the bit set
    of strict predecessors of x.  ``preds`` must be transitively closed;
    constructors in this module guarantee that.
    """

    def __init__(self, labels, preds):
        self.labels = tuple(labels)
        self.preds = tuple(preds)
        m = len(self.labels)
        if len(self.preds) != m:
            raise ValueError("labels and preds length mismatch")
        full = (1 << m) - 1
        for x, p in enumerate(self.preds):
            if p & ~full or p >> x & 1:
                raise ValueError(f"bad predecessor set at element {x}")

    @classmethod
    def _closed(cls, labels, preds) -> "WordPoset":
        """A poset from tuples this module built closed, without the check."""
        poset = cls.__new__(cls)
        poset.labels, poset.preds = labels, preds
        return poset

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        if not isinstance(other, WordPoset):
            return NotImplemented
        return self.labels == other.labels and self.preds == other.preds

    def __hash__(self):
        return hash((self.labels, self.preds))

    def __repr__(self):
        return f"WordPoset(labels={self.labels!r}, covers={self.covers()!r})"

    def less(self, x, y) -> bool:
        """Strict order: x < y."""
        return self.preds[y] >> x & 1 == 1

    def covers(self):
        """Cover pairs (x, y) with x < y and nothing in between."""
        out = []
        for y, p in enumerate(self.preds):
            indirect = 0
            for x in _bits(p):
                indirect |= self.preds[x]
            for x in _bits(p & ~indirect):
                out.append((x, y))
        return sorted(out)

    @classmethod
    def from_covers(cls, labels, covers) -> "WordPoset":
        """Build from cover (or any generating) pairs; closes transitively.

        Raises ValueError if the pairs contain a cycle.
        """
        m = len(labels)
        preds = [0] * m
        for x, y in covers:
            if not (0 <= x < m and 0 <= y < m) or x == y:
                raise ValueError(f"bad cover pair ({x}, {y})")
            preds[y] |= 1 << x
        for k in range(m):  # Warshall: paths through 0..k
            for y in range(m):
                if preds[y] >> k & 1:
                    preds[y] |= preds[k]
        for x in range(m):
            if preds[x] >> x & 1:
                raise ValueError("cover pairs contain a cycle")
        return cls(labels, preds)

    def to_json_dict(self) -> dict:
        return {
            "labels": [str(s) for s in self.labels],
            "covers": [list(pair) for pair in self.covers()],
        }

    @classmethod
    def from_json_dict(cls, data) -> "WordPoset":
        return cls.from_covers(list(data["labels"]), [tuple(p) for p in data["covers"]])

    def to_dot(self) -> str:
        """Hasse diagram in DOT format (edges point from smaller to larger)."""
        lines = ["digraph wordposet {", "  rankdir=BT;"]
        for x, s in enumerate(self.labels):
            lines.append(f'  n{x} [label="{s}"];')
        for x, y in self.covers():
            lines.append(f"  n{x} -> n{y};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_word_poset(word, alphabet: CommutationAlphabet, *,
                     max_positions: int = DEFAULT_MAX_POSITIONS) -> WordPoset:
    """Word poset of a word: occurrence i precedes occurrence j (i < j as
    positions) iff a chain of equal-or-non-commuting constraints links them.
    Letter j's down-set joins that of the latest occurrence of each symbol
    not commuting with it, which lies above that symbol's earlier ones."""
    letters = tuple(word)
    m = len(letters)
    if m > max_positions:
        raise BudgetError(f"word has {m} letters, position cap is {max_positions}")
    for s in letters:
        if s not in alphabet:
            raise ValueError(f"letter {s!r} not in alphabet")
    preds, last = [], {}  # symbol index -> its latest occurrence's down-set, itself included
    for j, a in enumerate(map(alphabet.index, letters)):
        c, acc = alphabet.commuting[a], 0
        for b, down in last.items():
            if not c >> b & 1:
                acc |= down
        preds.append(acc)
        last[a] = acc | 1 << j
    return WordPoset._closed(letters, tuple(preds))


def validate(poset: WordPoset, alphabet: CommutationAlphabet) -> list:
    """Audit a labeled poset against the word-poset conditions.

    Returns a list of human-readable violation strings; empty iff the stored
    order is a transitively closed partial order, every equal-or-non-commuting
    pair is comparable (a), and every cover pair is equal-or-non-commuting (b).
    """
    out = []
    m = len(poset)
    preds = poset.preds
    labels = poset.labels
    ids = [alphabet.index(s) for s in labels]  # ValueError for a label outside the alphabet
    commuting = [alphabet.commuting[i] for i in ids]
    for y in range(m):
        for x in _bits(preds[y]):
            if preds[x] >> y & 1:
                out.append(f"order: antisymmetry fails for {x} and {y}")
            if preds[x] & ~preds[y]:
                out.append(f"order: not transitively closed at {x} < {y}")
    for x in range(m):
        for y in range(x + 1, m):
            constrained = not commuting[x] >> ids[y] & 1
            comparable = poset.less(x, y) or poset.less(y, x)
            if constrained and not comparable:
                out.append(
                    f"condition (a): {x} and {y} (labels {labels[x]!r}, {labels[y]!r}) incomparable")
    for x, y in poset.covers():
        if commuting[x] >> ids[y] & 1:
            out.append(
                f"condition (b): cover {x} < {y} with commuting labels {labels[x]!r}, {labels[y]!r}")
    return out


def count_linear_extensions(poset: WordPoset, *,
                            max_positions: int = DEFAULT_MAX_POSITIONS) -> int:
    """Exact number of linear extensions.

    Forward over down-sets by size, keyed by bit set: a minimal element of
    the rest extends each down-set's extensions to one larger down-set.  A
    table with a cycle never fills the whole set, so it counts 0.
    """
    m = len(poset)
    if m > max_positions:
        raise BudgetError(f"poset has {m} elements, position cap is {max_positions}")
    elements, counts = [(1 << x, p) for x, p in enumerate(poset.preds)], {0: 1}
    for _size in range(m):
        grown = {}
        for down, c in counts.items():
            for bit, p in elements:
                if not down & bit and p & down == p:
                    grown[down | bit] = grown.get(down | bit, 0) + c
        counts = grown
    return counts.get((1 << m) - 1, 0)


def enumerate_linear_extensions(poset: WordPoset, alphabet: CommutationAlphabet | None = None):
    """Yield every linear extension as its word, in lexicographic word order.

    The word of an extension lists the labels in extension order.  For a valid
    word poset the map extension -> word is one-to-one, because at any step
    the available elements carry pairwise distinct labels (equal-labeled
    elements are comparable), so each yielded word appears exactly once.
    """
    m = len(poset)
    preds = poset.preds
    labels = poset.labels
    key = (lambda s: s) if alphabet is None else alphabet.index
    word = []

    def emit(placed):
        if len(word) == m:
            yield tuple(word)
            return
        avail = [x for x in range(m)
                 if not placed >> x & 1 and preds[x] & ~placed == 0]
        avail.sort(key=lambda x: key(labels[x]))
        for x in avail:
            word.append(labels[x])
            yield from emit(placed | (1 << x))
            word.pop()

    yield from emit(0)


def canonical_word(poset: WordPoset, alphabet: CommutationAlphabet | None = None):
    """Lexicographically smallest word of the class: the first linear
    extension, which always takes the available element with the smallest
    label.  That element is unique because equal-labeled elements are
    comparable, and taking it is safe because scheduling any available
    element keeps the rest schedulable.  Two valid word posets are
    isomorphic iff their canonical words are equal.
    """
    return next(enumerate_linear_extensions(poset, alphabet))


def adjoin_min(poset: WordPoset, symbol, alphabet: CommutationAlphabet, *,
               max_positions: int = DEFAULT_MAX_POSITIONS) -> WordPoset:
    """Adjoin a new element labeled ``symbol`` below everything it must precede.

    The new element x goes below every y whose down-set holds a label that
    equals the symbol or does not commute with it.  The restriction to the
    old elements is unchanged; x gets position m.
    """
    m = len(poset)
    if m + 1 > max_positions:
        raise BudgetError(f"poset would have {m + 1} elements, cap is {max_positions}")
    commuting, fights = alphabet.commuting[alphabet.index(symbol)], 0
    for y, s in enumerate(poset.labels):
        if not commuting >> alphabet.index(s) & 1:
            fights |= 1 << y
    xbit = 1 << m
    preds = [p | xbit if (p | 1 << y) & fights else p for y, p in enumerate(poset.preds)]
    preds.append(0)
    return WordPoset._closed(poset.labels + (symbol,), tuple(preds))
