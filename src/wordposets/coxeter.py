"""Coxeter presentations and the calculus of reduced words.

A Coxeter graph has vertices 1..n (the generators) and a symmetric label
m(i,j) >= 2 on each pair, with m(i,j) = 2 (no edge) meaning the generators
commute and m(i,j) = infinity meaning there is no relation between them.
The group is generated by involutions s_1..s_n subject to
(s_i s_j)^m(i,j) = 1.  A word is reduced when no shorter word represents
the same element.

Reducedness, descent sets and products are computed through the standard
geometric representation: each generator acts on an n-dimensional space by
a reflection, and a word is reduced exactly when the roots it sweeps out
stay positive.  Concretely, with A the Cartan-style matrix of the graph,
generator i sends a vector v to the vector that agrees with v everywhere
except coordinate i, which becomes v[i] - sum_j A[i][j] v[j].  Every image
of a simple basis vector (a root) has all coordinates >= 0 or all <= 0,
and the sign answers length questions:

  * a word is reduced iff, scanning left to right, the root about to be
    reflected is always positive;
  * generator a is a left descent of w (multiplying by it shortens w) iff
    w^{-1} applied to the a-th basis vector is negative.

For labels within {2, 3, 4, 6, infinity} the matrix A can be chosen with
integer entries, so all of this is exact integer arithmetic.  Other finite
labels use entries -2 cos(pi/m) and a sign tolerance; an undecidable sign
raises SignToleranceError rather than guessing.

The counting engines step an element w as a *state* (``*_state`` helpers).
On the exact path it is the numbers-game vector y_j = <w^{-1} alpha_j, rho>,
the coordinate sum of column j of w^{-1}: s_b w costs one pass over b's
neighbours, a is a left descent iff y_a < 0, and y identifies w (rho lies in
the fundamental chamber, whose points have trivial stabilizers; Tits).  The
float path keeps the inverse column matrix and both SignToleranceError checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

from .errors import GraphParseError, NotReducedError, SignToleranceError

__all__ = [
    "INFINITY",
    "TOLERANCE",
    "CoxeterGraph",
    "CanonicalElement",
    "parse_graph",
    "is_reduced",
    "shortest_non_reduced_prefix",
    "element_of",
    "left_descents",
    "canonical_form",
    "multiply_left",
]

INFINITY = math.inf

# Sign decisions on the floating-point path treat |x| <= TOLERANCE as zero.
TOLERANCE = 1e-9

# Labels whose dihedral relation admits an integer Cartan realization.
_EXACT_LABELS = frozenset({2, 3, 4, 6, INFINITY})


def _cartan_pair(m, exact):
    """Off-diagonal Cartan entries (A[i][j], A[j][i]) for label m, i < j.

    The product A[i][j]*A[j][i] must equal 4 cos^2(pi/m) so that the two
    reflections compose to a rotation of order m (>= 4 for m = infinity).
    On the exact path the product is split asymmetrically to keep entries
    integral; the group generated is the same either way.
    """
    if exact:
        if m == 2:
            return 0, 0
        if m == 3:
            return -1, -1
        if m == 4:
            return -1, -2
        if m == 6:
            return -1, -3
        return -2, -2
    if m == INFINITY:
        return -2.0, -2.0
    c = -2.0 * math.cos(math.pi / m)
    return c, c


class CoxeterGraph:
    """Immutable Coxeter graph on generators 1..rank.

    ``edges`` lists (i, j, m) with m an integer >= 3 or INFINITY; unlisted
    pairs get m = 2 (commuting).  The Cartan-style matrix and its sparse
    off-diagonal rows are precomputed for the reflection action, and
    ``commuting[i - 1]`` is the set of generators that commute with i.
    """

    def __init__(self, rank, edges=()):
        if not isinstance(rank, int) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        self.rank = rank
        labels = [[2] * rank for _ in range(rank)]
        for i in range(rank):
            labels[i][i] = 1
        for i, j, m in edges:
            if not (1 <= i <= rank and 1 <= j <= rank) or i == j:
                raise ValueError(f"edge ({i}, {j}) out of range for rank {rank}")
            if m != INFINITY and (not isinstance(m, int) or m < 3):
                raise ValueError(f"edge label must be an integer >= 3 or INFINITY, got {m!r}")
            a, b = i - 1, j - 1
            if labels[a][b] != 2 and labels[a][b] != m:
                raise ValueError(f"conflicting labels for edge ({i}, {j})")
            labels[a][b] = labels[b][a] = m
        self._labels = tuple(tuple(row) for row in labels)
        self.commuting = tuple(frozenset(j + 1 for j in range(rank) if row[j] == 2)
                               for row in self._labels)
        self.exact = all(self._labels[i][j] in _EXACT_LABELS
                         for i in range(rank) for j in range(i + 1, rank))
        diag = 2 if self.exact else 2.0
        cartan = [[diag if i == j else 0 for j in range(rank)] for i in range(rank)]
        for i in range(rank):
            for j in range(i + 1, rank):
                cartan[i][j], cartan[j][i] = _cartan_pair(self._labels[i][j], self.exact)
        self.cartan = tuple(tuple(row) for row in cartan)
        self.reflection_rows = tuple(
            tuple((j, cartan[i][j]) for j in range(rank) if j != i and cartan[i][j] != 0)
            for i in range(rank))

    @property
    def generators(self):
        return range(1, self.rank + 1)

    def label(self, i, j) -> float:
        """m(i, j) for 1-based generators; m(i, i) = 1."""
        if not (1 <= i <= self.rank and 1 <= j <= self.rank):
            raise ValueError(f"generator pair ({i}, {j}) out of range")
        return self._labels[i - 1][j - 1]

    def commutes(self, i, j) -> bool:
        return i != j and self.label(i, j) == 2

    def edges(self):
        """Sorted (i, j, m) triples with i < j and m > 2."""
        return [(i, j, self._labels[i - 1][j - 1])
                for i in range(1, self.rank + 1) for j in range(i + 1, self.rank + 1)
                if self._labels[i - 1][j - 1] != 2]

    def __eq__(self, other):
        if not isinstance(other, CoxeterGraph):
            return NotImplemented
        return self._labels == other._labels

    def __hash__(self):
        return hash(self._labels)

    def __repr__(self):
        return f"CoxeterGraph(rank={self.rank}, edges={self.edges()!r})"

    @classmethod
    def type_a(cls, rank) -> "CoxeterGraph":
        """Path graph with all labels 3; the symmetric group on rank+1 points."""
        return cls(rank, [(i, i + 1, 3) for i in range(1, rank)])

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "edges": [[i, j, "inf" if m == INFINITY else m] for i, j, m in self.edges()],
        }


def _parse_label_token(tok):
    if tok == "inf":
        return INFINITY
    try:
        return int(tok)
    except ValueError:
        raise GraphParseError(f"bad edge label {tok!r}") from None


def _check_edge(rank, i, j, m, where):
    if not (1 <= i <= rank and 1 <= j <= rank):
        raise GraphParseError(f"{where}: generator index out of range 1..{rank}")
    if i == j:
        raise GraphParseError(f"{where}: edge endpoints must differ")
    if m != INFINITY and m < 3:
        raise GraphParseError(f"{where}: explicit edge label must be >= 3, got {m}")


def _parse_graph_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"bad JSON graph: {exc}") from None
    if not isinstance(data, dict) or "rank" not in data:
        raise GraphParseError("JSON graph must be an object with a 'rank' key")
    rank = data["rank"]
    # JSON true/false load as bool, which Python counts as int
    if type(rank) is not int or rank < 1:
        raise GraphParseError(f"rank must be a positive integer, got {rank!r}")
    edges = {}
    for entry in data.get("edges", []):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise GraphParseError(f"edge entry {entry!r} must be [i, j, m]")
        i, j, m = entry
        if m == "inf":
            m = INFINITY
        if type(i) is not int or type(j) is not int or \
                (m != INFINITY and type(m) is not int):
            raise GraphParseError(f"edge entry {entry!r} must hold integers or 'inf'")
        _check_edge(rank, i, j, m, f"edge {entry!r}")
        key = (min(i, j), max(i, j))
        if key in edges and edges[key] != m:
            raise GraphParseError(f"conflicting labels for edge {key}")
        edges[key] = m
    return CoxeterGraph(rank, [(i, j, m) for (i, j), m in edges.items()])


def parse_graph(text: str) -> CoxeterGraph:
    """Parse a Coxeter graph description, text or JSON.

    Text format: a line ``generators: n``, then lines ``edge: i j m`` where
    m is an integer >= 3 or ``inf``; ``#`` starts a comment and unlisted
    pairs default to m = 2.  The JSON form is an object with keys ``rank``
    and ``edges`` (list of [i, j, m-or-"inf"]).  A pair may be listed twice
    only with the same label; both endpoint orders are accepted.
    """
    if text.lstrip().startswith("{"):
        return _parse_graph_json(text)
    rank = None
    edges = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("generators:"):
            if rank is not None:
                raise GraphParseError(f"line {lineno}: repeated generators line")
            tok = line[len("generators:"):].strip()
            try:
                rank = int(tok)
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad generator count {tok!r}") from None
            if rank < 1:
                raise GraphParseError(f"line {lineno}: generator count must be positive")
        elif line.startswith("edge:"):
            if rank is None:
                raise GraphParseError(f"line {lineno}: edge before generators line")
            parts = line[len("edge:"):].split()
            if len(parts) != 3:
                raise GraphParseError(f"line {lineno}: expected 'edge: i j m'")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad generator index") from None
            m = _parse_label_token(parts[2])
            _check_edge(rank, i, j, m, f"line {lineno}")
            key = (min(i, j), max(i, j))
            if key in edges and edges[key] != m:
                raise GraphParseError(f"line {lineno}: conflicting labels for edge {key}")
            edges[key] = m
        else:
            raise GraphParseError(f"line {lineno}: unrecognized line {line!r}")
    if rank is None:
        raise GraphParseError("missing 'generators:' line")
    return CoxeterGraph(rank, [(i, j, m) for (i, j), m in edges.items()])


@dataclass(frozen=True)
class CanonicalElement:
    """A group element named by its lexicographically least reduced word."""
    word: tuple

    @property
    def length(self) -> int:
        return len(self.word)

    def __len__(self):
        return len(self.word)


def _check_word(graph, word):
    word = tuple(word)
    for a in word:
        if not isinstance(a, int) or not 1 <= a <= graph.rank:
            raise ValueError(f"letter {a!r} is not a generator index in 1..{graph.rank}")
    return word


def _check_generator(graph, a):
    if not isinstance(a, int) or not 1 <= a <= graph.rank:
        raise ValueError(f"generator {a!r} out of range 1..{graph.rank}")


# The column matrix of a word w holds, in column j, the coordinates of the
# image under w of the j-th simple basis vector.  Appending a letter on the
# right of w is a sparse column update; these helpers are the shared inner
# loop for everything below and for the counting modules.

def identity_columns(graph):
    n = graph.rank
    one, zero = (1, 0) if graph.exact else (1.0, 0.0)
    return [[one if i == j else zero for i in range(n)] for j in range(n)]


def apply_generator(cols, graph, a0):
    """Right-multiply the column matrix by the reflection of generator a0+1.

    Changed columns are replaced by new lists, never mutated, so stepping
    the shallow copy ``list(cols)`` leaves ``cols`` as it was.
    """
    ca = cols[a0]
    for j, c in graph.reflection_rows[a0]:
        cols[j] = [x - c * y for x, y in zip(cols[j], ca)]
    cols[a0] = [-x for x in ca]


def word_columns(graph, word):
    cols = identity_columns(graph)
    for a in word:
        apply_generator(cols, graph, a - 1)
    return cols


def inverse_columns(graph, word):
    """Column matrix of the inverse element (letters processed reversed)."""
    return word_columns(graph, reversed(word))


def matrix_key(graph, cols):
    """Hashable exact identifier of the element represented by ``cols``.

    The representation is faithful, so the flattened matrix identifies the
    element.  Floating-point entries are rounded well above accumulated
    error but far below the spacing of genuinely distinct values at the
    word lengths this package targets.
    """
    if graph.exact:
        return tuple(chain.from_iterable(cols))
    return tuple(round(x, 6) + 0.0 for x in chain.from_iterable(cols))


def _column_sign(graph, col):
    tol = 0 if graph.exact else TOLERANCE
    pos = max(col) > tol
    neg = min(col) < -tol
    if pos and neg:
        raise SignToleranceError(f"root coordinates have mixed signs: {col!r}")
    if not pos and not neg:
        raise SignToleranceError(f"root coordinates all within tolerance of zero: {col!r}")
    return 1 if pos else -1


def descents_from_inverse(graph, cols):
    """Left descents read off the inverse column matrix: generator a is a
    descent iff column a is a negative root."""
    return [j + 1 for j in range(graph.rank) if _column_sign(graph, cols[j]) < 0]


def element_state(graph, word=()):
    """State of the element of ``word``, the identity by default."""
    if not graph.exact:
        return inverse_columns(graph, word)
    state = (1,) * graph.rank
    for a in reversed(word):
        state = step_state(graph, state, a)
    return state


def step_state(graph, state, a):
    """State of s_a w from the state of w; ``state`` is left as it was."""
    if not graph.exact:
        cols = list(state)
        apply_generator(cols, graph, a - 1)
        return cols
    y = list(state)
    ya = y[a - 1]
    y[a - 1] = -ya
    for j, c in graph.reflection_rows[a - 1]:
        y[j] -= c * ya
    return tuple(y)


def state_key(graph, state):
    """Hashable identifier of the element held in ``state``."""
    return state if graph.exact else matrix_key(graph, state)


def state_descents(graph, state):
    """Left descents of the element held in ``state``, ascending."""
    if graph.exact:
        return tuple(j for j, y in enumerate(state, 1) if y < 0)
    return tuple(descents_from_inverse(graph, state))


def _reflect(graph, a0, v):
    out = list(v)
    acc = -v[a0]
    for j, c in graph.reflection_rows[a0]:
        acc -= c * v[j]
    out[a0] = acc
    return out


def _is_simple_root(graph, v, a0):
    tol = 0 if graph.exact else TOLERANCE
    return all(abs(x - (j == a0)) <= tol for j, x in enumerate(v))


def _scan_left_deletion(graph, a, word):
    """Position t such that dropping word[t] yields a reduced word for a*word,
    or None when a is not a left descent.

    Tracks the root obtained by pushing the a-th basis vector through the
    prefix reflections; the first time it lands on the simple root of the
    next letter, the conjugate of that letter's reflection by the prefix is
    the reflection of a, so the letter cancels against a.
    """
    v = identity_columns(graph)[a - 1]
    for t, b in enumerate(word):
        if _is_simple_root(graph, v, b - 1):
            return t
        v = _reflect(graph, b - 1, v)
    return None


def delete_left_descent(graph, a, word):
    """Reduced word for a*word when a is a left descent of the reduced word.

    One letter is deleted; which one is found by the root-tracking scan.
    """
    t = _scan_left_deletion(graph, a, word)
    if t is None:
        raise RuntimeError(f"generator {a} is not a left descent of {list(word)}")
    return word[:t] + word[t + 1:]


def shortest_non_reduced_prefix(graph, word):
    """The shortest prefix of ``word`` that is not reduced, or None.

    Scans left to right; the prefix through position t is reduced as long
    as the root about to be reflected at each step is positive.
    """
    word = _check_word(graph, word)
    cols = identity_columns(graph)
    for t, a in enumerate(word):
        if _column_sign(graph, cols[a - 1]) < 0:
            return word[:t + 1]
        apply_generator(cols, graph, a - 1)
    return None


def is_reduced(graph, word) -> bool:
    """True iff no shorter word represents the same element."""
    return shortest_non_reduced_prefix(graph, word) is None


def _require_reduced(graph, word):
    prefix = shortest_non_reduced_prefix(graph, word)
    if prefix is not None:
        raise NotReducedError(f"word is not reduced: offending prefix {list(prefix)}")


def element_of(graph, word):
    """A reduced word for the element represented by an arbitrary word.

    Letters are folded in left to right while keeping the accumulator
    reduced: a letter that would lengthen is appended, one that would
    shorten cancels a letter found by the deletion scan instead, run on the
    reversed word since out*a is the inverse of a*out^-1.
    """
    word = _check_word(graph, word)
    out = ()
    cols = identity_columns(graph)
    for a in word:
        if _column_sign(graph, cols[a - 1]) > 0:
            out = out + (a,)
        else:
            out = delete_left_descent(graph, a, out[::-1])[::-1]
        apply_generator(cols, graph, a - 1)
    return out


def left_descents(graph, word) -> set:
    """D(w) = generators whose left multiple is shorter; empty only for the
    identity.  Requires a reduced word."""
    word = _check_word(graph, word)
    _require_reduced(graph, word)
    return set(state_descents(graph, element_state(graph, word)))


def multiply_left(graph, a, word):
    """Reduced word for generator a times the element of reduced ``word``.

    Length goes up by one (letter prepended) when a is not a left descent,
    down by one (letter deleted) when it is.
    """
    word = _check_word(graph, word)
    _check_generator(graph, a)
    _require_reduced(graph, word)
    t = _scan_left_deletion(graph, a, word)
    if t is None:
        return (a,) + word
    return word[:t] + word[t + 1:]


def canonical_form(graph, word) -> CanonicalElement:
    """Lexicographically least reduced word of the element of ``word``.

    Greedy: a reduced word can start with generator a exactly when a is a
    left descent, so emitting the smallest descent and stepping the state
    past it is lexicographically optimal at every step.  The result is a
    total invariant: two reduced words get the same canonical form iff they
    represent the same element.
    """
    word = _check_word(graph, word)
    _require_reduced(graph, word)
    state = element_state(graph, word)
    out = []
    for _ in word:
        descents = state_descents(graph, state)
        if not descents:
            raise SignToleranceError("no left descent read off a non-identity element")
        a = descents[0]
        out.append(a)
        state = step_state(graph, state, a)
    return CanonicalElement(tuple(out))
