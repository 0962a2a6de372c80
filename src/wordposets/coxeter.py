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
labels use floats -2 cos(pi/m) and a sign tolerance.  This column calculus
is the tests' reference only: no engine reads it, and its matrix
(``CoxeterGraph.cartan``) is built only when they read it.

Every engine steps an element w as a *state* (``*_state`` helpers): the
numbers-game vector y_j = <w^{-1} alpha_j, rho>, the coordinate sum of column
j of w^{-1}.  s_b w costs one pass over b's neighbours, a is a left descent
iff y_a < 0, and y identifies w (rho lies in the fundamental chamber, whose
points have trivial stabilizers; Tits), so the state is its own key.  y_j
lies in Z[c], c = 2 cos(pi / L), L the lcm of the labels outside {2, 3, 4,
6, infinity} (Tits' representation is defined over Q(cos pi/m)), held as d
integer coefficients on 1, 2 cos(k pi / L) for 0 < k < d, d = phi(2L) / 2
(d = 1 without such labels, d = 2 for H3 and H4); each sign is exact.
Every word an element query returns (``element_of``, ``multiply_left``,
``canonical_form``, ``delete_left_descent``) is the least reduced word of its
element, read off its state by ``_least_word``.
"""

from __future__ import annotations

import functools
import math
from itertools import chain

from .alphabet import _read_directives
from .errors import BudgetError, GraphParseError, NotReducedError, SignToleranceError

__all__ = [
    "INFINITY", "TOLERANCE", "CoxeterGraph", "CanonicalElement", "parse_graph", "is_reduced",
    "shortest_non_reduced_prefix", "element_of", "left_descents", "canonical_form",
    "multiply_left",
]

INFINITY = math.inf

# Sign decisions of the float column calculus treat |x| <= TOLERANCE as zero.
TOLERANCE = 1e-9

# Labels with an integer Cartan realization, and its (A[i][j], A[j][i]), i < j.
_EXACT_PAIRS = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INFINITY: (-2, -2)}
# Largest lcm of the other labels that the state ring takes: all labels <= 10.
MAX_RING_LCM = 2520
MAX_RANK = 1024  # largest rank: each generator step copies a state of rank * state_degree integers


def _cartan_pair(m, exact):
    """Off-diagonal Cartan entries (A[i][j], A[j][i]) for label m, i < j: the
    product 4 cos^2(pi/m) (4 for m = infinity) makes the two reflections
    compose to a rotation of order m; the exact path splits it asymmetrically
    to keep entries integral, which generates the same group."""
    if exact:
        return _EXACT_PAIRS[m]
    if m == INFINITY:
        return -2.0, -2.0
    c = -2.0 * math.cos(math.pi / m)
    return c, c


@functools.cache
def _cyclotomic(n):
    """Integer coefficients, constant term first, of Phi_n = prod over the
    squarefree e | n of (x^(n/e) - 1)^mu(e): mu(e) = 1 factors multiplied in,
    then the rest divided out exactly, p_i = p_(i-k) - q_i for q = p (x^k - 1)."""
    factors, p = [(n, 1)], [1]  # (n / e, mu(e)), e over the products of n's primes
    for k in (k for k in range(2, n + 1) if n % k == 0 and all(k % j for j in range(2, k))):
        factors += [(f // k, -mu) for f, mu in factors]
    for k, mu in sorted(factors, key=lambda factor: -factor[1]):
        if mu == 1:
            p = [u - v for u, v in zip([0] * k + p, p + [0] * k)]
        else:
            for i in range(len(p)):
                p[i] = (p[i - k] if i >= k else 0) - p[i]
            del p[-k:]
    return tuple(p)


def _state_ring(graph):
    """(d, basis values, psi, rows) for the numbers-game state: rows[a] lists
    the (i, k, c) of ``y[i] -= c * state[k]`` taking w to s_a w.  (i, i, 2)
    negates y_a; each edge {a, j} subtracts A[a][j] y_a from y_j, A[a][j] an
    exact label's integer entry or -b_e for e = L / m, as the d x d block of
    the product by b_e in the basis b_0 = 1, b_k = 2cos(k pi / L) for 0 < k < d.
    b_d comes from psi(c) = 0, psi the minimal polynomial of c = b_1, read in
    that basis off Phi_2L(x) = x^d psi(x + 1/x); then b_(n+1) = c b_n - b_(n-1)
    up to n = L / 2, and b_(L-n) = -b_n.  Each row lists its j ascending."""
    half = math.lcm(*{m for _i, _j, m in graph._edges}.difference(_EXACT_PAIRS))
    if half > MAX_RING_LCM:
        raise BudgetError(f"labels have lcm {half}, state ring cap is {MAX_RING_LCM}")
    phi = _cyclotomic(2 * half)
    d = max(1, len(phi) // 2)
    b = [[2] + [0] * (d - 1)] + [[int(i == k) for i in range(d)] for k in range(1, d)]
    b.append([-a for a in phi[d:-1]])  # b[n] is 2cos(n pi / L): b[0] is 2, b[d] from psi
    for n in range(d, half // 2):
        b.append([u + v + b[n][-1] * t - w for u, v, t, w in
                  zip([0] + b[n][:-1], [2 * b[n][1]] + b[n][2:] + [0], b[d], b[n - 1])])
    cos2 = lambda n: b[n] if 2 * n <= half else [-x for x in b[half - n]]  # 0 <= n < L
    block = functools.cache(lambda e: [(p, q, -x) for q in range(d) for p, x in enumerate(
        cos2(e) if q == 0 else [u + v for u, v in zip(cos2(e + q), cos2(abs(e - q)))]) if x])
    rows = [[(a * d + p, a * d + p, 2) for p in range(d)] for a in range(graph.rank)]
    for i, j, m in graph._edges:  # sorted, so each row gets its j ascending
        for a, k in ((i - 1, j - 1), (j - 1, i - 1)):
            entries = [(p, p, _EXACT_PAIRS[m][a > k]) for p in range(d)] if m in _EXACT_PAIRS \
                else block(half // m)
            rows[a] += [(k * d + p, a * d + q, c) for p, q, c in entries]
    basis = (1.0,) + tuple(2 * math.cos(k * math.pi / half) for k in range(1, d))
    return d, basis, phi[d:], tuple(map(tuple, rows))


class CoxeterGraph:
    """Immutable Coxeter graph on generators 1..rank.

    ``edges`` lists (i, j, m) with m an integer >= 3 or INFINITY; unlisted
    pairs get m = 2 (commuting).  A bad rank or edge raises GraphParseError,
    which names the edge as given; a rank past MAX_RANK raises BudgetError.
    No rank x rank table is held: the labels above 2 by (i, j) in both
    orders, ``commuting[i - 1]``, the bit set (bit j for generator j) of
    those that commute with i, and ``_state_ring``'s engine tables are built
    from the edges; ``cartan``, the tests' column calculus matrix, on first
    read.
    """

    def __init__(self, rank, edges=()):
        if type(rank) is not int or rank < 1:
            raise GraphParseError(f"rank must be a positive integer, got {rank!r}")
        if rank > MAX_RANK:
            raise BudgetError(f"graph has rank {rank}, rank cap is {MAX_RANK}")
        self.rank, pairs, fights = rank, {}, [1 << a for a in range(rank + 1)]  # a and its foes
        for edge in edges:
            try:
                i, j, m = edge
            except (TypeError, ValueError):
                raise GraphParseError(f"edge {edge!r}: expected (i, j, m)") from None
            if type(i) is not int or type(j) is not int or \
                    not (1 <= i <= rank and 1 <= j <= rank) or i == j:
                raise GraphParseError(f"edge {edge!r}: endpoints must be distinct integers in 1..{rank}")
            if m != INFINITY and (not isinstance(m, int) or m < 3):
                raise GraphParseError(f"edge {edge!r}: label must be an integer >= 3 or inf")
            if pairs.get((i, j), m) != m:
                raise GraphParseError(f"edge {edge!r}: conflicting labels {pairs[i, j]} and {m}")
            pairs[i, j] = pairs[j, i] = m
            fights[i], fights[j] = fights[i] | 1 << j, fights[j] | 1 << i
        self._pairs, self._edges = pairs, tuple(sorted((i, j, m) for (i, j), m in pairs.items() if i < j))
        self.commuting = tuple((1 << rank + 1) - 2 & ~f for f in fights[1:])
        self.state_degree, self.state_basis, self.state_psi, self.state_rows = _state_ring(self)
        self.exact = self.state_degree == 1  # every label is 2, 3, 4, 6 or INFINITY

    @functools.cached_property
    def cartan(self):
        diag = 2 if self.exact else 2.0
        cartan = [[diag if i == j else 0 for j in range(self.rank)] for i in range(self.rank)]
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                cartan[i][j], cartan[j][i] = _cartan_pair(self.label(i + 1, j + 1), self.exact)
        return tuple(tuple(row) for row in cartan)

    @property
    def generators(self):
        return range(1, self.rank + 1)

    def label(self, i, j) -> float:
        """m(i, j) for 1-based generators; m(i, i) = 1."""
        if not (1 <= i <= self.rank and 1 <= j <= self.rank):
            raise ValueError(f"generator pair ({i}, {j}) out of range")
        return 1 if i == j else self._pairs.get((i, j), 2)

    def commutes(self, i, j) -> bool:
        return i != j and self.label(i, j) == 2

    def edges(self):
        """Sorted (i, j, m) triples with i < j and m > 2."""
        return list(self._edges)

    def __eq__(self, other):
        if not isinstance(other, CoxeterGraph):
            return NotImplemented
        return (self.rank, self._edges) == (other.rank, other._edges)

    def __hash__(self):
        return hash((self.rank, self._edges))

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


def _read_number(tok, where):
    """A text token that is an integer, or ``inf`` for INFINITY; errors cite ``where``."""
    if tok == "inf":
        return INFINITY
    try:
        return int(tok)
    except ValueError:
        raise GraphParseError(f"{where}: expected an integer or inf, got {tok!r}") from None


def _parse_graph_json(text):
    import json  # here, not at the top: only JSON graphs pay for loading it
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits, nesting
        raise GraphParseError(f"bad JSON graph: {exc}") from None
    if not isinstance(data, dict) or "rank" not in data:
        raise GraphParseError("JSON graph must be an object with a 'rank' key")
    edges = data.get("edges", [])
    if type(edges) is not list:
        raise GraphParseError(f"JSON graph 'edges' must be a list, got {edges!r}")
    return CoxeterGraph(data["rank"], [
        e[:2] + [INFINITY] if type(e) is list and e[2:] == ["inf"] else e for e in edges])


def parse_graph(text: str) -> CoxeterGraph:
    """Parse a Coxeter graph description, text or JSON.

    Text format: a line ``generators: n``, then lines ``edge: i j m`` where
    m is an integer >= 3 or ``inf``; ``#`` starts a comment and unlisted
    pairs default to m = 2.  The JSON form is an object with keys ``rank``
    and ``edges`` (list of [i, j, m-or-"inf"]).  A pair may be listed twice
    only with the same label; both endpoint orders are accepted.  Syntax
    errors cite their line, and ``CoxeterGraph`` names a bad edge as given.
    """
    if text.lstrip().startswith("{"):
        return _parse_graph_json(text)
    lineno, count, body = _read_directives(text, "generators", "edge: i j m", "edge")
    return CoxeterGraph(_read_number(count, f"line {lineno}"), [
        tuple(_read_number(tok, f"line {n}") for tok in fields) for n, fields in body])


class _Record:
    """Fields in ``__slots__`` with a field-wise ``==`` and repr, as a dataclass
    has them, without the import of ``dataclasses`` (``inspect``, ``ast``)."""
    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()


class _FrozenRecord(_Record):
    """A hashable ``_Record`` whose ``__init__`` sets each field once."""
    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())


class CanonicalElement(_FrozenRecord):
    """A group element named by its lexicographically least reduced word."""
    __slots__ = ("word",)

    def __init__(self, word: tuple):
        object.__setattr__(self, "word", word)

    @property
    def length(self) -> int:
        return len(self.word)

    def __len__(self):
        return len(self.word)


def _check_word(graph, word):
    word = tuple(word)
    for a in word:
        if type(a) is not int or not 1 <= a <= graph.rank:
            raise ValueError(f"letter {a!r} is not a generator index in 1..{graph.rank}")
    return word


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
    for j, c in enumerate(graph.cartan[a0]):
        if c and j != a0:
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
    state = ((1,) + (0,) * (graph.state_degree - 1)) * graph.rank
    for a in reversed(word):
        state = step_state(graph, state, a)
    return state


def step_state(graph, state, a):
    """State of s_a w from the state of w; ``state`` is left as it was."""
    y = list(state)
    for i, k, c in graph.state_rows[a - 1]:
        y[i] -= c * state[k]
    return tuple(y)


def descent_reader(graph):
    """The left descents of a state as a bit set, bit a for generator a, each
    sign exact: y_j is never 0, as a root is one-signed and <alpha_i, rho> = 1.
    At d = 1 it reads y_j's sign; at d = 2 (L = 5) y = a + b phi has the sign of
    s = 2a + b if s^2 > 5 b^2, else of b.  Both are compiled once per (rank,
    d), at most 64 generators to a function; past d = 2, ``_negative`` decides."""
    n, d = graph.rank, graph.state_degree
    if d > 2:
        return lambda state: sum(2 << j for j in range(n) if _negative(graph, state[j * d:j * d + d]))
    return _compiled_reader(n, d)


@functools.cache
def _compiled_reader(n, d):
    if n > 64:  # joined from blocks of 64 generators, so that no compile holds much memory
        parts = [(j, _compiled_reader(min(n - j, 64), d)) for j in range(0, n, 64)]
        return lambda state: sum(read(state[j * d:(j + 64) * d]) << j for j, read in parts)
    sign = "y{0}" if d == 1 else "(s if (s := y{0} + y{0} + y{1}) * s > 5 * y{1} * y{1} else y{1})"
    exec(f"def read(state):\n {''.join(f'y{k}, ' for k in range(n * d))}= state\n return " + " + ".join(
        f"({2 << j} if {sign.format(d * j, d * j + 1)} < 0 else 0)" for j in range(n)), scope := {})
    return scope["read"]


_ascending = functools.lru_cache(maxsize=1 << 12)(  # a descent bit set's letters, one tuple each
    lambda bits: tuple(a for a in range(1, bits.bit_length()) if bits >> a & 1))


def state_descents(graph, state):
    """Left descents of ``state``, ascending: ``descent_reader``'s bit set as a tuple."""
    return _ascending(descent_reader(graph)(state))


def _negative(graph, coeffs):
    """Whether sum_k c_k b_k < 0: in floats, scaled by the largest |c_k|, if
    that is off 0 by over 2^-47 d sum_k |c_k|, else in dyadic rationals: c,
    from its float -+ 2^-40, is bisected on psi until the sum at the midpoint
    outweighs its change towards c (|b_k'| <= k^2 on [-2, 2]); it is not 0."""
    big = max(map(abs, coeffs))
    value = sum(c / big * x for c, x in zip(coeffs, graph.state_basis))
    if abs(value) > 2.0 ** -47 * len(coeffs) * sum(map(abs, coeffs)) / big:
        return value < 0

    def at(poly, n, q):  # q^K sum_k poly[k] b_k(n / q), K = len(poly) - 1
        acc, prev, b = poly[0], 2, n
        for a in poly[1:]:
            acc, prev, b = acc * q + a * b, b, n * b - q * q * prev
        return acc
    slope = sum(a * k * k for k, a in enumerate(map(abs, coeffs)))
    num, q = graph.state_basis[1].as_integer_ratio()
    lo, hi, q = (num << 40) - q, (num << 40) + q, q << 41  # q: the midpoint's denominator
    while abs(value := at(coeffs, lo + hi, q)) <= slope * (hi - lo) * q ** (len(coeffs) - 2):
        lo, hi = (lo + hi, 2 * hi) if at(graph.state_psi, lo + hi, q) < 0 else (2 * lo, lo + hi)
        q *= 2
    return value < 0


def _least_word(graph, state, most):
    """Lexicographically least reduced word of the element held in ``state``.

    Greedy: a reduced word can start with generator a exactly when a is a
    left descent, so emitting the smallest descent and stepping the state
    past it is lexicographically optimal at every step.  At most ``most``
    letters are read, and a read that does not end at the identity state
    raises SignToleranceError.
    """
    identity, out = element_state(graph), []
    while state != identity and len(out) < most and (descents := state_descents(graph, state)):
        out.append(descents[0])
        state = step_state(graph, state, descents[0])
    if state != identity:
        raise SignToleranceError(f"least-word read stopped off the identity after {out}")
    return tuple(out)


def delete_left_descent(graph, a, word):
    """Least reduced word of a*word when a is a left descent of the reduced word."""
    state = element_state(graph, word)
    if a not in state_descents(graph, state):
        raise RuntimeError(f"generator {a} is not a left descent of {list(word)}")
    return _least_word(graph, step_state(graph, state, a), len(word))


def _scan(graph, word):
    """(letters, state, prefix): ``word``'s checked letters, scanned with the
    state of the inverse of the reduced prefix so far; a letter that is a left
    descent of that inverse ends the scan at ``prefix``, the shortest prefix
    that is not reduced, else None and ``state`` is that of w^-1."""
    word, state, read = _check_word(graph, word), element_state(graph), descent_reader(graph)
    for t, a in enumerate(word):
        if read(state) >> a & 1:
            return word, state, word[:t + 1]
        state = step_state(graph, state, a)
    return word, state, None


def shortest_non_reduced_prefix(graph, word):
    """The shortest prefix of ``word`` that is not reduced, or None."""
    return _scan(graph, word)[2]


def is_reduced(graph, word) -> bool:
    """True iff no shorter word represents the same element."""
    return shortest_non_reduced_prefix(graph, word) is None


def _require_reduced(graph, word):
    """``word`` as a tuple of checked letters, with the state of its inverse;
    raises unless it is reduced."""
    word, state, prefix = _scan(graph, word)
    if prefix is not None:
        raise NotReducedError(f"word is not reduced: offending prefix {list(prefix)}")
    return word, state


def _reduced_state(graph, word):
    """``word`` as a tuple of checked letters, with the state of its element:
    scanned right to left, as the inverse of the reversed word; raises unless
    it is reduced, naming its shortest prefix that is not (``_require_reduced``)."""
    word = _check_word(graph, word)
    _letters, state, suffix = _scan(graph, word[::-1])
    return (word, state) if suffix is None else _require_reduced(graph, word)


def element_of(graph, word):
    """The least reduced word of the element represented by an arbitrary word."""
    word = _check_word(graph, word)
    return _least_word(graph, element_state(graph, word), len(word))


def left_descents(graph, word) -> set:
    """D(w) = generators whose left multiple is shorter; empty only for the
    identity.  Requires a reduced word."""
    return set(state_descents(graph, _reduced_state(graph, word)[1]))


def multiply_left(graph, a, word):
    """Least reduced word of generator a times the element of reduced ``word``:
    one letter longer when a is not a left descent, one shorter when it is."""
    _check_word(graph, (a,))
    word, state = _reduced_state(graph, word)
    return _least_word(graph, step_state(graph, state, a), len(word) + 1)


def canonical_form(graph, word) -> CanonicalElement:
    """Lexicographically least reduced word of the element of ``word``, read
    by ``_least_word``.  The result is a total invariant: two reduced words get
    the same canonical form iff they represent the same element."""
    word, state = _reduced_state(graph, word)
    return CanonicalElement(_least_word(graph, state, len(word)))
