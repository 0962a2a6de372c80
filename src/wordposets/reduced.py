"""Commutation classes of reduced words in a Coxeter group.

The reduced words of a group element w split into commutation classes, and
each class is captured by its word poset.  This module builds the full set
of those posets by recursion on left descents, counts the classes by an
inclusion-exclusion recursion that never materializes the posets, counts
the reduced words themselves as linear extensions, and cross-checks all of
it against a breadth-first oracle that applies commutation and braid moves
directly.  Both recursions share one engine, ``_evaluate``, which steps
an element's state (see ``coxeter``) one generator at a time.

The class count obeys a universal bound: for a nonempty reduced word,
9 C(w)^2 <= 4 * 3^len(w), checked here in exact integer arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .alphabet import CommutationAlphabet
from .coxeter import (
    CanonicalElement,
    INFINITY,
    canonical_form,
    element_state,
    state_descents,
    state_key,
    step_state,
    _check_word,
    _require_reduced,
    # not called here; bound for bench/tracing.py's per-layer table
    delete_left_descent, descents_from_inverse, inverse_columns, matrix_key,  # noqa: F401
)
from .errors import BudgetError, SignToleranceError
from .poset import WordPoset, adjoin_min, canonical_word, count_linear_extensions

__all__ = [
    "DEFAULT_MEMO_CAP",
    "DEFAULT_MAX_REDUCED_WORDS",
    "WPSet",
    "ClassCounter",
    "wp_set",
    "count_reduced_words",
    "count_classes",
    "oracle_reduced",
    "bound_check",
    "iter_elements",
]

DEFAULT_MEMO_CAP = 1_000_000
DEFAULT_MAX_REDUCED_WORDS = 10 ** 6


@dataclass
class WPSet:
    """The word posets of all commutation classes of reduced words of one
    element, keyed by canonical class word (so keys are pairwise distinct
    and iteration order is deterministic)."""
    element: CanonicalElement
    posets: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.posets)

    def __iter__(self):
        return iter(self.posets.values())


def _independent_subsets(graph, descents):
    """Nonempty pairwise-commuting subsets of ``descents``, members ascending;
    each subset comes after the one without its last member."""
    commuting = graph.commuting
    out = []
    stack = [((), sorted(descents))]
    while stack:
        prefix, candidates = stack.pop()
        for i, a in enumerate(candidates):
            t = prefix + (a,)
            out.append(t)
            rest = [b for b in candidates[i + 1:] if b in commuting[a - 1]]
            if rest:
                stack.append((t, rest))
    return out


def _evaluate(graph, state, memo, cap, what, moves, combine, leaf):
    """Value of the element held in ``state``.

    ``moves(descents)`` lists tuples T of left descents, each one letter
    longer than an earlier one or ``()``, so the child Tw is one generator
    step from a known state.  ``combine`` folds [(T, value of Tw)] into the
    value of w; the identity gets ``leaf``, and any other element whose
    descent read comes back empty raises SignToleranceError.  An explicit
    stack evaluates children first (no Python recursion, so no depth
    limit); values are memoized under ``state_key``, at most ``cap`` entries.
    """
    root = state_key(graph, state)
    stack = [(root, state, None)]
    while stack:
        key, state, edges = stack.pop()
        if key in memo:
            continue
        if edges is None:
            descents = state_descents(graph, state)
            if not descents and key != state_key(graph, element_state(graph)):
                raise SignToleranceError("no left descent read off a non-identity element")
            states = {(): state}
            edges, pending = [], []
            for t in moves(descents):
                child = states[t] = step_state(graph, states[t[:-1]], t[-1])
                child_key = state_key(graph, child)
                edges.append((t, child_key))
                if child_key not in memo:
                    pending.append((child_key, child, None))
            if pending:
                stack.append((key, state, edges))
                stack.extend(reversed(pending))
                continue
        value = combine([(t, memo[k]) for t, k in edges]) if edges else leaf
        if len(memo) >= cap:
            raise BudgetError(f"{what} memo exceeds {cap} entries")
        memo[key] = value
    return memo[root]


class ClassCounter:
    """Memoized commutation-class counter for elements of one group.

    Every class of reduced words of w determines the set B of generators
    that can begin a word of the class; B is a nonempty pairwise-commuting
    subset of the left descent set D(w).  For a pairwise-commuting nonempty
    T subseteq D(w), the classes with B containing T correspond one-to-one
    with the classes of the shortened element Tw (strip the minimal letters
    of T, or adjoin them back), so inclusion-exclusion over T counts every
    class exactly once:

        C(w) = sum over T of (-1)^(len(T)+1) * C(Tw),    C(identity) = 1.

    The memo is keyed by ``state_key``, which identifies the element
    exactly; entries are capped, with explicit failure on overflow.  The
    subsets T depend only on D(w), so they are listed once per descent set.
    """

    def __init__(self, graph, *, memo_cap: int | None = None):
        self.graph = graph
        self.memo_cap = DEFAULT_MEMO_CAP if memo_cap is None else memo_cap
        self._memo = {}
        self._subsets = functools.cache(lambda ds: _independent_subsets(graph, ds))

    def count(self, word) -> int:
        """Number of commutation classes of reduced words; ``word`` must
        already be a reduced tuple over the counter's graph."""
        return self.count_state(element_state(self.graph, word))

    def count_state(self, state) -> int:
        """``count`` for the element held in ``state``."""
        return _evaluate(self.graph, state, self._memo, self.memo_cap, "class-count",
                         self._subsets,
                         lambda terms: sum(v if len(t) % 2 else -v for t, v in terms), 1)


def count_classes(graph, word, *, memo_cap: int | None = None) -> int:
    """Number of commutation classes of reduced words of the element of the
    reduced word ``word``; equals the size of wp_set without building it."""
    word = _check_word(graph, word)
    _require_reduced(graph, word)
    return ClassCounter(graph, memo_cap=memo_cap).count(word)


def wp_set(graph, word, *, memo_cap: int | None = None) -> WPSet:
    """All word posets of commutation classes of reduced words of ``word``.

    Recursion on left descents: the posets of w are obtained from the
    posets of each shortened element aw by adjoining a new minimal element
    labeled a; distinct descents can rebuild the same class, so results
    are deduplicated by canonical class word.
    """
    word = _check_word(graph, word)
    _require_reduced(graph, word)
    cap = DEFAULT_MEMO_CAP if memo_cap is None else memo_cap
    alphabet = CommutationAlphabet.from_coxeter(graph)

    def adjoin(terms):
        result = {}
        for (a,), child in terms:
            for p in child.values():
                q = adjoin_min(p, a, alphabet)
                result.setdefault(canonical_word(q, alphabet), q)
        return result

    posets = _evaluate(graph, element_state(graph, word), {}, cap, "word-poset",
                       lambda ds: [(a,) for a in ds], adjoin, {(): WordPoset((), ())})
    return WPSet(element=canonical_form(graph, word),
                 posets=dict(sorted(posets.items())))


def count_reduced_words(graph, word, *, memo_cap: int | None = None) -> int:
    """Number of reduced words of the element: linear extensions summed over
    the word posets of its classes."""
    posets = wp_set(graph, word, memo_cap=memo_cap)
    return sum(count_linear_extensions(p) for p in posets)


def _alternating(a, b, m):
    return tuple(a if k % 2 == 0 else b for k in range(m))


def _move_neighbors(graph, w):
    """Words one commutation or braid move away from w.

    A move replaces a segment a b a b ... of length m(a,b) starting at some
    position by the same alternation started from b; m = 2 is the adjacent
    commuting swap.
    """
    out = []
    for p in range(len(w) - 1):
        a, b = w[p], w[p + 1]
        if a == b:
            continue
        m = graph.label(a, b)
        if m == INFINITY or p + m > len(w):
            continue
        m = int(m)
        if w[p:p + m] == _alternating(a, b, m):
            out.append(w[:p] + _alternating(b, a, m) + w[p + m:])
    return out


def oracle_reduced(graph, word, *, max_words: int | None = None):
    """All reduced words of the element, with the number of commutation
    classes among them, by brute-force closure.

    Breadth-first closure under commutation and braid moves reaches every
    reduced word of the element; the class count is the number of connected
    components under commutation moves alone.  Independent of the poset and
    inclusion-exclusion machinery, which is the point: this is the oracle
    they are tested against.
    """
    word = _check_word(graph, word)
    _require_reduced(graph, word)
    cap = DEFAULT_MAX_REDUCED_WORDS if max_words is None else max_words
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for v in _move_neighbors(graph, w):
                if v not in seen:
                    if len(seen) >= cap:
                        raise BudgetError(f"reduced-word closure exceeds {cap} words")
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt

    components = 0
    visited = set()
    for start in seen:
        if start in visited:
            continue
        components += 1
        stack = [start]
        visited.add(start)
        while stack:
            w = stack.pop()
            for p in range(len(w) - 1):
                a, b = w[p], w[p + 1]
                if a != b and graph.label(a, b) == 2:
                    v = w[:p] + (b, a) + w[p + 2:]
                    if v not in visited:
                        visited.add(v)
                        stack.append(v)
    return seen, components


def bound_check(graph, word, *, memo_cap: int | None = None) -> bool:
    """Whether the class count satisfies 9 C(w)^2 <= 4 * 3^len(word).

    Squaring removes the square root from the bound (2/3) * 3^(len/2), so
    the comparison is exact integer arithmetic.  Requires a nonempty
    reduced word.
    """
    word = _check_word(graph, word)
    _require_reduced(graph, word)
    if not word:
        raise ValueError("bound is defined for nonempty words only")
    c = count_classes(graph, word, memo_cap=memo_cap)
    return 9 * c * c <= 4 * 3 ** len(word)


def _levels(graph, max_length=None, admit=lambda word, a: True):
    """Group elements level by level: per length, a dict from state_key to
    (canonical word, state).

    Each level prepends to the previous one the non-descent generators a
    that ``admit(word, a)`` allows, one generator step per child.  The
    canonical word of a child starts with its smallest left descent a and
    continues with the canonical word of a*child, so each child keeps the
    candidate with the smallest first letter; this needs ``admit`` to treat
    alike every pair that yields the same child.
    """
    state = element_state(graph)
    level = {state_key(graph, state): ((), state)}
    length = 0
    while level:
        yield level
        if max_length is not None and length >= max_length:
            return
        nxt = {}
        for w, state in level.values():
            ds = state_descents(graph, state)
            for a in graph.generators:
                if a in ds or not admit(w, a):
                    continue
                child = step_state(graph, state, a)
                key = state_key(graph, child)
                cur = nxt.get(key)
                if cur is None or a < cur[0][0]:
                    nxt[key] = ((a,) + w, child)
        level = nxt
        length += 1


def iter_elements(graph, max_length: int | None = None):
    """Canonical reduced words of group elements, by length then lex order;
    without ``max_length`` this terminates only when the group is finite."""
    for level in _levels(graph, max_length):
        yield from sorted(w for w, _state in level.values())
