"""Commutation classes of reduced words in a Coxeter group.

The reduced words of a group element w split into commutation classes, and
each class is captured by its word poset.  Three recursions on left descents
run here: one lists each class's least word, one counts the classes by
inclusion-exclusion without materializing them, and one counts the reduced
words, R(w) = sum over a in D(w) of R(aw).  A brute-force oracle checks all
of it: one flood of the reduced words by commutation moves, opening a new
class at each braid-move target not yet reached.  One loop, ``_levels``,
grows elements up from the identity on their states (see ``coxeter``): the
whole group for ``iter_elements`` and the search in ``networks``, or the
lower interval [e, w] of one element.  One fold, ``_fold``, carries the
counts bottom-up from the identity's value over the last few levels of that
growth, one step call per level giving its values by element id (once per
orbit), following link codes; ``least_words`` reads the growth itself.

``bound_check`` tests 9 C(w)^2 <= 4 * 3^len(w) in exact integers.  It holds
on every nonempty reduced word counted so far, but it is a check, not a
theorem: its ratio at the longest element of S_n rises with n (0.61 at 12).
"""

from __future__ import annotations

import functools
import itertools
import operator

from .alphabet import CommutationAlphabet
from .coxeter import CanonicalElement, _Record, _require_reduced, element_state, state_descents, step_state
# not called here; bound for bench/tracing.py's per-layer table
from .coxeter import canonical_form, delete_left_descent, descents_from_inverse  # noqa: F401
from .coxeter import inverse_columns, matrix_key  # noqa: F401
from .errors import BudgetError, SignToleranceError
from .poset import DEFAULT_MAX_POSITIONS, build_word_poset
from .poset import adjoin_min, canonical_word, count_linear_extensions  # noqa: F401  # bound for bench/tracing.py
from .trace import _closure

__all__ = [
    "DEFAULT_MEMO_CAP", "DEFAULT_MAX_REDUCED_WORDS", "WPSet", "ClassCounter", "wp_set",
    "least_words", "count_reduced_words", "count_classes", "oracle_reduced", "bound_check",
    "iter_elements",
]

DEFAULT_MEMO_CAP = 1_000_000
DEFAULT_MAX_REDUCED_WORDS = 10 ** 6
# a descent tuple, held once, with the bit set of its letters
_kinds = functools.lru_cache(maxsize=1 << 12)(lambda ds: (ds, sum(1 << a for a in ds)))


class WPSet(_Record):
    """The word posets of all commutation classes of reduced words of one
    element, keyed by canonical class word in ascending order; the element
    is named by the first key, its lexicographically least reduced word."""
    __slots__ = ("element", "posets")

    def __init__(self, element: CanonicalElement, posets: dict | None = None):
        self.element = element
        self.posets = {} if posets is None else posets

    def __len__(self):
        return len(self.posets)

    def __iter__(self):
        return iter(self.posets.values())


def _independent_subsets(graph, descents):
    """Nonempty pairwise-commuting subsets T of ``descents`` as the steps
    (index of T less its last member, 0 for none; last member; -len(T);
    sign (-1)^(len(T)+1)), indexed from 1, by size, then in lex order."""
    commuting, out, size = graph.commuting, [], 0
    level = [(0, sum(1 << a for a in descents))]  # each T's index, the letters that extend it
    while level:
        size, grown = size + 1, []
        for j, free in level:
            while free:
                a = (free & -free).bit_length() - 1
                free ^= 1 << a
                out.append((j, a, -size, size % 2 * 2 - 1))
                grown.append((len(out), free & commuting[a - 1]))
        level = grown
    return out


def _involutions(graph):
    """State maps u -> sigma(u), block-wise coordinate permutations, of the
    involutions sigma != id of the generators that keep every label and the
    endpoint order i < j of each label-4 or label-6 edge (the integer Cartan
    entries of those labels split asymmetrically), as far as 256 search
    pairings reach.  Equal graphs share one search, cached for the last 64 by
    (rank, edges, state degree), so that no graph is kept alive for it."""
    return _flips(graph.rank, graph._edges, graph.state_degree)


@functools.lru_cache(maxsize=64)
def _flips(n, edges, d):
    near = [{} for _ in range(n)]
    for i, j, label in edges:  # neighbours with edge labels; a kind is the sorted labels
        near[i - 1][j - 1] = near[j - 1][i - 1] = label
    sigma, budget, found, kinds = [None] * n, 256, [], [sorted(labels.values()) for labels in near]

    def search(i):  # sigma is set below i; pair i with itself or a later j of its kind
        nonlocal budget
        if i == n:
            if sigma != list(range(n)) and all(sigma[x - 1] < sigma[y - 1] for x, y, m in edges if m in (4, 6)):
                found.append(operator.itemgetter(*[sigma[j // d] * d + j % d for j in range(n * d)]))
            return
        if sigma[i] is not None:
            return search(i + 1)
        for j in range(i, n):
            if budget > 0 and sigma[j] is None and kinds[j] == kinds[i] and all(
                    sigma[k] is None or near[y].get(sigma[k], 2) == label
                    for x, y in ((i, j), (j, i)) for k, label in near[x].items()):
                budget -= 1
                sigma[i], sigma[j] = j, i
                search(i + 1)
                sigma[i] = sigma[j] = None
    search(0)
    return tuple(found)


def _sigma(graph, flip):
    """[0, sigma(1), ..., sigma(n)] for the state map ``flip`` of sigma."""
    d = graph.state_degree
    return [0] + [t // d + 1 for t in flip(range(graph.rank * d))[::d]]


def _fold(graph, step, seed, depth, memo_cap, what, orbits=False, **growth):
    """Each level of ``_levels(graph, **growth)`` with its values by id:
    [seed] for the identity, then the list step(trail, window, swap), one
    call per level: ``trail`` holds the last ``depth`` links lists, newest
    (this level's) last, ``window`` the values of the ``depth`` levels below,
    and swap[f][a] is sigma^f(a).  At most ``memo_cap`` values are held at
    once, the level being grown included (``_levels``' memo); with ``orbits``,
    one per orbit of an involution sigma (C and R are constant on orbits): one
    fixing ``top``, the state of w^-1 given with a ``word``, else the first on
    the whole group; w0(J) grows W_J bare."""
    cap, m, top = DEFAULT_MEMO_CAP if memo_cap is None else memo_cap, graph.rank + 1, growth.get("top")
    flip = orbits and next((f for f in _involutions(graph) if "word" not in growth or f(top) == top),
                           None)
    swap = (same := list(range(m)), _sigma(graph, flip) if flip else same)
    if cap < 1:  # the identity's seed; the growth checks every later level as it grows
        raise BudgetError(f"{what} memo exceeds {cap} entries")
    trail, window = [], []
    for level, links in _levels(graph, flip=flip, memo=(cap, depth, what), **growth):
        trail = (trail + [links])[-depth:]
        here = step(trail, window, swap) if window else [seed]
        window = (window + [here])[-depth:]
        yield level, here


def _top(levels):
    """The value of w, alone on the last level of a fold over [e, w]."""
    for _level, values in levels:
        pass
    (value,) = values
    return value


def _count_levels(graph, memo_cap=None, **growth):
    """Each level of ``_levels(graph, **growth)`` with the class counts of
    its elements by id, C(u) = sum over T of (-1)^(len(T)+1) * C(Tu).

    T runs over the pairwise-commuting subsets of u's left descents, planned
    by size once per descent tuple (``_by_size``).  Tu is reached through the
    link codes, never by a generator step: T = {a} reads a*u's code straight
    off u's link slot for a; else, with T'u's code 2*id + f (T' = T less its
    last letter a), Tu's is the link of the element id under sigma^f(a), xor
    f, so a pair goes two levels down through its first letter's code with
    the sign -1, and only T of 3 or more letters keep a sign and a level per
    step.  Counts are kept for as many levels below as the most
    pairwise-commuting letters of the word's support J (all generators on
    the whole group), as [e, w] lies in W_J.
    """
    support, m = sum(1 << a for a in set(growth.get("word", graph.generators))), graph.rank + 1
    plans, depth = _count_plan(tuple(c & support if support >> a & 1 else 0
                                     for a, c in enumerate(graph.commuting, 1)))

    def count(trail, counts, swap):
        links, below, out = trail[-1], counts[-1], []
        links2, below2 = (trail[-2], counts[-2]) if len(counts) > 1 else (None, None)
        for b in range(0, len(links), m):
            ds, c, codes = links[b], 0, []
            pairs, more = plans.get(ds) or plans.setdefault(ds, _by_size(graph, ds))
            for a, seconds in pairs:  # T = {a}, then each {a, x}, x > a, through a's code
                c += below[(code := links[b + a]) >> 1]
                if not seconds:
                    continue
                f = code & 1
                row, turn = (code >> 1) * m, swap[f]
                for x in seconds:
                    code = links2[row + turn[x]]
                    c -= below2[code >> 1]
                    codes.append(code ^ f)
            for d, sign, steps in more:  # T of 3 or more letters, by size
                level, held = trail[d], counts[d]
                for j, a in steps:
                    f = codes[j] & 1
                    code = level[(codes[j] >> 1) * m + swap[f][a]] ^ f
                    c += sign * held[code >> 1]
                    codes.append(code)
            out.append(c)
        return out
    return _fold(graph, count, 1, depth, memo_cap, "class-count", **growth)


def _by_size(graph, descents):
    """The ``_independent_subsets`` of ``descents`` grouped by size: for each
    letter a, the x > a of the pairs {a, x}; then for each size k > 2, (-k,
    the sign (-1)^(k+1), steps (j, a)), j indexing T less its last letter a
    among the pairs and larger subsets, listed in this order."""
    subsets, n = _independent_subsets(graph, descents), len(descents)
    sizes = {d: tuple(group) for d, group in itertools.groupby(subsets[n:], operator.itemgetter(2))}
    return (tuple((a, tuple(x for j, x, _d, _s in sizes.get(-2, ()) if subsets[j - 1][1] == a))
                  for a in descents),
            tuple((d, d % 2 * 2 - 1, tuple((j - 1 - n, a) for j, a, _d, _s in group))
                  for d, group in sizes.items() if d < -2))


@functools.lru_cache(maxsize=64)
def _count_plan(commuting):
    """Subset steps by descent tuple (``_by_size``), shared by graphs with
    these ``commuting`` bit sets, and the window's depth: the most generators
    that pairwise commute.  A generator that fights (does not commute with)
    at most one other still in play lies in some widest set, so each such one
    is taken and its rival struck, until none is left; a branch and bound
    searches the rest."""

    def widest(rest, size, best):  # ``size`` letters chosen, more from bit set ``rest``
        while rest and size + rest.bit_count() > best:
            rest ^= (bit := rest & -rest)  # bit 1 << a: letter a
            keep = rest & commuting[bit.bit_length() - 2]
            best = widest(keep, size + 1, best)
            if (rest ^ keep).bit_count() <= 1:  # a fights at most one later letter b,
                break  # so a set without a is no wider than with a in b's place
        return max(best, size)
    left = todo = (1 << len(commuting) + 1) - 2  # bit sets: in play, to look at
    taken = 0
    while todo:
        todo ^= (bit := todo & -todo)
        if left & bit and (foes := left & ~commuting[bit.bit_length() - 2] ^ bit).bit_count() < 2:
            left, taken = left & commuting[bit.bit_length() - 2], taken + 1
            todo |= foes and left & ~commuting[foes.bit_length() - 2]  # the rival's, still in play
    return {}, taken + widest(left, 0, 0)


class ClassCounter:
    """Commutation-class counter for elements of one group.

    Every class of reduced words of w determines the set B of generators
    that can begin a word of the class; B is a nonempty pairwise-commuting
    subset of the left descent set D(w).  For a pairwise-commuting nonempty
    T subseteq D(w), the classes with B containing T correspond one-to-one
    with the classes of the shortened element Tw (strip the minimal letters
    of T, or adjoin them back), so inclusion-exclusion over T counts every
    class exactly once:

        C(w) = sum over T of (-1)^(len(T)+1) * C(Tw),    C(identity) = 1.

    ``count`` folds this bottom-up over the lower interval [e, w]
    (``_count_levels``), one element per orbit {u, sigma(u)} of a diagram
    involution fixing w; ``memo_cap`` bounds the counts held at once.
    """

    def __init__(self, graph, *, memo_cap: int | None = None):
        self.graph = graph
        self.memo_cap = DEFAULT_MEMO_CAP if memo_cap is None else memo_cap

    def count(self, word) -> int:
        """Number of commutation classes of reduced words of the element of
        ``word``; raises unless it is a reduced word over the counter's graph."""
        word, top = _require_reduced(self.graph, word)
        return _top(_count_levels(self.graph, self.memo_cap, word=word, top=top, orbits=True))


def count_classes(graph, word, *, memo_cap: int | None = None) -> int:
    """Number of commutation classes of reduced words of the element of the
    reduced word ``word``; equals the size of wp_set without building it."""
    return ClassCounter(graph, memo_cap=memo_cap).count(word)


def least_words(graph, word, *, memo_cap: int | None = None) -> list:
    """The least word of each commutation class of reduced words of ``word``,
    ascending, refused past the poset position cap.

    Recursion on left descents up the levels of ``_levels`` over [e, w]: a
    least word of u is a least word v of a shortened element au with a
    prepended, the smallest minimal label of its class.  So v, held with the
    bit set of its class's minimal labels, gets a only when none is a b < a
    commuting with a (b would stay minimal); each class is listed once, and
    at most ``memo_cap`` class words are held, of the level below and this.
    """
    word, top = _require_reduced(graph, word)
    if len(word) > DEFAULT_MAX_POSITIONS:
        raise BudgetError(f"word has {len(word)} letters, position cap is {DEFAULT_MAX_POSITIONS}")
    cap, commuting, m = DEFAULT_MEMO_CAP if memo_cap is None else memo_cap, graph.commuting, graph.rank + 1
    words = [[((), 0)]]  # class words by id, on the level below
    for _level, links in itertools.islice(_levels(graph, word=word, top=top, memo=(cap, 1, "word-poset")), 1, None):
        below, words, total = words, [], sum(map(len, words))
        for b in range(0, len(links), m):
            here = [((a,) + v, 1 << a | kept) for a in links[b] for v, mins in below[links[b + a] >> 1]
                    if not (kept := mins & commuting[a - 1]) & (1 << a) - 1]
            if (total := total + len(here)) > cap:
                raise BudgetError(f"word-poset memo exceeds {cap} entries")
            words.append(here)
    return sorted(v for v, _mins in words[0])


def wp_set(graph, word, *, memo_cap: int | None = None) -> WPSet:
    """All word posets of commutation classes of reduced words of ``word``,
    each ``build_word_poset`` of its class's least word (``least_words``)."""
    words, alphabet = least_words(graph, word, memo_cap=memo_cap), CommutationAlphabet.from_coxeter(graph)
    return WPSet(CanonicalElement(words[0]), {v: build_word_poset(v, alphabet) for v in words})


def count_reduced_words(graph, word, *, memo_cap: int | None = None) -> int:
    """Number of reduced words of the element, R(u) = sum over left descents
    a of R(au) with R(identity) = 1, folded over the lower interval keeping
    two levels of at most ``memo_cap`` counts."""
    (word, top), m = _require_reduced(graph, word), graph.rank + 1

    def words(trail, window, _swap):
        links, below = trail[-1], window[-1]
        return [sum(below[links[b + a] >> 1] for a in links[b]) for b in range(0, len(links), m)]
    return _top(_fold(graph, words, 1, 1, memo_cap, "reduced-word", orbits=True, word=word, top=top))


def _braid_moves(graph, w):
    """Words one braid move away from w: a segment a b a ... of finite length
    m(a,b) >= 3, replaced by the same alternation started from b.  Every
    such segment starts a b a, so the label is read only there."""
    labels, out = graph._pairs, []
    for p, (a, b, c) in enumerate(zip(w, w[1:], w[2:])):
        if a == c and 2 < (m := labels.get((a, b), 2)) <= len(w) - p and \
                w[p + 3:p + m] == w[p + 1:p + m - 2]:
            out.append(w[:p] + (b,) + w[p:p + m - 1] + w[p + m:])
    return out


def oracle_reduced(graph, word, *, max_words: int | None = None):
    """All reduced words of the element, with the number of commutation
    classes among them, by brute-force closure.

    By Matsumoto's theorem, commutation and braid moves connect all reduced
    words of the element; the classes are the components under commutation
    moves alone.  One flood (``trace._closure``) fills each class by
    commutation swaps over the Coxeter alphabet and opens a new class at
    each braid-move target not yet reached, counting the classes as it
    goes.  Independent of the poset and inclusion-exclusion machinery,
    which is the point: this is the oracle they are tested against.
    """
    word = _require_reduced(graph, word)[0]
    cap = DEFAULT_MAX_REDUCED_WORDS if max_words is None else max_words
    return _closure(word, (0,) + graph.commuting, cap, "reduced-word closure",
                    functools.partial(_braid_moves, graph))


def bound_check(graph, word, *, memo_cap: int | None = None) -> bool:
    """Whether the class count satisfies 9 C(w)^2 <= 4 * 3^len(word).

    Squaring removes the square root from (2/3) * 3^(len/2), so the
    comparison is exact integer arithmetic.  Every element counted so far
    passes; no proof is known that every element does.  Requires a nonempty
    reduced word.
    """
    word = tuple(word)
    if not word:
        raise ValueError("bound is defined for nonempty words only")
    c = count_classes(graph, word, memo_cap=memo_cap)
    return 9 * c * c <= 4 * 3 ** len(word)


def _levels(graph, max_length=None, admit=lambda value, ups: ups, word=None, flip=None, top=None,
            memo=(float("inf"), 1, None)):
    """Group elements level by level: per length, a pair (level, links).
    ``level`` maps each element's state to its canonical word, its id being
    its position there.  ``links`` holds rank + 1 slots per element: slot
    id * (rank + 1) its left descents, and slot id * (rank + 1) + a the code
    2 * id' + f of a*element (element id' a level down, under the ``flip``
    if f is 1) for each left descent a, else -1.

    Up-steps follow one rule: a child is a*u for each ascent a of u (in J on
    W_J, below) that ``admit(value, ups)`` keeps of u's ascents ``ups``,
    listed once per descent tuple; it reads u's value as it is, changes no
    ``ups`` and must keep every suffix of a kept element.  A level is read,
    yielded, then grown; its descent read must confirm the links, else
    SignToleranceError, and sets each value from that of a*u, a least in D(u).
    With ``memo`` (cap, depth, what), a level grows only within the cap less
    the last ``depth`` levels, which the caller holds, else BudgetError.

    Given a reduced ``word`` of w (and maybe ``top``, the state of w^-1), the
    levels are the interval [e, w] of its suffixes u, ending at w alone after
    len(word) steps, else SignToleranceError.  If each letter of w's support J
    is a right descent, w = w0(J) and [e, w] = W_J: u maps to None and every
    ascent is kept.  Else u maps to the state of u*w^-1 = a*(a*u*w^-1), and
    ``admit`` keeps the left descents of u*w^-1, each an ascent of u: with w
    = v*u reduced, a right descent a of v makes a*u a reduced suffix of w.
    With the ``flip`` of an involution sigma fixing w (if given), a level
    keeps the lesser state of each orbit: a child c = a*r with flip(c) < c is
    kept as flip(c), linked under sigma(a) to flip(r), and a fixed one under
    a and sigma(a).  On the whole group a value is then the pair of least
    words of u and sigma(u), and ``admit`` must commute with sigma.
    """
    top = element_state(graph, word[::-1]) if top is None and word is not None else top
    whole = top is not None and state_descents(graph, top) == (support := tuple(sorted(set(word))))
    gens, m, sigma = support if whole else graph.generators, graph.rank + 1, flip and _sigma(graph, flip)
    admit = admit if top is None or whole else lambda value, _ups: state_descents(graph, value)
    blank = [0] + [-1] * graph.rank  # slot 0 gathers the bits of the link letters
    level, links, length = {element_state(graph): top or (((), ()) if sigma else ())}, blank[:], 0
    asc = {}  # descent tuple -> its ascents, the letters of ``gens`` not in it
    (cap, depth, what), sizes = memo, []  # the sizes of the last ``depth`` levels yielded
    while level:
        for b, key in zip(range(0, len(links), m), level):
            ds, bits = _kinds(tuple(state_descents(graph, key)))
            if links[b] != bits:
                raise SignToleranceError("descent read disagrees with the growth links")
            links[b] = ds
            if whole:
                level[key] = None
            elif ds:  # the value through the least left descent
                a, code = ds[0], links[b + ds[0]]
                if top is not None:
                    level[key] = step_state(
                        graph, flip(values[code >> 1]) if code & 1 else values[code >> 1], a)
                elif not sigma:
                    level[key] = (a,) + values[code >> 1]
                else:  # sigma(u)'s word: x = min sigma(ds), then sigma(s*u)'s, s = sigma(x)
                    t = links[b + sigma[x := min(map(sigma.__getitem__, ds))]]
                    level[key] = ((a,) + values[code >> 1][code & 1], (x,) + values[t >> 1][~t & 1])
        values = None  # the level below goes before the caller folds this one
        yield level, links
        if max_length is not None and length >= max_length:
            return
        setdefault, up, values = (ids := {}).setdefault, [], None if whole else list(level.values())
        room = cap - sum(sizes := (sizes + [len(level)])[-depth:])  # less what the caller holds
        for i, (key, value) in enumerate(level.items()):
            steps = admit(value, asc.get(d := links[i * m]) or asc.setdefault(d, [a for a in gens if a not in d]))
            if top is not None and (bool(steps) != (length < len(word)) or not steps and len(level) > 1):
                raise SignToleranceError("lower interval does not end at the element")
            own, mirror = 2 * i, 2 * i + 1  # one code object per parent, not per link
            for a in steps:
                child, code = step_state(graph, key, a), own
                if flip and (image := flip(child)) < child:
                    child, a, code = image, sigma[a], mirror
                if (c := setdefault(child, n := len(ids))) == n:
                    if n >= room:
                        raise BudgetError(f"{what} memo exceeds {cap} entries")
                    up += blank
                c *= m
                up[c + a], up[c] = code, up[c] | 1 << a
                if flip and code == own and image == child:  # a fixed a*r is sigma(a)*flip(r) too
                    up[c + sigma[a]], up[c] = mirror, up[c] | 1 << sigma[a]
        level, links, length = ids, up, length + 1


def iter_elements(graph, max_length: int | None = None):
    """Canonical reduced words of group elements, by length then lex order;
    without ``max_length`` this terminates only when the group is finite."""
    for level, _links in _levels(graph, max_length):
        yield from sorted(level.values())
