"""Sorting networks and the maximum class count at a given length.

A primitive sorting network on n wires is a sequence of k_n = n(n-1)/2
adjacent-transposition crossings that reverses the wire order; two networks
are the same wiring diagram when they differ by sliding crossings past each
other on disjoint wire pairs.  Wiring diagrams are exactly the commutation
classes of reduced words of the longest element of the symmetric group, so
P(n), the number of networks on n wires, is a class count and inherits all
the machinery of this package.

The module also searches for the largest class count achievable by any
element of a given length over a restricted family of Coxeter graphs.  The
search space is exact within its stated limits (label set and maximum
rank), so results are certified lower bounds for the true maximum and
equal it whenever the maximizer lies inside the space.  Per graph, each
element is counted in place by the counting fold of ``reduced``.
"""

from __future__ import annotations

import functools
import math
from itertools import permutations, product
from operator import itemgetter

from .coxeter import CoxeterGraph, INFINITY, _FrozenRecord
# not called here; bound for bench/tracing.py's per-layer table
from .coxeter import apply_generator, canonical_form, matrix_key, _column_sign  # noqa: F401
from .errors import BudgetError
from .reduced import _count_levels, count_classes

__all__ = [
    "DEFAULT_SEARCH_BUDGET", "DEFAULT_SEARCH_LABELS", "SearchResult", "w0_word", "p_n",
    "p_sequence", "limit_lower_bound", "search_M",
]

DEFAULT_SEARCH_BUDGET = 50_000_000
DEFAULT_SEARCH_LABELS = frozenset({2, 3, INFINITY})


def w0_word(n: int) -> tuple:
    """The staircase reduced word (1)(2,1)(3,2,1)...(n-1,...,1) for the
    longest element of the symmetric group on n points; its length is
    n(n-1)/2."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    out = []
    for top in range(1, n):
        out.extend(range(top, 0, -1))
    return tuple(out)


def p_n(n: int, *, memo_cap: int | None = None) -> int:
    """Number of primitive sorting networks on n wires, as the number of
    commutation classes of reduced words of the longest element."""
    # rank n-1 generators; a rank-1 graph stands in for the degenerate n=1
    return count_classes(CoxeterGraph.type_a(max(1, n - 1)), w0_word(n), memo_cap=memo_cap)


def p_sequence(n_max: int, *, memo_cap: int | None = None) -> list:
    """[P(1), ..., P(n_max)]."""
    if type(n_max) is not int or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
    return [p_n(n, memo_cap=memo_cap) for n in range(1, n_max + 1)]


def limit_lower_bound(m: int, p_m) -> float:
    """log(P(m)) / k_m with k_m = m(m-1)/2, using the natural logarithm.

    It bounds lim inf log P(n) / k_n from below exactly when P(n) >=
    P(m)^((1 - o(1)) k_n / k_m) as n grows, a supermultiplicativity that is
    not proved here (the rate does rise with m through m = 12).  Known large
    P(m) can be plugged in without recomputation.
    """
    if type(m) is not int or m < 2:
        raise ValueError(f"m must be an integer > 1, got {m!r}")
    if p_m < 1:
        raise ValueError(f"p_m must be at least 1, got {p_m!r}")
    return math.log(p_m) / (m * (m - 1) // 2)


class SearchResult(_FrozenRecord):
    """Outcome of search_M: the best class count found and one witness."""
    __slots__ = ("value", "graph", "word")

    def __init__(self, value: int, graph: CoxeterGraph, word: tuple):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "word", word)


class _Ticker:
    """Search budget; spending past zero aborts the whole search."""

    def __init__(self, budget):
        self.left = budget

    def spend(self, amount=1):
        self.left -= amount
        if self.left < 0:
            raise BudgetError("search budget exhausted")


def _pair_order(r):
    return [(i, j) for i in range(r) for j in range(i + 1, r)]


# r >= 3 (one index gives a scalar): per relabeling p, the getter at pairs (p[i], p[j]) sorted
_relabelings = functools.cache(lambda r: [itemgetter(*(
    _pair_order(r).index(tuple(sorted((p[i], p[j])))) for i, j in _pair_order(r)))
    for p in permutations(range(r))])


def _canonical_labels(r, label_map):
    """Least upper-triangle label tuple over all relabelings of 0..r-1."""
    labels = tuple(label_map[pair] for pair in _pair_order(r))
    return labels if r < 3 else min([relabel(labels) for relabel in _relabelings(r)])


def _connected_graphs_by_rank(max_r, edge_labels, allow_gap, ticker):
    """Canonical label tuples of connected graphs, per rank 1..max_r.

    Grown vertex by vertex: every connected graph keeps a connected graph
    when some non-cut vertex is removed, so attaching a new vertex to each
    smaller connected graph in every possible way reaches everything; the
    canonical form collapses relabelings.
    """
    by_rank = {1: [()]}
    choices = list(edge_labels) + ([2] if allow_gap else [])
    for r in range(2, max_r + 1):
        found = set()
        for base in by_rank[r - 1]:
            base_map = dict(zip(_pair_order(r - 1), base))
            for profile in product(choices, repeat=r - 1):
                if any(c != 2 for c in profile):  # the new vertex attaches
                    ticker.spend()
                    label_map = base_map | {(v, r - 1): c for v, c in enumerate(profile)}
                    found.add(_canonical_labels(r, label_map))
        by_rank[r] = sorted(found)
    return by_rank


def _graph_from_labels(r, label_tuple):
    edges = [(i + 1, j + 1, m) for (i, j), m in zip(_pair_order(r), label_tuple) if m != 2]
    return CoxeterGraph(r, edges)


def _best_full_support_counts(graph, max_len, ticker, memo_cap):
    """Per length, the largest class count over elements supported on every
    generator of the graph, with the canonical witness word.

    Elements are grown level by level (``_levels``), one per orbit of a
    diagram involution if there is one (support, length and count are the
    same on an orbit; a level value is then the pair of least words of u and
    sigma(u), whose first ``admit`` reads and whose least is the witness),
    skipping children whose support can no longer reach every generator within
    ``max_len``; each kept extension of a grown element spends one budget step.
    |supp v| + max_len - len(v) does not drop from u to a suffix v, so suffixes
    of kept elements are kept, and ``_count_levels`` counts each u in place.
    """
    n = graph.rank

    def admit(value, ups):
        word = value[0] if pairs else value
        # at slack -1 only a letter that widens the support is kept
        slack = len(set(word)) + max_len - len(word) - 1 - n
        if slack < 0:
            ups = [a for a in ups if a not in word] if slack == -1 else ()
        ticker.spend(len(ups))
        return ups

    best, levels = {}, _count_levels(graph, memo_cap, max_length=max_len, admit=admit, orbits=True)
    pairs = ((), ()) in next(levels)[0].values()  # folded: each value is a word pair
    for length, (level, counts) in enumerate(levels, 1):
        high = 0  # the most classes first, then the least word
        for value, c in zip(level.values(), counts) if length >= n else ():
            if c >= high and len(set(word := min(value) if pairs else value)) == n and (
                    c > high or word < best[length][1]):
                high, best[length] = c, (c, word)
    return best


def _single_component_table(k, edge_labels, allow_gap, max_rank, ticker, memo_cap):
    """(rank, length) -> (count, label tuple, word) over connected supports,
    by one rule: (1, 1), the best enumerated entry at each rank 2..k-1, and,
    without label 2, the complete rank-k graph on the least edge label for
    (k, k).  A length-r part on r generators has distinct letters, counts 1
    and so ties r commuting singletons (1, 1), whose sorted parts are less:
    with label 2 no such diagonal part wins.  Without it nothing commutes
    across parts, so only length-k entries are kept.
    """
    table = {(1, 1): (1, (), (1,))}
    if not allow_gap and edge_labels and k <= max_rank:
        table[(k, k)] = (1, (edge_labels[0],) * (k * (k - 1) // 2), tuple(range(1, k + 1)))
    max_enum = min(max_rank, k - 1)
    by_rank = _connected_graphs_by_rank(max_enum, edge_labels, allow_gap, ticker)
    for r in range(2, max_enum + 1):
        for label_tuple in by_rank[r]:  # at length k a label m > k acts as infinity
            graph = _graph_from_labels(r, [INFINITY if m > k else m for m in label_tuple])
            for length, (c, word) in _best_full_support_counts(
                    graph, k, ticker, memo_cap).items():
                if c > table.get((r, length), (0,))[0]:  # labels ascend: a tie keeps the least
                    table[(r, length)] = (c, label_tuple, word)
    return table if allow_gap else {key: entry for key, entry in table.items() if key[1] == k}


def _compose_parts(table, k, max_rank):
    """Best product over multisets of connected parts with total length k
    and total rank at most max_rank; parts commute across components, so
    class counts multiply and lengths add."""
    dp = {(0, 0): (1, ())}
    for length in range(1, k + 1):
        for rank_used in range(1, max_rank + 1):
            options = [(prev[0] * c, tuple(sorted(prev[1] + ((r, part_len),))))
                       for (r, part_len), (c, _g, _w) in table.items()
                       if part_len <= length and r <= rank_used
                       and (prev := dp.get((length - part_len, rank_used - r)))]
            if options:  # the largest product, then the least parts
                dp[(length, rank_used)] = min(options, key=lambda best: (-best[0], best[1]))
    return min((dp[(k, r)] for r in range(max_rank + 1) if (k, r) in dp),
               key=lambda best: (-best[0], best[1]), default=None)


def _combine_witness(table, parts):
    edges, word, offset = [], [], 0
    for r, part_len in parts:
        _c, label_tuple, part_word = table[(r, part_len)]
        for (i, j), m in zip(_pair_order(r), label_tuple):
            if m != 2:
                edges.append((offset + i + 1, offset + j + 1, m))
        word.extend(offset + a for a in part_word)
        offset += r
    graph = CoxeterGraph(max(offset, 1), edges)
    return graph, tuple(word)


def search_M(k: int, labels=None, max_rank: int | None = None, *,
             budget: int | None = None, memo_cap: int | None = None) -> SearchResult:
    """Largest class count over elements of length k, with one witness.

    The space searched is every Coxeter graph whose labels come from
    ``labels`` (2 meaning no edge) with at most ``max_rank`` generators,
    and every element of length k.  Within that space the result is exact;
    as a statement about all Coxeter groups it is a certified lower bound,
    tight whenever a maximizer happens to lie inside the space.  At length
    k a label m > k acts as infinity: no braid move of length m fits in the
    word, so by Tits' word problem and Matsumoto's theorem the reduced
    words, their classes and C(w) are those with m = infinity.  An element
    lives in the parabolic subgroup of its support, at most k generators,
    so ``search_M(k, {2, ..., k, inf}, k)`` is M(k) over every Coxeter group.
    Each graph is counted with its labels m > k as infinity, so only labels
    up to k and the witness graph's (kept as given) build a state ring.

    max_rank may not exceed k, since a reduced word of length k uses at
    most k distinct generators.  The search decomposes supports into
    connected components (class counts multiply across commuting parts),
    so the heavy enumeration stops at rank k-1.  The witness word is the
    least reduced word of its element: each part's word is least, the parts
    commute, and their letters lie in increasing blocks, so taking the least
    left descent each time reads the parts' words in turn.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    label_set = frozenset(DEFAULT_SEARCH_LABELS if labels is None else labels)
    for m in label_set:
        if m != INFINITY and (type(m) is not int or m < 2):
            raise ValueError(f"labels must be integers >= 2 or INFINITY, got {m!r}")
    if max_rank is None:
        max_rank = k
    if type(max_rank) is not int or max_rank < 0:
        raise ValueError(f"max_rank must be a nonnegative integer, got {max_rank!r}")
    if max_rank > k:
        raise ValueError("max_rank may not exceed k: supports never outgrow the length")
    if k == 0:
        return SearchResult(1, CoxeterGraph(1), ())
    if max_rank == 0:
        raise ValueError("no element of positive length exists with rank 0")

    ticker = _Ticker(DEFAULT_SEARCH_BUDGET if budget is None else budget)
    edge_labels = sorted(m for m in label_set if m != 2)
    allow_gap = 2 in label_set
    table = _single_component_table(k, edge_labels, allow_gap, max_rank, ticker, memo_cap)
    composed = _compose_parts(table, k, max_rank)
    if composed is None:
        raise ValueError(f"no element of length {k} within the search space")
    value, parts = composed
    return SearchResult(value, *_combine_witness(table, parts))
