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
equal it whenever the maximizer lies inside the space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product

from .coxeter import CoxeterGraph, INFINITY, canonical_form
# not called here; bound for bench/tracing.py's per-layer table
from .coxeter import apply_generator, matrix_key, _column_sign  # noqa: F401
from .errors import BudgetError
from .reduced import ClassCounter, _levels, count_classes

__all__ = [
    "DEFAULT_SEARCH_BUDGET",
    "DEFAULT_SEARCH_LABELS",
    "SearchResult",
    "w0_word",
    "p_n",
    "p_sequence",
    "limit_lower_bound",
    "search_M",
]

DEFAULT_SEARCH_BUDGET = 50_000_000
DEFAULT_SEARCH_LABELS = frozenset({2, 3, INFINITY})


def w0_word(n: int) -> tuple:
    """The staircase reduced word (1)(2,1)(3,2,1)...(n-1,...,1) for the
    longest element of the symmetric group on n points; its length is
    n(n-1)/2."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    out = []
    for top in range(1, n):
        out.extend(range(top, 0, -1))
    return tuple(out)


def _symmetric_group_graph(n: int) -> CoxeterGraph:
    # rank n-1 generators; a rank-1 graph stands in for the degenerate n=1
    return CoxeterGraph.type_a(max(1, n - 1))


def p_n(n: int, *, memo_cap: int | None = None) -> int:
    """Number of primitive sorting networks on n wires, as the number of
    commutation classes of reduced words of the longest element."""
    return count_classes(_symmetric_group_graph(n), w0_word(n), memo_cap=memo_cap)


def p_sequence(n_max: int, *, memo_cap: int | None = None) -> list:
    """[P(1), ..., P(n_max)]."""
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
    return [p_n(n, memo_cap=memo_cap) for n in range(1, n_max + 1)]


def limit_lower_bound(m: int, p_m) -> float:
    """log(P(m)) / k_m with k_m = m(m-1)/2, using the natural logarithm.

    Every finite value bounds the limiting per-crossing growth rate of
    log P from below, so known large P(m) values can be plugged in without
    recomputation.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"m must be an integer > 1, got {m!r}")
    if p_m < 1:
        raise ValueError(f"p_m must be at least 1, got {p_m!r}")
    return math.log(p_m) / (m * (m - 1) // 2)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of search_M: the best class count found and one witness."""
    value: int
    graph: CoxeterGraph
    word: tuple


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


def _canonical_labels(r, label_map):
    """Least upper-triangle label tuple over all relabelings of 0..r-1."""
    pairs = _pair_order(r)
    best = None
    for perm in permutations(range(r)):
        key = tuple(
            label_map[(perm[i], perm[j])] if perm[i] < perm[j] else label_map[(perm[j], perm[i])]
            for i, j in pairs)
        if best is None or key < best:
            best = key
    return best


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
        if edge_labels:
            for base in by_rank[r - 1]:
                base_map = dict(zip(_pair_order(r - 1), base))
                for profile in product(choices, repeat=r - 1):
                    if all(c == 2 for c in profile):
                        continue
                    ticker.spend()
                    label_map = dict(base_map)
                    for v, c in enumerate(profile):
                        label_map[(v, r - 1)] = c
                    found.add(_canonical_labels(r, label_map))
        by_rank[r] = sorted(found)
    return by_rank


def _graph_from_labels(r, label_tuple):
    edges = [(i + 1, j + 1, m) for (i, j), m in zip(_pair_order(r), label_tuple) if m != 2]
    return CoxeterGraph(r, edges)


def _best_full_support_counts(graph, max_len, ticker, memo_cap):
    """Per length, the largest class count over elements supported on every
    generator of the graph, with the canonical witness word.

    Elements are grown level by level (``_levels``), skipping children whose
    support can no longer reach every generator within ``max_len``; each
    kept extension spends one budget step.  The counter reads the element
    state the growth already holds.
    """
    n = graph.rank
    counter = ClassCounter(graph, memo_cap=memo_cap)

    def admit(word, a):
        if len(set(word).union((a,))) + max_len - len(word) - 1 < n:
            return False
        ticker.spend()
        return True

    best = {}
    for level in _levels(graph, max_len, admit):
        for word, state in level.values():
            if len(set(word)) != n:
                continue
            c = counter.count_state(state)
            cur = best.get(len(word))
            if cur is None or c > cur[0] or (c == cur[0] and word < cur[1]):
                best[len(word)] = (c, word)
    return best


def _diagonal_witness_labels(r, edge_labels, allow_gap):
    """Connected graph carrying a length-r element with all letters distinct:
    a path when absent edges are allowed, a complete graph otherwise."""
    m = min(edge_labels)
    label_map = {}
    for i, j in _pair_order(r):
        if allow_gap:
            label_map[(i, j)] = m if j == i + 1 else 2
        else:
            label_map[(i, j)] = m
    return tuple(label_map[p] for p in _pair_order(r))


def _single_component_table(k, edge_labels, allow_gap, max_rank, ticker, memo_cap):
    """(rank, length) -> (count, label tuple, word) over connected supports.

    A length-r element on r generators has pairwise distinct letters, so no
    braid move ever applies anywhere in its class and the count is 1; those
    diagonal entries are filled directly, which keeps the expensive
    enumeration at ranks strictly below the length.
    """
    table = {}
    if k >= 1 and max_rank >= 1:
        table[(1, 1)] = (1, (), (1,))
    if edge_labels:
        for r in range(2, min(max_rank, k) + 1):
            table[(r, r)] = (1, _diagonal_witness_labels(r, edge_labels, allow_gap),
                             tuple(range(1, r + 1)))
    max_enum = min(max_rank, k - 1)
    by_rank = _connected_graphs_by_rank(max_enum, edge_labels, allow_gap, ticker) \
        if max_enum >= 2 else {}
    for r in range(2, max_enum + 1):
        for label_tuple in by_rank[r]:
            graph = _graph_from_labels(r, label_tuple)
            for length, (c, word) in _best_full_support_counts(
                    graph, k, ticker, memo_cap).items():
                cand = (c, label_tuple, word)
                cur = table.get((r, length))
                if cur is None or c > cur[0] or (c == cur[0] and cand[1:] < cur[1:]):
                    table[(r, length)] = cand
    return table


def _compose_parts(table, k, max_rank):
    """Best product over multisets of connected parts with total length k
    and total rank at most max_rank; parts commute across components, so
    class counts multiply and lengths add."""
    dp = {(0, 0): (1, ())}
    for length in range(1, k + 1):
        for rank_used in range(1, max_rank + 1):
            best = None
            for (r, part_len), (c, _g, _w) in table.items():
                if part_len > length or r > rank_used:
                    continue
                prev = dp.get((length - part_len, rank_used - r))
                if prev is None:
                    continue
                value = prev[0] * c
                parts = tuple(sorted(prev[1] + ((r, part_len),)))
                if best is None or value > best[0] or \
                        (value == best[0] and parts < best[1]):
                    best = (value, parts)
            if best is not None:
                dp[(length, rank_used)] = best
    candidates = [dp[(k, r)] for r in range(max_rank + 1) if (k, r) in dp]
    if not candidates:
        return None
    best_value = max(value for value, _parts in candidates)
    best_parts = min(parts for value, parts in candidates if value == best_value)
    return best_value, best_parts


def _combine_witness(table, parts):
    edges = []
    word = []
    offset = 0
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
    tight whenever a maximizer happens to lie inside the space.

    max_rank may not exceed k, since a reduced word of length k uses at
    most k distinct generators.  The search decomposes supports into
    connected components (class counts multiply across commuting parts),
    so the heavy enumeration stops at rank k-1.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    label_set = frozenset(DEFAULT_SEARCH_LABELS if labels is None else labels)
    for m in label_set:
        if m != INFINITY and (not isinstance(m, int) or m < 2):
            raise ValueError(f"labels must be integers >= 2 or INFINITY, got {m!r}")
    if max_rank is None:
        max_rank = k
    if not isinstance(max_rank, int) or max_rank < 0:
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

    if not allow_gap:
        # without label 2 nothing commutes across parts, so one connected
        # support must carry the whole length
        table = {key: entry for key, entry in table.items() if key[1] == k}
    composed = _compose_parts(table, k, max_rank)
    if composed is None:
        raise ValueError(f"no element of length {k} within the search space")
    value, parts = composed
    graph, word = _combine_witness(table, parts)
    word = canonical_form(graph, word).word
    return SearchResult(value, graph, word)
