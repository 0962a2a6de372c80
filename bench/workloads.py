"""Workload definitions, seeded input generation and reference checks.

Shared by the parent (``run.py``), which checks answers, and the sample
process (``sample.py``), which regenerates the same inputs from the seed
and times the operations.  Input generation uses only the standard library
and this file's own root-sign test, so its cost and its output do not
depend on the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# P(8) is OEIS A006245; the smaller values are the smoke-test sizes.
P_N = {5: 62, 8: 1232944}
# M(k), the largest class count at length k, here over labels {2, 3, 4, inf}
# and at most 4 generators; the same values tests/test_acceptance.py finds.
M_K = {4: 2, 6: 8}

# Default sizes.  The smoke tests replace these with tiny ones.
SPECS = {
    "sorting_networks": {"n": 8},
    "class_search": {"k": 6, "labels": [2, 3, 4, "inf"], "max_rank": 4},
    "query_mix": {"requests": 1008},
}

# Coxeter graphs as (rank, edges), edges (i, j, m) with m an int or "inf".
GRAPHS = {
    "A4": (4, [(1, 2, 3), (2, 3, 3), (3, 4, 3)]),
    "B3": (3, [(1, 2, 3), (2, 3, 4)]),
    "B4": (4, [(1, 2, 3), (2, 3, 3), (3, 4, 4)]),
    "D4": (4, [(1, 2, 3), (2, 3, 3), (2, 4, 3)]),
    "F4": (4, [(1, 2, 3), (2, 3, 4), (3, 4, 3)]),
    "H3": (3, [(1, 2, 5), (2, 3, 3)]),
    "H4": (4, [(1, 2, 5), (2, 3, 3), (3, 4, 3)]),
    "A3~": (4, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (1, 4, 3)]),
    "X3inf": (3, [(1, 2, "inf"), (2, 3, 3)]),
}

# One block of the query mix: (command, graph, max word length).  Every
# block holds the same commands on the same groups; the seed picks the
# words and the order.  Keeping the recipe fixed holds the cost of a run
# nearly constant across seeds, so a seed change does not read as a
# speed change.  Lengths are capped where the oracle check would explode
# (reduced-word closures of long F4/H4 words run to millions of words).
MIX_BLOCK = [
    ("count-classes", "A4", 10), ("count-classes", "B4", 13),
    ("count-classes", "D4", 12), ("count-classes", "F4", 14),
    ("count-classes", "H3", 15), ("count-classes", "H4", 14),
    ("count-classes", "A3~", 14), ("count-classes", "X3inf", 16),
    ("count-reduced", "A4", 10), ("count-reduced", "B4", 12),
    ("count-reduced", "D4", 12), ("count-reduced", "F4", 11),
    ("count-reduced", "H3", 12), ("count-reduced", "A3~", 12),
    ("enum-classes", "A4", 9), ("enum-classes", "B4", 11),
    ("enum-classes", "D4", 10), ("enum-classes", "H3", 11),
    ("enum-classes", "A3~", 11), ("enum-classes", "X3inf", 14),
    ("check", "A4", 10), ("check", "D4", 12), ("check", "B4", 10),
    ("check", "H3", 10), ("check", "X3inf", 12),
    ("poset", "A4", 10), ("poset", "F4", 16), ("poset", "H4", 16),
    ("poset", "A3~", 16),
    ("trace-count", None, 10), ("trace-count", None, 10),
    ("trace-count", None, 10), ("trace-count", None, 10),
]
# Longest elements, one each per block (H4's is left out: one call of
# about five seconds would dominate the whole mix).
MIX_LONGEST = [("count-classes", "B3"), ("check", "B3"), ("count-classes", "H3")]

TRACE_SYMBOLS = "abcdef"


def graph_text(name):
    rank, edges = GRAPHS[name]
    lines = [f"generators: {rank}"]
    lines += [f"edge: {i} {j} {m}" for i, j, m in edges]
    return "\n".join(lines) + "\n"


def _labels(name):
    rank, edges = GRAPHS[name]
    m = [[2] * rank for _ in range(rank)]
    for i, j, lab in edges:
        m[i - 1][j - 1] = m[j - 1][i - 1] = math.inf if lab == "inf" else lab
    return m


class _Walker:
    """Column matrix of a word in the geometric representation, floats.

    Column j holds w(alpha_j).  Appending a keeps the word reduced iff
    w(alpha_a) is a positive root; a root has coordinates of one sign, so
    the sign of the coordinate sum decides it at the lengths used here.
    """

    def __init__(self, name):
        self.m = _labels(name)
        self.n = len(self.m)
        self.cols = [[1.0 if i == j else 0.0 for i in range(self.n)] for j in range(self.n)]

    def extends(self, a):
        return sum(self.cols[a - 1]) > 0

    def append(self, a):
        a0 = a - 1
        ca = self.cols[a0]
        for j in range(self.n):
            if j == a0 or self.m[a0][j] == 2:
                continue
            c = 2.0 * math.cos(math.pi / self.m[a0][j]) if self.m[a0][j] != math.inf else 2.0
            self.cols[j] = [x + c * y for x, y in zip(self.cols[j], ca)]
        self.cols[a0] = [-x for x in ca]


def random_reduced_word(rng, name, length):
    """A reduced word of up to ``length`` letters by a random walk that only
    appends letters which lengthen; stops early at the longest element."""
    walker = _Walker(name)
    word = []
    for _ in range(length):
        choices = [a for a in range(1, walker.n + 1) if walker.extends(a)]
        if not choices:
            break
        a = rng.choice(choices)
        walker.append(a)
        word.append(a)
    return word


def longest_word(name):
    """A reduced word of the longest element of a finite group: extend
    greedily until no letter lengthens."""
    walker = _Walker(name)
    word = []
    while True:
        choices = [a for a in range(1, walker.n + 1) if walker.extends(a)]
        if not choices:
            return word
        walker.append(choices[0])
        word.append(choices[0])


def random_alphabet(rng):
    """Symbols a..f with six of their fifteen pairs commuting.

    A fixed pair count bounds the largest commuting clique at four letters,
    so no 10-letter class exceeds 10!/(3!3!2!2!) = 25200 words and the
    brute-force class oracle stays cheap for every seed.
    """
    every = [(x, y) for i, x in enumerate(TRACE_SYMBOLS) for y in TRACE_SYMBOLS[i + 1:]]
    return list(TRACE_SYMBOLS), sorted(rng.sample(every, 6))


def alphabet_text(symbols, pairs):
    lines = ["symbols: " + " ".join(symbols)]
    lines += [f"commute: {x} {y}" for x, y in pairs]
    return "\n".join(lines) + "\n"


def make_requests(seed, count):
    """The query mix: ``count`` requests, each (command, target, word).

    The target is a graph name or "alpha" (the seeded trace alphabet); the
    word is a list of generator indices, or of symbols for trace-count.
    Returns (alphabet, requests).
    """
    rng = random.Random(seed)
    symbols, pairs = random_alphabet(rng)
    requests = []
    while len(requests) < count:
        block = []
        # lengths cycle through a fixed schedule, the same for every seed
        shorten = len(requests) // (len(MIX_BLOCK) + len(MIX_LONGEST)) % 7
        for command, name, max_len in MIX_BLOCK:
            length = max(1, max_len - shorten)
            if command == "trace-count":
                block.append((command, "alpha", [rng.choice(symbols) for _ in range(length)]))
            else:
                block.append((command, name, random_reduced_word(rng, name, length)))
        for command, name in MIX_LONGEST:
            block.append((command, name, longest_word(name)))
        rng.shuffle(block)
        requests.extend(block)
    return (symbols, pairs), requests[:count]


def digest(obj):
    """Short sha256 of a JSON-serializable value, to show two runs used
    identical inputs."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def write_inputs(workdir, alphabet):
    """Write every graph file and the trace alphabet; returns name -> path."""
    paths = {}
    for name in GRAPHS:
        path = workdir / f"{name}.cox"
        path.write_text(graph_text(name))
        paths[name] = str(path)
    path = workdir / "trace.alpha"
    path.write_text(alphabet_text(*alphabet))
    paths["alpha"] = str(path)
    return paths


def argv_of(request, paths):
    command, target, word = request
    flag = "--alphabet" if target == "alpha" else "--graph"
    return [command, flag, paths[target], "--word", " ".join(str(a) for a in word)]


# ---- reference checks (run in the parent, outside the timed region) ----

def _commutation_components(seen, label):
    """Map each reduced word to a class id: connected components of the
    word set under swaps of adjacent commuting letters."""
    comp = {}
    cid = 0
    for start in seen:
        if start in comp:
            continue
        cid += 1
        comp[start] = cid
        stack = [start]
        while stack:
            w = stack.pop()
            for p in range(len(w) - 1):
                a, b = w[p], w[p + 1]
                if a != b and label(a, b) == 2:
                    v = w[:p] + (b, a) + w[p + 2:]
                    if v not in comp:
                        comp[v] = cid
                        stack.append(v)
    return comp


def poset_text(word, commutes):
    """Expected ``poset`` text output: positions ordered when equal or
    non-commuting letters force it (transitive closure), cover pairs
    listed in position order."""
    n = len(word)
    less = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            less[i][j] = word[i] == word[j] or not commutes(word[i], word[j])
    for k in range(n):
        for i in range(k):
            if less[i][k]:
                for j in range(k + 1, n):
                    if less[k][j]:
                        less[i][j] = True
    lines = [f"elements: {n}", "labels: " + " ".join(str(a) for a in word)]
    for i in range(n):
        for j in range(i + 1, n):
            if less[i][j] and not any(less[i][k] and less[k][j] for k in range(i + 1, j)):
                lines.append(f"cover: {i} {j}")
    return "\n".join(lines) + "\n"


class Reference:
    """Expected outputs of query-mix requests, from the package's brute-force
    oracles (braid/commutation closure, commutation-class closure) and this
    file's own word-poset construction."""

    def __init__(self, wp, alphabet):
        self.wp = wp
        symbols, pairs = alphabet
        self.alphabet = wp.CommutationAlphabet(symbols, pairs)
        self.graphs = {name: wp.parse_graph(graph_text(name)) for name in GRAPHS}

    def _closure(self, name, word):
        graph = self.graphs[name]
        seen, classes = self.wp.oracle_reduced(graph, tuple(word))
        return seen, classes, _commutation_components(seen, graph.label)

    def problem(self, request, code, out):
        """None when (exit code, stdout) is right for the request, else a
        one-line description of what is wrong."""
        command, target, word = request
        if code != 0:
            return f"exit code {code}"
        if command == "trace-count":
            want = len(self.wp.oracle_enumerate_class(tuple(word), self.alphabet))
            return None if out == f"{want}\n" else f"got {out!r}, oracle {want}"
        graph = self.graphs[target]
        if command == "poset":
            want = poset_text(word, lambda a, b: graph.label(a, b) == 2)
            return None if out == want else "poset output differs from reference"
        if command == "check":
            return None
        seen, classes, comp = self._closure(target, word)
        if command == "count-classes":
            return None if out == f"{classes}\n" else f"got {out!r}, oracle {classes}"
        if command == "count-reduced":
            return None if out == f"{len(seen)}\n" else f"got {out!r}, oracle {len(seen)}"
        if command == "enum-classes":
            lines = [tuple(int(t) for t in line.split()) for line in out.splitlines()]
            hit = {comp.get(w) for w in lines}
            if None in hit or len(hit) != len(lines) or len(lines) != classes:
                return f"{len(lines)} lines do not name the {classes} oracle classes once each"
            return None
        return f"unknown command {command}"


def check_search(wp, answer, k):
    """Problems with a search_M answer: its value against M(k), and its
    witness against the braid/commutation closure and 9 C^2 <= 4 * 3^k."""
    problems = []
    value, rank, edges, word = answer["value"], answer["rank"], answer["edges"], answer["word"]
    if value != M_K[k]:
        problems.append(f"search_M({k}) = {value}, expected {M_K[k]}")
    graph = wp.CoxeterGraph(rank, [(i, j, math.inf if m == "inf" else m) for i, j, m in edges])
    if len(word) != k:
        problems.append(f"witness has length {len(word)}, expected {k}")
    _seen, classes = wp.oracle_reduced(graph, tuple(word))
    if classes != value:
        problems.append(f"witness has {classes} classes by the oracle, reported {value}")
    if 9 * classes * classes > 4 * 3 ** len(word):
        problems.append(f"witness class count {classes} breaks 9C^2 <= 4*3^k")
    return problems
