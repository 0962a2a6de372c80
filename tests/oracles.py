"""Brute-force reference answers used only by the tests.

Everything here recomputes results from first principles: explicit
rewriting closures for the word problem, permutation arithmetic for the
symmetric group, raw permutation filtering for linear extensions.  None of
it touches the package's root-system or ideal-counting code paths, so
agreement between the two sides is evidence, not circularity.
"""

import math
import random
from itertools import permutations

from wordposets.alphabet import CommutationAlphabet
from wordposets.coxeter import (
    CoxeterGraph, INFINITY, apply_generator, descents_from_inverse, inverse_columns, matrix_key)

LETTERS = "abcde"


def _alternating(a, b, m):
    return tuple(a if i % 2 == 0 else b for i in range(m))


def flip_moves(graph, word):
    """Words one length-preserving rewrite away: an alternating run a b a ...
    of length m(a,b) replaced by the run started from b (m = 2 is the plain
    commuting swap)."""
    out = []
    for p in range(len(word) - 1):
        a, b = word[p], word[p + 1]
        if a == b:
            continue
        m = graph.label(a, b)
        if m == INFINITY or p + m > len(word):
            continue
        m = int(m)
        if word[p:p + m] == _alternating(a, b, m):
            out.append(word[:p] + _alternating(b, a, m) + word[p + m:])
    return out


def cancel_moves(word):
    """Words with one adjacent equal pair deleted."""
    return [word[:p] + word[p + 2:]
            for p in range(len(word) - 1) if word[p] == word[p + 1]]


def rewriting_closure(graph, word, with_cancel):
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        nxt = []
        for w in frontier:
            steps = flip_moves(graph, w)
            if with_cancel:
                steps += cancel_moves(w)
            for v in steps:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def brute_is_reduced(graph, word):
    """A word shortens iff some chain of length-preserving rewrites exposes
    an adjacent equal pair."""
    return all(not cancel_moves(w) for w in rewriting_closure(graph, word, False))


def brute_length(graph, word):
    return min(len(w) for w in rewriting_closure(graph, word, True))


def brute_reduced_words(graph, word):
    """All shortest words equivalent to ``word``; equal sets characterize
    equal group elements."""
    closure = rewriting_closure(graph, word, True)
    shortest = min(len(w) for w in closure)
    return frozenset(w for w in closure if len(w) == shortest)


def brute_same_element(graph, u, v):
    return brute_reduced_words(graph, u) == brute_reduced_words(graph, v)


def brute_left_descents(graph, word):
    base = brute_length(graph, word)
    return {a for a in graph.generators
            if brute_length(graph, (a,) + tuple(word)) < base}


def word_to_permutation(n, word):
    """Image of 1..n under the word's product of adjacent swaps (letters
    applied as a right action, left to right)."""
    perm = list(range(n + 1))
    for a in word:
        perm[a], perm[a + 1] = perm[a + 1], perm[a]
    return tuple(perm[1:])


def inversions(perm):
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
               if perm[i] > perm[j])


def standard_tableaux(shape):
    """Standard Young tableaux of a partition shape, by the hook length
    formula.  The staircase (n-1, ..., 1) counts the reduced words of the
    longest element of S_n (Stanley 1984), the n x n square those of B_n
    (Haiman 1992)."""
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + sum(1 for below in shape[i + 1:] if below > j)
    return math.factorial(sum(shape)) // hooks


def poincare_polynomial(degrees):
    """Coefficients, lowest first, of the growth polynomial
    prod_i (1 + t + ... + t^(d_i - 1)) of a finite Coxeter group with the
    given degrees, e.g. (2, 6, 10) for H3 and (2, m) for the dihedral I2(m)."""
    out = [1]
    for d in degrees:
        out = [sum(out[max(0, k - d + 1):k + 1]) for k in range(len(out) + d - 1)]
    return out


def _series_quotient(p, q, n):
    """Coefficients through t^n of the power series p(t) / q(t), q(0) = 1."""
    out = []
    for k in range(n + 1):
        out.append((p[k] if k < len(p) else 0)
                   - sum(q[i] * out[k - i] for i in range(1, min(k, len(q) - 1) + 1)))
    return out


def steinberg_series(finite_parabolics, n):
    """Elements per length 0..n of a Coxeter group from its finite parabolic
    subgroups W_J, given as (|J|, degrees) for every J including the empty
    one: Steinberg's 1/W(1/t) = sum_J (-1)^|J| / W_J(t), where
    W_J(1/t) = t^-N_J W_J(t) with N_J the length of the longest element of
    W_J.  No root or matrix arithmetic is involved."""
    total = [0] * (n + 1)
    for size, degrees in finite_parabolics:
        w = poincare_polynomial(degrees)
        shift = len(w) - 1
        for k, c in enumerate(_series_quotient([0] * shift + [1], w, n)):
            total[k] += (-1) ** size * c
    return _series_quotient([1], total, n)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def fully_commutative_count(family, n):
    """Elements with one commutation class of reduced words (fully
    commutative, C(w) = 1) in the finite Coxeter group ``family`` of rank n
    (I2 takes the label m as n), in closed form.  A_n: the Catalan number
    C(n+1), as they are the 321-avoiding permutations (Billey, Jockusch and
    Stanley, J. Algebraic Combin. 2 (1993) 345-374).  B_n, D_n and the
    exceptional groups: J. R. Stembridge, The enumeration of fully
    commutative elements of Coxeter groups, J. Algebraic Combin. 7 (1998)
    291-320.  I2(m), m >= 3: every element but the longest, whose two
    reduced words are the two sides of the braid relation."""
    if family == "A":
        return catalan(n + 1)
    if family == "B":
        return (n + 2) * catalan(n) - 1
    if family == "D":
        return (n + 3) * catalan(n) // 2 - 1
    if family == "I2":
        return 2 * n - 1
    return {("E", 6): 662, ("E", 7): 2670, ("F", 4): 106, ("H", 3): 44, ("H", 4): 195}[family, n]


def least_word_class_count(graph, word):
    """Commutation classes of reduced words of the element of the reduced
    ``word``, counted as the lexicographically least words of its classes.

    A word is least in its class iff no factor b v a has a < b with a
    commuting with b and with every letter of v (Anisimov and Knuth,
    "Inhomogeneous sorting", 1979; the trace normal forms of Cartier and
    Foata, 1969).  Read left to right, F holds the letters such a factor
    would end with: letter x may come next iff x is not in F, and then
    F' = (F | {a < x}) & commuting(x).  So the count is of the paths from w
    down to e that peel one left descent at a time, F in tow, level by level
    with each element's F counts merged.  No subsets, link codes, windows or
    orbits, which is the point, and no ``coxeter.step_state``: with every
    label 2, 3, 4, 6 or inf, u is the vector u(rho^v) stepped by the integer
    Cartan matrix, its coordinate <alpha_a, u(rho^v)> negative iff a is a
    left descent; with a label of 5 or more, u is the column matrix of u^-1
    in the float column calculus.
    """
    commute = {x: sum(1 << a for a in graph.generators if graph.commutes(a, x))
               for x in graph.generators}
    if graph.exact:
        rows = [[(b, c) for b, c in enumerate(row) if c and b != a] for a, row in enumerate(graph.cartan)]

        def step(v, x):  # s_x(v), coordinate b less A[x][b] times coordinate x
            v, vx = list(v), v[x - 1]
            for b, c in rows[x - 1]:
                v[b] -= c * vx
            v[x - 1] = -vx
            return tuple(v)
        state = (1,) * graph.rank
        for x in reversed(word):
            state = step(state, x)
        key, descents = (lambda v: v), (lambda v: [a for a, va in enumerate(v, 1) if va < 0])
    else:
        def step(cols, x):  # u -> x*u is u^-1 -> u^-1 * x
            cols = list(cols)
            apply_generator(cols, graph, x - 1)
            return cols
        state = inverse_columns(graph, word)
        key, descents = (lambda cols: matrix_key(graph, cols)), (lambda cols: descents_from_inverse(graph, cols))
    level = {key(state): (state, {0: 1})}
    for _letter in word:
        below = {}
        for state, counts in level.values():
            for x in descents(state):
                child = step(state, x)
                into = below.setdefault(key(child), (child, {}))[1]
                for forbid, c in counts.items():
                    if not forbid >> x & 1:
                        forbid = (forbid | (1 << x) - 1) & commute[x]
                        into[forbid] = into.get(forbid, 0) + c
        level = below
    ((_state, counts),) = level.values()
    return sum(counts.values())


def brute_extension_words(poset):
    """Words of all linear extensions by filtering raw permutations; one
    entry per extension, so the length is the extension count."""
    m = len(poset)
    out = []
    for order in permutations(range(m)):
        position = {x: t for t, x in enumerate(order)}
        if all(position[x] < position[y]
               for y in range(m) for x in range(m)
               if x != y and poset.preds[y] >> x & 1):
            out.append(tuple(poset.labels[x] for x in order))
    return out


def random_trace_instance(rng):
    size = rng.randint(1, 5)
    symbols = LETTERS[:size]
    pairs = [(a, b) for i, a in enumerate(symbols) for b in symbols[i + 1:]
             if rng.random() < 0.5]
    alphabet = CommutationAlphabet(symbols, pairs)
    word = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 10)))
    return word, alphabet


def random_trace_corpus(count, seed=20260823):
    rng = random.Random(seed)
    return [random_trace_instance(rng) for _ in range(count)]


def random_coxeter_graph(rng, max_rank=4, labels=(2, 2, 2, 3, 3, 4, INFINITY)):
    rank = rng.randint(1, max_rank)
    edges = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            m = rng.choice(labels)
            if m != 2:
                edges.append((i, j, m))
    return CoxeterGraph(rank, edges)


def random_word(rng, rank, max_len):
    return tuple(rng.randint(1, rank) for _ in range(rng.randint(0, max_len)))


def label_involutions(graph):
    """Every involution sigma != id of the generators, as the tuple (0,
    sigma(1), ..., sigma(n)), that keeps every label and keeps the order of
    the endpoints of each label-4 or label-6 edge: the integer Cartan entries
    of those labels split asymmetrically, so swapping the ends changes the
    reflection.  Brute force over all permutations."""
    gens = list(graph.generators)
    out = set()
    for image in permutations(gens):
        sigma = (0,) + image
        if image == tuple(gens) or any(sigma[sigma[a]] != a for a in gens):
            continue
        keeps_labels = all(graph.label(sigma[a], sigma[b]) == graph.label(a, b) for a in gens for b in gens)
        if keeps_labels and all(sigma[i] < sigma[j] for i, j, m in graph.edges() if m in (4, 6)):
            out.add(sigma)
    return out
