"""Word posets, commutation classes, and reduced-word counting.

Words over a partially commutative alphabet fall into commutation classes;
each class is captured by a labeled partial order on the word's positions,
whose linear extensions are exactly the words of the class.  On top of that
correspondence the package counts and enumerates the commutation classes of
reduced words in Coxeter groups, specializes the count to primitive sorting
networks, and searches for the largest class count at a fixed word length.
"""

from .alphabet import CommutationAlphabet, parse_alphabet
from .coxeter import (
    INFINITY, TOLERANCE, CanonicalElement, CoxeterGraph, canonical_form, element_of,
    is_reduced, left_descents, multiply_left, parse_graph, shortest_non_reduced_prefix,
)
from .errors import BudgetError, GraphParseError, NotReducedError, SignToleranceError
from .networks import SearchResult, limit_lower_bound, p_n, p_sequence, search_M, w0_word
from .poset import (
    WordPoset, adjoin_min, build_word_poset, canonical_word, count_linear_extensions,
    enumerate_linear_extensions, validate,
)
from .reduced import (
    ClassCounter, WPSet, bound_check, count_classes, count_reduced_words, iter_elements,
    oracle_reduced, wp_set,
)
from .trace import count_class, oracle_enumerate_class, same_class

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CanonicalElement", "ClassCounter", "CommutationAlphabet",
    "CoxeterGraph", "GraphParseError", "INFINITY", "NotReducedError", "SearchResult",
    "SignToleranceError", "TOLERANCE", "WPSet", "WordPoset", "adjoin_min",
    "bound_check", "build_word_poset", "canonical_form", "canonical_word",
    "count_class", "count_classes", "count_linear_extensions", "count_reduced_words",
    "element_of", "enumerate_linear_extensions", "is_reduced", "iter_elements",
    "left_descents", "limit_lower_bound", "multiply_left", "oracle_enumerate_class",
    "oracle_reduced", "p_n", "p_sequence", "parse_alphabet", "parse_graph",
    "same_class", "search_M", "shortest_non_reduced_prefix", "validate", "w0_word",
    "wp_set",
]
