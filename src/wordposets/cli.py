"""Command-line interface.

One command per invocation.  Counting commands print a single decimal
integer; ``--json`` wraps the result as {command, input, value} instead.
Exit codes: 0 success, 1 usage or input error, 2 computation budget
exceeded, 3 oracle cross-check mismatch (``check`` only).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import networks, reduced, trace
from .alphabet import CommutationAlphabet, parse_alphabet
from .coxeter import INFINITY, parse_graph
from .errors import BudgetError, SignToleranceError
from .poset import build_word_poset, count_linear_extensions

__all__ = ["run", "main"]


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here reserves
    # 2 for budget failures, so usage problems become exceptions instead
    def error(self, message):
        raise _UsageError(message)


def _read_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse_index_word(text):
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise _UsageError(
            f"bad word {text!r}: expected space-separated generator indices") from None


def _graph_and_word(args):
    return parse_graph(_read_file(args.graph)), _parse_index_word(args.word)


def _parse_trace_word(text, alphabet):
    """Space-separated symbols, or one contiguous string of one-character
    symbols when there is no whitespace."""
    tokens = text.split()
    if len(tokens) == 1 and all(ch in alphabet for ch in tokens[0]):
        return tuple(tokens[0])
    return tuple(tokens)


def _parse_label_set(text):
    labels = set()
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok == "inf":
            labels.add(INFINITY)
        else:
            try:
                labels.add(int(tok))
            except ValueError:
                raise _UsageError(f"bad label {tok!r} in --labels") from None
    if not labels:
        raise _UsageError("--labels must name at least one label")
    return labels


def _emit(args, payload, value, extra=None):
    if args.json:
        doc = {"command": args.command, "input": payload, "value": value}
        if extra:
            doc.update(extra)
        print(json.dumps(doc))
    elif isinstance(value, list):
        for item in value:
            print(item)
    else:
        print(value)


def _cmd_count(args):
    graph, word = _graph_and_word(args)
    count = (reduced.count_classes if args.command == "count-classes"
             else reduced.count_reduced_words)
    _emit(args, {"graph": args.graph, "word": list(word)}, count(graph, word))
    return 0


def _cmd_enum_classes(args):
    graph, word = _graph_and_word(args)
    for class_word in reduced.wp_set(graph, word).posets:
        print(" ".join(str(a) for a in class_word))
    return 0


def _cmd_trace_count(args):
    alphabet = parse_alphabet(_read_file(args.alphabet))
    word = _parse_trace_word(args.word, alphabet)
    value = trace.count_class(word, alphabet)
    _emit(args, {"alphabet": args.alphabet, "word": list(word)}, value)
    return 0


def _cmd_poset(args):
    graph, word = _graph_and_word(args)
    p = build_word_poset(word, CommutationAlphabet.from_coxeter(graph))
    if args.format == "json":
        print(json.dumps(p.to_json_dict()))
    elif args.format == "dot":
        print(p.to_dot(), end="")
    else:
        print(f"elements: {len(p)}")
        print("labels:", " ".join(str(s) for s in p.labels))
        for x, y in p.covers():
            print(f"cover: {x} {y}")
    return 0


def _cmd_networks(args):
    count = networks.p_n if args.command == "pn" else networks.p_sequence
    _emit(args, {"n": args.n}, count(args.n))
    return 0


def _cmd_limit_bound(args):
    p_m = args.pm if args.pm is not None else networks.p_n(args.m)
    value = networks.limit_lower_bound(args.m, p_m)
    if args.json:
        _emit(args, {"m": args.m, "pm": p_m}, value)
    else:
        print(f"{value:.6f}")
    return 0


def _cmd_search_mk(args):
    labels = _parse_label_set(args.labels)
    result = networks.search_M(args.k, labels, args.max_rank)
    extra = {
        "witness_graph": result.graph.to_json_dict(),
        "witness_word": list(result.word),
    }
    _emit(args, {"k": args.k, "labels": args.labels, "max_rank": args.max_rank},
          result.value, extra)
    return 0


def _cmd_check(args):
    graph, word = _graph_and_word(args)
    wp = reduced.wp_set(graph, word)
    poset_reduced = sum(count_linear_extensions(p) for p in wp)
    recursion_classes = reduced.count_classes(graph, word)
    oracle_words, oracle_classes = reduced.oracle_reduced(graph, word)
    failed = False

    if poset_reduced == len(oracle_words):
        print(f"reduced-count: PASS ({poset_reduced})")
    else:
        failed = True
        print(f"reduced-count: FAIL (poset route {poset_reduced}, "
              f"oracle {len(oracle_words)})")

    if recursion_classes == oracle_classes == len(wp):
        print(f"class-count: PASS ({recursion_classes})")
    else:
        failed = True
        print(f"class-count: FAIL (recursion {recursion_classes}, "
              f"oracle {oracle_classes}, posets {len(wp)})")

    # the bound of reduced.bound_check, 9 C^2 <= 4 * 3^len, on the count above
    if not word:
        print("bound: SKIP (identity)")
    elif 9 * recursion_classes ** 2 <= 4 * 3 ** len(word):
        print("bound: PASS")
    else:
        failed = True
        print("bound: FAIL")

    return 3 if failed else 0


_GRAPH_WORD = (("--graph", {"required": True}), ("--word", {"required": True}))
_N = (("--n", {"type": int, "required": True}),)

# name, handler, help text, arguments, whether --json follows the arguments
_COMMANDS = (
    ("count-classes", _cmd_count, "number of commutation classes of reduced words",
     _GRAPH_WORD, True),
    ("count-reduced", _cmd_count, "number of reduced words", _GRAPH_WORD, True),
    ("enum-classes", _cmd_enum_classes,
     "canonical word of every commutation class, one per line", _GRAPH_WORD, False),
    ("trace-count", _cmd_trace_count, "size of a commutation class",
     (("--alphabet", {"required": True}), ("--word", {"required": True})), True),
    ("poset", _cmd_poset, "word poset of a word",
     _GRAPH_WORD + (("--format", {"choices": ["text", "json", "dot"], "default": "text"}),),
     False),
    ("pn", _cmd_networks, "number of primitive sorting networks on n wires", _N, True),
    ("pseq", _cmd_networks, "sorting network counts for 1..n", _N, True),
    ("limit-bound", _cmd_limit_bound, "lower bound for the growth rate from a known P(m)",
     (("--m", {"type": int, "required": True}), ("--pm", {"type": int, "default": None})),
     True),
    ("search-mk", _cmd_search_mk, "largest class count over elements of length k",
     (("--k", {"type": int, "required": True}), ("--labels", {"default": "2,3,inf"}),
      ("--max-rank", {"type": int, "default": None})), True),
    ("check", _cmd_check, "cross-check counts against the oracle", _GRAPH_WORD, False),
)


@functools.cache
def _parser():
    """The argument parser, built on the first ``run`` and reused after."""
    parser = _Parser(prog="wordposets",
                     description="Commutation classes, word posets, and "
                                 "reduced-word counting.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, arguments, json_flag in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        if json_flag:
            p.add_argument("--json", action="store_true")
    return parser


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse --help exits 0 through here
        return int(exc.code or 0)
    except (ValueError, SignToleranceError, OSError) as exc:
        # GraphParseError, NotReducedError and _UsageError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
