"""Command-line front end; every subcommand is a thin adapter over the
library with text/json output, and `ace` also offers csv.  Every output
format is built here: the library returns plain values."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from math import gcd
from string import digits
from typing import Sequence

from .codes import _default_probe, is_synchronizing, parse_code_set, x_degree
from .infinite import _ace_prefix, _parse_params, ace_estimate, generator_from_spec
from .mapped_exponent import (
    classify_general,
    highpower_word,
    lowpower_morphism,
    mapped_exponent_lower_bound,
)
from .words import (
    ParseError,
    WordError,
    fractional_exponent,
    minimal_period_profile,
    parse_rational,
    smallest_period,
)


def _parse_word(literal: str) -> str:
    # The whole-string checks run in C; the loop only finds the bad letter.
    if not (literal.isascii() and literal.isprintable()) or "," in literal or "=" in literal or " " in literal:
        for i, ch in enumerate(literal):
            if not (ch.isascii() and ch.isprintable() and ch not in ",= "):
                raise ParseError(f"bad letter {ch!r} in word literal", i)
    if not literal:
        raise ParseError("empty word literal")
    return literal


# The bytes json writes as themselves: printable ASCII but the quote and the
# backslash (0x7f is escaped too).
_JSON_PLAIN = bytes(range(0x20, 0x7F)).translate(None, b'"\\')


def _emit(record: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _cmd_exp(args: argparse.Namespace) -> None:
    w = _parse_word(args.word)
    base, e = fractional_exponent(w)
    # IE(w): w is a proper power of its primitive base iff E(w) is an integer.
    n, root = (e.numerator, base) if e.denominator == 1 else (1, w)
    record = {
        "word": w,
        "exponent": str(e),
        "base": base,
        "integer_exponent": n,
        "root": root,
    }
    _emit(record, f"E = {e} (base {base}); IE = {n} (root {root})", args.format)


def _cmd_classify(args: argparse.Namespace) -> None:
    w = _parse_word(args.word)
    target = None if args.target is None else parse_rational(args.target)
    verdict = classify_general(w, max_image_len=args.max_image_len, target=target)
    h, e = verdict.witness or (None, None)
    morphism = None if h is None else h.to_text()
    record = {
        "word": w,
        "tag": verdict.tag,
        "witness_morphism": morphism,
        "achieved_exponent": None if e is None else str(e),
        "search_bound": verdict.search_bound,
    }
    if target is not None:
        record["target"] = str(target)
    lines = [f"tag: {verdict.tag}"]
    if h is not None:
        lines += [f"witness: {morphism}", f"achieved exponent: {e}"]
    if verdict.search_bound is not None:
        lines.append(f"search bound: {verdict.search_bound}")
    _emit(record, "\n".join(lines), args.format)


def _cmd_lower_bound(args: argparse.Namespace) -> None:
    w = _parse_word(args.word)
    if args.codomain > len(digits):
        raise ParseError(f"--codomain must be <= {len(digits)}, the number of codomain letters")
    best, argmax = mapped_exponent_lower_bound(w, args.max_image_len, codomain_size=args.codomain)
    record = {
        "word": w,
        "max_image_len": args.max_image_len,
        "codomain_size": args.codomain,
        "best_exponent": str(best),
        "argmax_morphism": argmax.to_text(),
    }
    _emit(record, f"best E = {best} via {argmax.to_text()}", args.format)


def _cmd_xdegree(args: argparse.Namespace) -> None:
    w = _parse_word(args.word)
    code = parse_code_set(args.code)
    degree = x_degree(w, code)
    record = {"word": w, "code": code.to_text(), "degree": degree}
    _emit(record, f"degree = {degree}", args.format)


def _cmd_sync(args: argparse.Namespace) -> None:
    w = _parse_word(args.word)
    code = parse_code_set(args.code)
    if args.probe is not None and args.probe < 0:
        raise ParseError("--probe must be >= 0")
    probe = args.probe if args.probe is not None else _default_probe(w, code)
    split = is_synchronizing(w, code, probe_len=probe)
    record = {"word": w, "code": code.to_text(), "probe_len": probe, "split": split}
    if split is None:
        text = f"no synchronizing split (probe length {probe})"
    else:
        text = f"synchronizing split at {split} (probe length {probe})"
    _emit(record, text, args.format)


def _cmd_ace(args: argparse.Namespace) -> None:
    gen = generator_from_spec(args.gen, _parse_params(args.params))
    if args.format == "csv":
        # Per factor length: the maximal exponent among factors of that
        # length, in lowest terms, and the leftmost start of one reaching it.
        minper, start = minimal_period_profile(_ace_prefix(gen, args.prefix, args.tail))
        lines = ["factor_length,max_exponent_num,max_exponent_den,witness_offset"]
        for length in range(args.tail, args.prefix + 1):
            g = gcd(length, minper[length])
            lines.append(f"{length},{length // g},{minper[length] // g},{start[length]}")
        print("\n".join(lines))
        return
    estimate = ace_estimate(gen, args.prefix, args.tail)
    record = {
        "generator": args.gen,
        "prefix": args.prefix,
        "tail": args.tail,
        "estimate": str(estimate.estimate),
        "witness_offset": estimate.witness_offset,
        "witness_length": estimate.witness_length,
    }
    text = (
        f"estimate = {estimate.estimate} "
        f"(factor length {estimate.witness_length} at offset {estimate.witness_offset})"
    )
    _emit(record, text, args.format)


def _cmd_generate(args: argparse.Namespace) -> None:
    gen = generator_from_spec(args.gen, _parse_params(args.params))
    word, alphabet = gen.prefix(args.prefix), gen.alphabet
    # The generator's parts hold every letter of the word again: free them
    # before writing the word, which the text stream encodes into a third copy.
    del gen
    if args.format == "json" and alphabet.isascii() and not alphabet.encode().translate(None, _JSON_PLAIN):
        # Every letter of the word lies in an alphabet that needs no escaping,
        # so the word is written as it is, after the head json writes for the
        # other (sorted, hence earlier) keys.
        head = json.dumps({"generator": args.gen, "prefix": args.prefix}, sort_keys=True)
        print(head[:-1], ', "word": "', word, '"}', sep="")
        return
    record = {"generator": args.gen, "prefix": args.prefix, "word": word}
    _emit(record, word, args.format)


def _cmd_family(args: argparse.Namespace) -> None:
    if args.n is None:
        raise ParseError(f"family {args.which} needs --n")
    if args.which == "lowpower":
        word, h, expected = lowpower_morphism(args.n, args.k)
    else:
        word, h, expected = highpower_word(args.n)
    image = h.apply(word)
    computed = Fraction(len(image), smallest_period(image))
    record = {
        "family": args.which,
        "n": args.n,
        "k": args.k if args.which == "lowpower" else None,
        "word": word,
        "morphism": h.to_text(),
        "expected_exponent": str(expected),
        "computed_exponent": str(computed),
        "verified": computed == expected,
    }
    status = "verified" if record["verified"] else "MISMATCH"
    text = (
        f"word {word}\nmorphism {h.to_text()}\n"
        f"expected E = {expected}; computed E = {computed} ({status})"
    )
    _emit(record, text, args.format)


@functools.cache
def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name.  Parsing
    reads the parsers and never changes them, so one set per process serves
    every call."""
    parser = argparse.ArgumentParser(
        prog="morphexp",
        description="Exact word exponents, injective morphisms, codes, and repetition analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, *extra: str) -> None:
        p.add_argument("--format", choices=("text", "json", *extra), default="text")

    p = sub.add_parser("exp", help="fractional and integer exponent of a word")
    p.add_argument("word")
    add_format(p)
    p.set_defaults(handler=_cmd_exp)

    p = sub.add_parser("classify", help="can injective morphisms map the word to unbounded exponents?")
    p.add_argument("word")
    p.add_argument("--max-image-len", type=int, default=3)
    add_format(p)
    p.set_defaults(handler=_cmd_classify, target=None)

    p = sub.add_parser("witness", help="construct a morphism reaching a target exponent")
    p.add_argument("word")
    p.add_argument("--target", required=True)
    p.add_argument("--max-image-len", type=int, default=3)
    add_format(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("lower-bound", help="exact max exponent over bounded injective morphisms")
    p.add_argument("word")
    p.add_argument("--max-image-len", type=int, required=True)
    p.add_argument("--codomain", type=int, default=2)
    add_format(p)
    p.set_defaults(handler=_cmd_lower_bound)

    p = sub.add_parser("xdegree", help="maximal number of pairwise disjoint interpretations")
    p.add_argument("word")
    p.add_argument("--code", required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_xdegree)

    p = sub.add_parser("sync", help="probe for a synchronizing split of the word")
    p.add_argument("word")
    p.add_argument("--code", required=True)
    p.add_argument("--probe", type=int, default=None)
    add_format(p)
    p.set_defaults(handler=_cmd_sync)

    p = sub.add_parser("ace", help="per-length maximal exponents over a generator prefix")
    p.add_argument("--gen", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--prefix", type=int, required=True)
    p.add_argument("--tail", type=int, required=True)
    add_format(p, "csv")
    p.set_defaults(handler=_cmd_ace)

    p = sub.add_parser("generate", help="emit a prefix of an infinite-word construction")
    p.add_argument("--gen", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--prefix", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("family", help="example families with their verified exponents")
    p.add_argument("which", choices=("lowpower", "highpower"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=0)
    add_format(p)
    p.set_defaults(handler=_cmd_family)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; `run` also keeps its subcommand parsers."""
    return _build_parsers()[0]


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parsers()
    # A command line that names a subcommand goes straight to its parser;
    # only one that names none needs the top-level parser.
    command = commands.get(argv[0]) if argv else None
    try:
        args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
    except ParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except WordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
