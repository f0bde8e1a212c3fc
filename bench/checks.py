"""Independent checks of one op's JSON output.

`check(op, stdout, generate)` returns None when the output is right and a
short reason otherwise.  The checks recompute what they can with the naive
reference code: periods and exponents, witness and argmax morphisms applied
again, and generator prefixes expanded from their rules.  `generate(argv)`
runs the CLI and is used only for the optimal-binary prefix, which has no
independent construction here.
"""

from __future__ import annotations

import json
from fractions import Fraction

import naive
from workloads import Op


def _args(argv: tuple[str, ...]) -> dict[str, str]:
    """--flag value pairs of a command line."""
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def _params(literal: str | None) -> dict[str, str]:
    return dict(chunk.split("=", 1) for chunk in literal.split(";")) if literal else {}


def _exp(op: Op, record: dict) -> str | None:
    w = op.argv[1]
    p = naive.smallest_period(w)
    whole = len(w) % p == 0
    expected = {
        "word": w,
        "exponent": str(Fraction(len(w), p)),
        "base": w[:p],
        "integer_exponent": len(w) // p if whole else 1,
        "root": w[:p] if whole else w,
    }
    return None if record == expected else f"exp record {record} != {expected}"


def _morphism_exponent(text: str, w: str) -> tuple[dict[str, str], Fraction]:
    images = naive.parse_morphism(text)
    return images, naive.exponent(naive.apply(images, w))


def _verdict(op: Op, record: dict) -> str | None:
    w = op.argv[1]
    facts = naive.gap_factorizations(w)
    tag = record["tag"]
    if tag == "finite":
        return "finite verdict but a gap factorization exists" if facts else None
    if tag == "unknown":
        if not naive.reaches_search(w):
            return "unknown verdict for a word the identity morphism decides"
        return None
    if tag != "infinite":
        return f"unexpected tag {tag!r}"
    if not facts:
        return "infinite verdict without a gap factorization"
    images, achieved = _morphism_exponent(record["witness_morphism"], w)
    if set(images) != set(w) or not all(images.values()):
        return "witness morphism does not cover the word's letters"
    if len(set(images.values())) != len(images):
        return "witness morphism maps two letters to one image"
    if str(achieved) != record["achieved_exponent"]:
        return f"witness reaches {achieved}, record says {record['achieved_exponent']}"
    target = Fraction(_args(op.argv)["target"]) if op.kind == "witness" else Fraction(2 * len(w))
    return None if achieved >= target else f"witness reaches {achieved} < target {target}"


def _lower_bound(op: Op, record: dict) -> str | None:
    w = op.argv[1]
    args = _args(op.argv)
    max_len, codomain = int(args["max-image-len"]), int(args["codomain"])
    images, best = _morphism_exponent(record["argmax_morphism"], w)
    if set(images) != set(w) or len(set(images.values())) != len(images):
        return "argmax morphism is not one image per letter"
    digits = "0123456789"[:codomain]
    if any(not 1 <= len(v) <= max_len or set(v) - set(digits) for v in images.values()):
        return "argmax morphism outside the search bounds"
    if str(best) != record["best_exponent"]:
        return f"argmax reaches {best}, record says {record['best_exponent']}"
    return None


def _family(op: Op, record: dict) -> str | None:
    _, e = _morphism_exponent(record["morphism"], record["word"])
    if not record["verified"] or str(e) != record["expected_exponent"]:
        return f"family exponent {e} != expected {record['expected_exponent']}"
    return None


def _sync(op: Op, record: dict) -> str | None:
    w = op.argv[1]
    split = record["split"]
    if split is not None and not 0 <= split <= len(w):
        return f"split {split} outside the word"
    return None


def _xdegree(op: Op, record: dict) -> str | None:
    degree = record["degree"]
    return None if isinstance(degree, int) and 0 <= degree <= len(op.argv[1]) + 1 else f"degree {degree}"


def _prefix(op: Op, n: int, generate) -> str:
    args = _args(op.argv)
    gen, params = args["gen"], _params(args.get("params"))
    if gen == "thue-morse":
        return naive.thue_morse(n)
    if gen == "periodic":
        v = params["v"]
        return (v * (n // len(v) + 1))[:n]
    if gen == "morphic":
        return naive.fixed_point(naive.parse_morphism(params["rules"]), params["seed"], n)
    if gen == "interleaved":
        return naive.interleaved(int(params["n"]), n)
    argv = ["generate", "--gen", gen, "--params", args["params"], "--prefix", str(n), "--format", "json"]
    return json.loads(generate(argv))["word"]


def _ace(op: Op, record: dict, generate) -> str | None:
    n, tail = int(_args(op.argv)["prefix"]), int(_args(op.argv)["tail"])
    offset, length = record["witness_offset"], record["witness_length"]
    if not (tail <= length and 0 <= offset and offset + length <= n):
        return f"witness factor [{offset}, {offset + length}) outside the prefix or below the tail"
    factor = _prefix(op, n, generate)[offset:offset + length]
    e = naive.exponent(factor)
    return None if str(e) == record["estimate"] else f"witness factor has exponent {e}, estimate {record['estimate']}"


def _generate(op: Op, record: dict, generate) -> str | None:
    n = int(_args(op.argv)["prefix"])
    word = record["word"]
    if len(word) != n:
        return f"prefix has {len(word)} letters, asked for {n}"
    if _args(op.argv)["gen"] == "optimal-binary":
        return None if set(word) <= set("ab") else "optimal-binary prefix outside {a, b}"
    return None if word == _prefix(op, n, generate) else "prefix differs from the independent expansion"


_RECORD_CHECKS = {
    "exp": _exp,
    "classify": _verdict,
    "witness": _verdict,
    "lower-bound": _lower_bound,
    "family": _family,
    "sync": _sync,
    "sync-probed": _sync,
    "xdegree": _xdegree,
}


def check(op: Op, stdout: str, generate) -> str | None:
    try:
        record = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON record"
    if op.kind == "ace":
        return _ace(op, record, generate)
    if op.kind == "generate":
        return _generate(op, record, generate)
    return _RECORD_CHECKS[op.kind](op, record)
