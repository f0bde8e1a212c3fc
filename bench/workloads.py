"""Seeded op lists for the benchmark workloads.

An op is one `morphexp` command line plus what the checks and the reports
need to know about it.  A workload is one pass over its op list; the timed
loop repeats passes.  The seed only changes the generated inputs: the number
of ops of each kind, the size tiers and the share of classify/witness words
that reach the morphism search are fixed, so runs with different seeds do the
same amount and kind of work.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import naive

WORKLOADS = ("ace-profile", "word-queries", "generate-long")

TIERS = ("n", "2n", "4n")

# word-queries: ops of each kind in one pass.
QUERY_MIX = {
    "exp": 600,
    "classify": 320,
    "witness": 200,
    "lower-bound": 140,
    "xdegree": 240,
    "sync": 300,
    "family": 200,
}

# "full" is what the benchmark measures; "tiny" exists for the self-test
# and keeps every op under a few milliseconds.
SIZES = {
    "full": {"ace_n": 256, "gen_n": 100_000, "exp_n": 75, "mix": QUERY_MIX},
    "tiny": {"ace_n": 16, "gen_n": 200, "exp_n": 10, "mix": {kind: 3 for kind in QUERY_MIX}},
}

# Share of classify/witness words that reach enumerate_injective.
REACH_SHARE = 0.25

# (domain letters, max image length, codomain size) for lower-bound queries.
# A 3-letter word with images up to 3 letters over 3 digits has 59,319
# candidate tuples, which is too slow for a short query; every combination
# listed here stays below about 3,000.  Words have a fixed length of 6, so
# each shape costs about the same for every seed.
LOWER_BOUND_SHAPES = (
    (2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3),
    (3, 2, 2), (3, 2, 3), (3, 3, 2),
)

OPTIMAL_BINARY = "n=2;k=2;m=8"
INTERLEAVED = "n=3"


@dataclass(frozen=True)
class Op:
    """One command line of a workload."""

    kind: str
    argv: tuple[str, ...]
    tier: str | None = None
    reach: bool = False


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The op list of one pass of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[size]
    if workload == "ace-profile":
        return _ace_profile(rng, sizes["ace_n"])
    if workload == "generate-long":
        return _generate_long(rng, sizes["gen_n"])
    if workload == "word-queries":
        return _word_queries(rng, sizes["mix"], sizes["exp_n"])
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(ops: list[Op]) -> str:
    """Fingerprint of an op list; recorded output digests apply only to the
    op list they were recorded from."""
    h = hashlib.sha256()
    for op in ops:
        h.update("\0".join(op.argv).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _tiered(kind: str, n: int, make_argv) -> list[Op]:
    return [Op(kind, make_argv(n << i), tier) for i, tier in enumerate(TIERS)]


def _random_word(rng: random.Random, length: int, alphabet: str) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def _primitive_word(rng: random.Random, length: int, alphabet: str) -> str:
    while True:
        v = _random_word(rng, length, alphabet)
        if len(set(v)) > 1 and naive.is_primitive(v):
            return v


def _ace_profile(rng: random.Random, n: int) -> list[Op]:
    # Three aperiodic words and one periodic word: the profile engines'
    # costs depend on run lengths, which these two kinds of input separate.
    gens = [
        ("thue-morse", None),
        ("optimal-binary", OPTIMAL_BINARY),
        ("interleaved", INTERLEAVED),
        ("periodic", "v=" + _primitive_word(rng, 6, "abc")),
    ]
    ops: list[Op] = []
    for gen, params in gens:
        extra = ("--params", params) if params else ()
        ops += _tiered("ace", n, lambda size: (
            "ace", "--gen", gen, *extra, "--prefix", str(size), "--tail", "8", "--format", "json"))
    return ops


def prolongable_rules(rng: random.Random) -> str:
    """Morphic rules on abc prolongable on a.  Every image has length 2, so
    the generator's work per output letter does not depend on the seed."""
    images = {"a": "a" + rng.choice("bc")}
    for letter in "bc":
        images[letter] = _random_word(rng, 2, "abc")
    return ",".join(f"{k}={v}" for k, v in images.items())


def _generate_long(rng: random.Random, n: int) -> list[Op]:
    gens = [
        ("thue-morse", None),
        ("morphic", f"rules={prolongable_rules(rng)};seed=a"),
        ("interleaved", INTERLEAVED),
        ("optimal-binary", OPTIMAL_BINARY),
    ]
    ops: list[Op] = []
    for gen, params in gens:
        extra = ("--params", params) if params else ()
        ops += _tiered("generate", n, lambda size: (
            "generate", "--gen", gen, *extra, "--prefix", str(size), "--format", "json"))
    return ops


def _exp_word(rng: random.Random, length: int) -> str:
    # A fractional power of a short base with a random tail, so periods vary.
    alphabet = "abcd"[:rng.randrange(2, 5)]
    base = _random_word(rng, rng.randrange(1, 13), alphabet)
    power_len = rng.randrange(length // 2, length + 1)
    head = (base * (power_len // len(base) + 1))[:power_len]
    return head + _random_word(rng, length - power_len, alphabet)


def _classify_word(rng: random.Random, letters: int, reach: bool) -> str:
    # Rejection sampling by the naive search predicate, so each seed has the
    # same number of searching words with the same alphabet sizes.
    alphabet = "abcd"[:letters]
    while True:
        w = _random_word(rng, rng.randrange(6, 11), alphabet)
        if set(w) == set(alphabet) and naive.reaches_search(w) == reach:
            return w


def _code(rng: random.Random, alphabet: str, prefix_free: bool) -> list[str]:
    size = rng.randrange(2, 5)
    code: list[str] = []
    for _ in range(100):
        x = _random_word(rng, rng.randrange(1, 4), alphabet)
        if x in code:
            continue
        if prefix_free and any(x.startswith(y) or y.startswith(x) for y in code):
            continue
        code.append(x)
        if len(code) == size:
            break
    return code


def _word_queries(rng: random.Random, mix: dict[str, int], exp_n: int) -> list[Op]:
    ops: list[Op] = []
    fmt = ("--format", "json")

    for i in range(mix["exp"]):
        tier = TIERS[i % len(TIERS)]
        length = exp_n << TIERS.index(tier)
        ops.append(Op("exp", ("exp", _exp_word(rng, length), *fmt), tier))

    for kind in ("classify", "witness"):
        reaching = round(mix[kind] * REACH_SHARE)
        for i in range(mix[kind]):
            reach = i < reaching
            # Searching words have three letters: with four, an unknown
            # verdict enumerates 2,744 images per letter, and the few words
            # that do would set the tail latency by themselves.
            letters = 3 if reach else 2 + i % 3
            argv = [kind, _classify_word(rng, letters, reach)]
            if kind == "witness":
                q = rng.randrange(1, 4)
                argv += ["--target", f"{rng.randrange(q, 12 * q + 1)}/{q}"]
            ops.append(Op(kind, (*argv, *fmt), reach=reach))

    for i in range(mix["lower-bound"]):
        letters, max_len, codomain = LOWER_BOUND_SHAPES[i % len(LOWER_BOUND_SHAPES)]
        alphabet = "abc"[:letters]
        while True:
            w = _random_word(rng, 6, alphabet)
            if set(w) == set(alphabet):
                break
        ops.append(Op("lower-bound", ("lower-bound", w, "--max-image-len", str(max_len),
                                      "--codomain", str(codomain), *fmt)))

    for _ in range(mix["xdegree"]):
        alphabet = "abc"[:rng.randrange(2, 4)]
        code = _code(rng, alphabet, prefix_free=False)
        w = _random_word(rng, rng.randrange(8, 17), alphabet)
        ops.append(Op("xdegree", ("xdegree", w, "--code", ",".join(code), *fmt)))

    for i in range(mix["sync"]):
        alphabet = "abc"[:rng.randrange(2, 4)]
        code = _code(rng, alphabet, prefix_free=True)
        w = _random_word(rng, rng.randrange(2, 7), alphabet)
        argv = ["sync", w, "--code", ",".join(code)]
        kind = "sync"
        if i % 2:
            # Below |w| + 2 * max_len the answer comes from the literal probe.
            argv += ["--probe", str(len(w) + max(map(len, code)))]
            kind = "sync-probed"
        ops.append(Op(kind, (*argv, *fmt)))

    for i in range(mix["family"]):
        if i % 2:
            argv = ("family", "lowpower", "--n", str(rng.randrange(2, 9)), "--k", str(rng.randrange(0, 4)))
        else:
            argv = ("family", "highpower", "--n", str(rng.randrange(2, 7)))
        ops.append(Op("family", (*argv, *fmt)))

    rng.shuffle(ops)
    return ops
