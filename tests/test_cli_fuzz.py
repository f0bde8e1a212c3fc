"""Seeded fuzz of `cli.run` over every subcommand.

Each draw builds one command line from well-formed and malformed literals,
integer parameters up to 10^18 and every output format, and checks that no
exception escapes `run` and that the exit code is 0 (success), 1 (analysis
error) or 2 (usage error).  Sizes are drawn so that work that is allowed
stays small, while the huge values exercise the checks that refuse a build
or a search before it starts.  A second fuzz draws searches over five to
eight letters with images of up to four letters, the shapes that ran for
minutes before searches had a step limit, with words that two letters factor
and gaps of hundreds of letters.
"""

import random

import pytest

from morphexp import morphisms
from morphexp.cli import run

HUGE = (10**7 + 1, 10**9, 2**63, 10**18, 10**18 - 1)


def _word(rng):
    roll = rng.random()
    if roll < 0.75:
        return "".join(rng.choice("abcd"[:rng.randint(1, 4)]) for _ in range(rng.randint(1, 12)))
    return rng.choice(("", "ab,c", "a=b", "a b", "abé", "a\tb", "-", "--", "ab;c", "0110"))


def _int(rng, small=(0, 4)):
    roll = rng.random()
    if roll < 0.6:
        return str(rng.randint(*small))
    if roll < 0.8:
        return str(rng.choice(HUGE + (rng.randint(10**6, 10**18),)))
    if roll < 0.9:
        return str(rng.choice((-1, -(10**18), rng.randint(-50, -1))))
    return rng.choice(("x", "1.5", "", "1e3", "0x10", " 3"))


def _code(rng):
    roll = rng.random()
    if roll < 0.75:
        words = {"".join(rng.choice("ab") for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 4))}
        return ",".join(sorted(words))
    return rng.choice(("", ",", "a,,b", "a,a", "a,b=c", "a, b", "é", "a;b"))


def _rational(rng):
    roll = rng.random()
    if roll < 0.6:
        return f"{rng.randint(1, 12)}/{rng.randint(1, 5)}"
    if roll < 0.8:
        return str(rng.choice(HUGE))
    return rng.choice(("0", "-3", "1/0", "abc", "", "3/", "1.5", "10**18"))


def _rules(rng):
    roll = rng.random()
    if roll < 0.7:
        letters = "abc"[:rng.randint(1, 3)]
        return ",".join(f"{ch}={''.join(rng.choice(letters) for _ in range(rng.randint(0, 3)))}" for ch in letters)
    return rng.choice(("", "a", "a=ab,a=b", "ab=c", "a=ab,b", "=a", "0=01,1=10"))


def _generator(rng):
    """--gen and --params for one of the generators, or a bad one."""
    roll = rng.randrange(7)
    if roll == 0:
        return ["--gen", "periodic", "--params", f"v={_word(rng)}"]
    if roll == 1:
        return ["--gen", "thue-morse"]
    if roll == 2:
        return ["--gen", "morphic", "--params", f"rules={_rules(rng)};seed={rng.choice(('a', 'ab', 'b', '', 'z'))}"]
    base = rng.choice(("", ";base=thue-morse", ";base=periodic:01", ";base=periodic:abc",
                       ";base=morphic:0=01,1=10:0", ";base=morphic:x", ";base=nope"))
    if roll == 3:
        return ["--gen", "interleaved", "--params", f"n={_int(rng, (1, 4))}{base}"]
    if roll == 4:
        k = _int(rng, (1, 4))
        m = rng.choice((_int(rng, (5, 14)), str(rng.randint(2 * 10**6, 10**18))))
        return ["--gen", "optimal-binary", "--params", f"n={_int(rng, (1, 3))};k={k};m={m}{base}"]
    if roll == 5:
        return ["--gen", rng.choice(("mystery", "", "periodic")), "--params", rng.choice(("", "v", "=", "v=ab;;"))]
    return ["--gen", "periodic"]


def _argv(rng):
    command = rng.choice(("exp", "classify", "witness", "lower-bound", "xdegree", "sync", "ace", "generate", "family"))
    if command == "exp":
        argv = [command, _word(rng)]
    elif command == "classify":
        argv = [command, _word(rng), "--max-image-len", _int(rng, (0, 3))]
    elif command == "witness":
        argv = [command, _word(rng), "--target", _rational(rng), "--max-image-len", _int(rng, (0, 3))]
    elif command == "lower-bound":
        argv = [command, _word(rng)[:6], "--max-image-len", _int(rng, (0, 3)), "--codomain", _int(rng, (0, 2))]
    elif command in ("xdegree", "sync"):
        argv = [command, _word(rng), "--code", _code(rng)]
        if command == "sync" and rng.random() < 0.5:
            argv += ["--probe", _int(rng, (0, 40))]
    elif command == "ace":
        argv = [command, *_generator(rng), "--prefix", _int(rng, (0, 300)), "--tail", _int(rng, (0, 40))]
    elif command == "generate":
        argv = [command, *_generator(rng), "--prefix", _int(rng, (0, 300))]
    else:
        argv = [command, rng.choice(("lowpower", "highpower", "other")), "--n", _int(rng, (0, 8))]
        if rng.random() < 0.5:
            argv += ["--k", _int(rng, (0, 5))]
    if rng.random() < 0.1:
        # A missing value, an unknown flag, a dropped argument or help.
        argv = rng.choice((argv[:-1], argv + ["--bogus"], argv[:1], argv + ["-h"]))
    return argv + ["--format", rng.choice(("text", "json", "csv"))]


@pytest.mark.parametrize("seed", range(4))
def test_every_command_line_exits_0_1_or_2(seed, capsys):
    rng = random.Random(seed)
    codes = set()
    for _ in range(750):
        argv = _argv(rng)
        code = run(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        codes.add(code)
    assert codes == {0, 1, 2}


def _wide_search_argv(rng):
    letters = "abcdefgh"[:rng.randint(5, 8)]
    command = rng.choice(("classify", "witness", "lower-bound"))
    if command == "lower-bound":
        word = "".join(rng.choice(letters) for _ in range(rng.randint(len(letters), 20)))
    else:
        # head h gap h tail: the letter h factors the word, so the search
        # runs unless the identity already certifies it.  Some gaps run to
        # hundreds of letters, and in half the words a second letter, placed
        # once, factors the word too.
        second = rng.random() < 0.5
        rest = letters[:-2] if second else letters[:-1]
        gap_len = rng.choice((rng.randint(1, 6), rng.randint(100, 400)))
        head, tail = ("".join(rng.choice(rest) for _ in range(rng.randint(1, 6))) for _ in range(2))
        gap = "".join(rng.choice(rest) for _ in range(gap_len))
        word = head + letters[-1] + gap + letters[-1] + tail
        if second:
            at = rng.randint(0, len(word))
            word = word[:at] + letters[-2] + word[at:]
    argv = [command, word, "--max-image-len", str(rng.randint(3, 4))]
    if command == "witness":
        argv += ["--target", str(rng.randint(2, 12))]
    if command == "lower-bound":
        argv += ["--codomain", str(rng.randint(2, 3))]
    return argv + ["--format", rng.choice(("text", "json"))]


@pytest.mark.parametrize("seed", range(2))
def test_wide_searches_end_or_exit_1(seed, capsys, monkeypatch):
    # A lower step limit keeps the draws quick; the searches stop at it the
    # way they stop at the real one.
    monkeypatch.setattr(morphisms, "MAX_SEARCH_STEPS", 300_000)
    rng = random.Random(f"wide:{seed}")
    codes = set()
    for _ in range(30):
        argv = _wide_search_argv(rng)
        code = run(argv)
        err = capsys.readouterr().err
        assert code in (0, 1), argv
        if code == 1:
            assert "error: " in err, argv
        codes.add(code)
    assert codes == {0, 1}
