import random
from itertools import combinations

import pytest

from morphexp.codes import (
    CodeSet,
    is_synchronizing,
    parse_code_set,
    x_degree,
)
from morphexp.morphisms import Morphism, is_code
from morphexp.words import WordError, fractional_exponent
from sync_oracles import (
    _killing_steps,
    _split_by_minimum,
    _split_probed,
    decode,
    parse_counts,
    x_interpretations,
)


def brute_interpretations(text, code):
    """All valid cut tuples, by filtering every subset of cut positions."""
    n = len(text)
    suffixes = {x[i:] for x in code.words for i in range(len(x) + 1)}
    prefixes = {x[:i] for x in code.words for i in range(len(x) + 1)}
    out = []
    positions = list(range(n + 1))
    for r in range(len(positions) + 1):
        for cuts in combinations(positions, r):
            bounds = (0,) + cuts + (n,)
            if any(a > b for a, b in zip(bounds, bounds[1:])):
                continue
            if len(set(cuts)) != len(cuts):
                continue
            pieces = [text[a:b] for a, b in zip(bounds, bounds[1:])]
            if len(pieces) == 1:
                if pieces[0] in suffixes and pieces[0] in prefixes:
                    out.append(cuts)
                continue
            if pieces[0] not in suffixes or pieces[-1] not in prefixes:
                continue
            if any(p not in code.words for p in pieces[1:-1]):
                continue
            out.append(cuts)
    return sorted(out)


def max_disjoint(cut_sets):
    """The most pairwise disjoint cut sets, by branching on the first one."""
    if not cut_sets:
        return 0
    first, rest = cut_sets[0], cut_sets[1:]
    return max(max_disjoint(rest), 1 + max_disjoint([c for c in rest if not c & first]))


def code_cut_from(rng, w, letters):
    """A set of w itself, w with a letter before or after it, some of its
    proper prefixes and suffixes, and at times a short word of its own, so
    that the whole-word flanks occur."""
    pieces = [w, rng.choice(letters) + w, w + rng.choice(letters)]
    pieces += [w[:c] for c in range(1, len(w))] + [w[c:] for c in range(1, len(w))]
    words = set(rng.sample(pieces, min(len(pieces), rng.randint(1, 3))))
    if rng.random() < 0.3:
        words.add("".join(rng.choice(letters) for _ in range(rng.randint(1, 3))))
    return CodeSet(sorted(words))


class TestInterpretations:
    def test_single_word_code(self):
        code = CodeSet(["ab"])
        got = [i.cuts for i in x_interpretations("ab", code)]
        assert got == [(), (0,), (0, 2), (2,)]

    def test_piece_conditions(self):
        code = CodeSet(["ab"])
        for interp in x_interpretations("ab", code):
            assert "".join(str(p) for p in interp.pieces) == "ab"

    def test_text_format(self):
        code = CodeSet(["ab"])
        printed = [i.to_text() for i in x_interpretations("ab", code)]
        assert printed == [
            "ab @ []",
            "''|ab @ [0]",
            "''|ab|'' @ [0,2]",
            "ab|'' @ [2]",
        ]

    def test_one_letter_word_inside_longer_code_word(self):
        code = CodeSet(["aa"])
        got = [i.cuts for i in x_interpretations("a", code)]
        assert got == [(), (0,), (1,)]

    def test_empty_word_rejected(self):
        with pytest.raises(WordError, match="empty"):
            x_interpretations("", CodeSet(["a"]))

    def test_brute_force_cut_subsets(self):
        rng = random.Random(40)
        for _ in range(60):
            words = set()
            for _ in range(rng.randint(1, 3)):
                words.add("".join(rng.choice("ab") for _ in range(rng.randint(1, 3))))
            code = CodeSet(sorted(words))
            text = "".join(rng.choice("ab") for _ in range(rng.randint(1, 7)))
            got = [i.cuts for i in x_interpretations(text, code)]
            assert got == brute_interpretations(text, code), (text, code.words)

    def test_order_does_not_depend_on_code_word_order(self):
        got = [i.cuts for i in x_interpretations("abab", CodeSet(["bab", "ab", "b", "a"]))]
        assert got == sorted(got)
        assert got == [i.cuts for i in x_interpretations("abab", CodeSet(["a", "ab", "b", "bab"]))]

    def test_enumeration_is_deterministic(self):
        code = CodeSet(["a", "ab", "ba"])
        first = [i.cuts for i in x_interpretations("aba", code)]
        second = [i.cuts for i in x_interpretations("aba", code)]
        assert first == second == sorted(first)


class TestDegree:
    def test_shared_cut_examples(self):
        assert x_degree("aa", CodeSet(["a"])) == 1
        assert x_degree("b", CodeSet(["a"])) == 0

    def test_brute_force_small(self):
        rng = random.Random(41)
        for _ in range(40):
            words = {"".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                     for _ in range(rng.randint(1, 3))}
            code = CodeSet(sorted(words))
            text = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            interps = [frozenset(i.cuts) for i in x_interpretations(text, code)]
            best = 0
            for r in range(len(interps), 0, -1):
                for family in combinations(range(len(interps)), r):
                    if all(not (interps[i] & interps[j]) for i, j in combinations(family, 2)):
                        best = r
                        break
                if best:
                    break
            assert x_degree(text, code) == best, (text, code.words)

    def test_flanks_against_the_oracles_on_codes_cut_from_the_word(self):
        # x_degree and is_synchronizing read one set of flanks.  The degree
        # is checked against the interpretations listed from their
        # definition.  The split is checked against the literal probe at
        # every length up to saturation, where that is at most 14 letters:
        # the probe enumerates every product up to its length.  Each kind
        # of flank must occur.
        rng = random.Random(45)
        seen = set()
        codes = 0
        for _ in range(1_000):
            letters = rng.choice(["ab", "abc"])
            w = "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
            code = code_cut_from(rng, w, letters)
            interps = [frozenset(i.cuts) for i in x_interpretations(w, code)]
            assert x_degree(w, code) == max_disjoint(interps), (w, code.words)
            suffix = any(x.endswith(w) for x in code.words)
            prefix = any(x.startswith(w) for x in code.words)
            seen |= {kind for kind, holds in (
                ("cut-free", frozenset() in interps),
                ("suffix only", suffix and not prefix),
                ("prefix only", prefix and not suffix),
                ("whole word at 0", any(w.startswith(x) for x in code.words)),
                ("whole word at |w|", any(w.endswith(x) for x in code.words)),
                ("proper flank", any(x != w[:c] and x.endswith(w[:c]) for x in code.words for c in range(1, len(w)))),
            ) if holds}
            saturation = len(w) + 2 * code.max_len - 2
            if is_code(code.words) and saturation <= 14:
                for probe in range(saturation + 1):
                    assert is_synchronizing(w, code, probe_len=probe) == _split_probed(w, code, probe), (w, code.words)
                codes += 1
        assert seen == {"cut-free", "suffix only", "prefix only", "whole word at 0", "whole word at |w|", "proper flank"}
        assert codes > 200

    def test_augmenting_path_reroutes_an_earlier_path(self):
        # The first augmenting path, through cuts 1 and 3, blocks the path
        # 2-3; only rerouting it through 4 finds the disjoint pair (1, 4),
        # (2, 3).
        assert x_degree("bbaba", CodeSet(["a", "ba", "bab", "bbb"])) == 2

    def test_dense_unary_instances(self):
        # Interpretation counts explode here; the degree must still be exact
        # and fast.  Paths from a start cut (<= 2) to an end cut (>= n - 2)
        # step by at most 2, so at most two can be vertex-disjoint.
        code = CodeSet(["a", "aa"])
        assert x_degree("a" * 14, code) == 2
        assert x_degree("a" * 61, code) == 2
        assert x_degree("a" * 3, code) == 2

    def test_power_bound_for_long_primitive_base(self):
        rng = random.Random(42)
        done = 0
        while done < 30:
            words = {"".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                     for _ in range(rng.randint(1, 3))}
            code = CodeSet(sorted(words))
            x = "".join(rng.choice("ab") for _ in range(code.max_len + rng.randint(1, 3)))
            power = x * rng.randint(1, 4)
            base, _ = fractional_exponent(power)
            if len(base) <= code.max_len:
                continue
            done += 1
            assert x_degree(power, code) <= len(code.words), (str(power), code.words)


class TestFactorizationCount:
    def test_examples(self):
        assert parse_counts("abab", ["ab"])[-1] == 1
        assert parse_counts("aaaa", ["a", "aa"])[-1] == 5
        assert parse_counts("b", ["a"])[-1] == 0

    def test_fibonacci_growth(self):
        counts = parse_counts("a" * 9, ["a", "aa"])[1:]
        assert counts == [1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_codes_have_at_most_one_factorization(self):
        for code in (CodeSet(["ab", "ba"]), CodeSet(["0", "01", "11"]), CodeSet(["aa", "ab"])):
            assert is_code(code.words)
            alphabet = sorted({ch for w in code.words for ch in w})
            layer = [""]
            for _ in range(10):
                layer = [w + ch for w in layer for ch in alphabet]
                for w in layer:
                    assert parse_counts(w, code.words)[-1] <= 1

    def test_non_code_detected(self):
        assert not is_code(CodeSet(["a", "aa"]).words)


class TestSynchronizing:
    def test_degenerate_boundary_letters(self):
        # b only ever ends a code word and c only ever starts one, so every
        # occurrence of bc forces a parse boundary between them.
        code = CodeSet(["ab", "cd"])
        assert is_synchronizing("bc", code) == 1

    def test_probed_oracle_example(self):
        code = CodeSet(["ab", "ba"])
        assert is_synchronizing("ab", code, probe_len=12) is None
        assert is_synchronizing("aa", code, probe_len=12) == 1

    def test_requires_code(self):
        with pytest.raises(WordError, match="not a code"):
            is_synchronizing("a", CodeSet(["a", "aa"]))

    def test_factor_of_synchronizing_word_synchronizes(self):
        code = CodeSet(["aa", "ab"])
        words = ["b", "ba", "aab", "bab", "abab"]
        split = is_synchronizing("b", code)
        assert split is not None
        for w in words:
            if "b" in w:
                assert is_synchronizing(w, code) is not None, w

    def test_saturated_path_equals_literal_probe(self):
        # The answer from covers must equal a literal product enumeration at
        # every probe length, up to and past the saturation bound
        # |w| + 2*max_len.
        rng = random.Random(99)
        checked = 0
        for _ in range(300):
            words = {
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            }
            code = CodeSet(sorted(words))
            if not is_code(code.words):
                continue
            text = "".join(rng.choice("ab") for _ in range(rng.randint(1, 5)))
            for probe in range(len(text) + 2 * code.max_len + 2):
                assert is_synchronizing(text, code, probe_len=probe) == _split_probed(
                    text, code, probe
                ), (text, code.words, probe)
            checked += 1
        assert checked > 100

    def test_cover_costs_equal_literal_probe_on_longer_code_words(self):
        # Words of up to four letters give entries and exits of several
        # costs; half the texts are cut from products so that covers exist.
        rng = random.Random(100)
        # Cut 3 of bbaa is reached from entry 0 (cost 0) and entry 1 (cost 2).
        cases = [("bbaa", CodeSet(["aa", "ba", "bba", "bbb"]))]
        while len(cases) < 150:
            letters = rng.choice(["ab", "abc"])
            words = {
                "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 3))
            }
            code = CodeSet(sorted(words))
            if not is_code(code.words):
                continue
            text = "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
            if rng.random() < 0.5:
                product = "".join(rng.choice(code.words) for _ in range(4))
                text = product[rng.randint(0, 2):][: rng.randint(1, 6)] or text
            cases.append((text, code))
        for text, code in cases:
            for probe in range(len(text) + 2 * code.max_len + 2):
                assert is_synchronizing(text, code, probe_len=probe) == _split_probed(
                    text, code, probe
                ), (text, code.words, probe)

    def test_default_probe_is_exact(self):
        # No cover is longer than |w| + 2 * max - 2, so the default probe,
        # that saturation length and a probe past any cover agree.
        rng = random.Random(101)
        cases = splits = 0
        while cases < 3_000:
            words = {
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 5)))
                for _ in range(rng.randint(1, 4))
            }
            code = CodeSet(sorted(words))
            if not is_code(code.words):
                continue
            text = "".join(rng.choice("ab") for _ in range(rng.randint(1, 10)))
            split = is_synchronizing(text, code)
            saturation = len(text) + 2 * code.max_len - 2
            assert is_synchronizing(text, code, probe_len=saturation) == split, (text, code.words)
            assert is_synchronizing(text, code, probe_len=10**12) == split, (text, code.words)
            cases += 1
            splits += split is not None
        assert 0 < splits < cases

    def test_one_sweep_equals_the_per_split_minimum(self):
        # The sweep over the jumps of cheap steps against the cheapest cover
        # avoiding each split, at the default probe and every probe up to 30.
        # A third of the texts are cut from inside code words, so code words
        # holding the text occur; a third are cut from products, so entries
        # and exits of several costs occur.  Each kind of step must be the
        # only one to kill some split.
        rng = random.Random(102)
        cases = 0
        sole = set()
        while cases < 20_000:
            letters = rng.choice(["ab", "abc"])
            words = {
                "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 4))
            }
            code = CodeSet(sorted(words))
            if not is_code(code.words):
                continue
            roll = rng.randrange(3)
            if roll == 0:
                x = rng.choice(code.words)
                start = rng.randrange(len(x))
                text = x[start:rng.randint(start + 1, len(x))]
            elif roll == 1:
                product = "".join(rng.choice(code.words) for _ in range(5))
                start = rng.randrange(len(product))
                text = product[start:start + rng.randint(1, 10)]
            else:
                text = "".join(rng.choice(letters) for _ in range(rng.randint(1, 8)))
            for probe in [None, *range(31)]:
                assert is_synchronizing(text, code, probe_len=probe) == _split_by_minimum(
                    text, code, probe
                ), (text, code.words, probe)
                sole |= {next(iter(kinds)) for kinds in _killing_steps(text, code, probe) if len(kinds) == 1}
                cases += 1
        assert sole == {"entry", "exit", "word", "holding"}

    def test_long_probe_does_not_enumerate_products(self):
        # The literal probe enumerates every product up to the probe length;
        # here that is exponential in the length of the c-word.
        assert is_synchronizing("ab" * 8, CodeSet(["a", "b", "c" * 8]), probe_len=31) == 0

    def test_unit_code_makes_every_position_a_boundary(self):
        assert is_synchronizing("ab" * 15, CodeSet(["a", "b"])) == 0

    def test_larger_probe_never_creates_a_split(self):
        rng = random.Random(43)
        code = CodeSet(["ab", "ba"])
        for _ in range(20):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
            short = is_synchronizing(w, code, probe_len=10)
            long = is_synchronizing(w, code, probe_len=14)
            if short is None:
                assert long is None
            elif long is not None:
                assert long >= short

    def test_decoded_middle_is_a_factor(self):
        # Two adjacent synchronizing factors w = w1 w2 and w' = w1' w2' inside
        # an image h(t): the decoded middle h^-1(w2 w1') must be a factor of t.
        h = Morphism({"a": "aa", "b": "ab"})
        code = CodeSet(list(h.images.values()))
        rng = random.Random(44)
        checked = 0
        for _ in range(200):
            t = "".join(rng.choice("ab") for _ in range(rng.randint(2, 6)))
            image = str(h.apply(t))
            for start in range(len(image)):
                for mid in range(start + 1, len(image)):
                    for end in range(mid + 1, len(image) + 1):
                        first, second = image[start:mid], image[mid:end]
                        s1 = is_synchronizing(first, code, probe_len=10)
                        if s1 is None:
                            continue
                        s2 = is_synchronizing(second, code, probe_len=10)
                        if s2 is None:
                            continue
                        middle = first[s1:] + second[:s2]
                        if not middle:
                            continue
                        decoded = decode(h, middle)
                        if decoded is None:
                            continue
                        checked += 1
                        assert str(decoded) in t, (t, first, second)
            if checked > 50:
                break
        assert checked > 0


class TestCodeSetType:
    def test_parse_formats(self):
        assert parse_code_set("ab,ba").words == ("ab", "ba")
        assert parse_code_set("X=ab,ba").words == ("ab", "ba")

    def test_parse_errors(self):
        with pytest.raises(WordError):
            parse_code_set("ab,,ba")
        with pytest.raises(WordError):
            parse_code_set("ab,ab")

    def test_validation(self):
        with pytest.raises(WordError):
            CodeSet([])
        with pytest.raises(WordError):
            CodeSet(["a", ""])
        assert CodeSet(["ab", "c"]).max_len == 2

    def test_round_trip(self):
        code = parse_code_set("ab,ba")
        assert code.to_text() == "ab,ba"
        assert repr(CodeSet(["ab", "c", "ba"])) == "CodeSet('ab,c,ba')"
