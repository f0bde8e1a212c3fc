import random
from itertools import combinations

import pytest

from morphexp.codes import (
    CodeSet,
    is_synchronizing,
    parse_code_set,
    x_degree,
    x_factorization_count,
    x_interpretations,
)
from morphexp.morphisms import Morphism
from morphexp.words import WordError, fractional_exponent, is_primitive
from sync_oracles import _split_probed


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

    def test_long_single_letter_parse_is_iterative(self):
        # One cut per letter: a recursive walk would exceed the recursion limit.
        got = x_interpretations("a" * 2000, CodeSet(["a"]))
        assert [(i.cuts[0], i.cuts[-1]) for i in got] == [(0, 1999), (0, 2000), (1, 1999), (1, 2000)]
        assert all(len(i.cuts) == i.cuts[-1] - i.cuts[0] + 1 for i in got)

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
            assert x_degree(power, code) <= len(code), (str(power), code.words)


class TestFactorizationCount:
    def test_examples(self):
        assert x_factorization_count("abab", CodeSet(["ab"])) == 1
        assert x_factorization_count("aaaa", CodeSet(["a", "aa"])) == 5
        assert x_factorization_count("b", CodeSet(["a"])) == 0

    def test_fibonacci_growth(self):
        code = CodeSet(["a", "aa"])
        counts = [x_factorization_count("a" * n, code) for n in range(1, 10)]
        assert counts == [1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_codes_have_at_most_one_factorization(self):
        for code in (CodeSet(["ab", "ba"]), CodeSet(["0", "01", "11"]), CodeSet(["aa", "ab"])):
            assert code.is_code()
            alphabet = sorted({ch for w in code.words for ch in w})
            layer = [""]
            for _ in range(10):
                layer = [w + ch for w in layer for ch in alphabet]
                for w in layer:
                    assert x_factorization_count(w, code) <= 1

    def test_non_code_detected(self):
        assert not CodeSet(["a", "aa"]).is_code()


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
            if not code.is_code():
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
            if not code.is_code():
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
                        decoded = h.decode(middle)
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
