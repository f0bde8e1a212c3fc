"""Reference period-profile engines for the tests.

Both compute what `morphexp.words.minimal_period_profile` computes, by plain
O(n^2) loops, so the bit-parallel engine can be checked against independent
implementations: `profile_border` runs an incremental failure array from
every start, `profile_sweep` scans equality runs per period, and
`profile_naive` takes the minimum over all factors directly.

`repeat_to_length`, `fractional_power` and `is_primitive` build and check the
periodic words the tests feed to the library; `brute_integer_power` is the
integer exponent and root that `exp` prints.
"""

from fractions import Fraction


def repeat_to_length(base, length):
    """Prefix of base^omega of the given length."""
    return (base * -(-length // len(base)))[:length]


def fractional_power(base, exponent):
    """The word base^exponent; exponent * |base| must be an integer."""
    total = Fraction(exponent) * len(base)
    if total.denominator != 1 or total < 0:
        raise ValueError(f"{exponent} * |{base}| is not a valid word length")
    return repeat_to_length(base, int(total))


def is_primitive(w):
    """True iff w is not a proper integer power; equivalently w occurs in ww
    only at positions 0 and |w|."""
    return (w + w).find(w, 1) == len(w)


def brute_integer_power(w):
    """IE(w) and its root: the largest k with w == w[:|w| // k] * k."""
    k = max(k for k in range(1, len(w) + 1) if w == w[:len(w) // k] * k)
    return k, w[:len(w) // k]


def profile_border(text):
    n = len(text)
    big = n + 1
    minper = [big] * (n + 1)
    start = [0] * (n + 1)
    minper[0] = 0
    minper[1] = 1
    for i in range(n):
        m = n - i
        border = [0] * (m + 1)
        k = 0
        for j in range(1, m):
            c = text[i + j]
            while k and text[i + k] != c:
                k = border[k]
            if text[i + k] == c:
                k += 1
            border[j + 1] = k
            length = j + 1
            p = length - k
            if p < minper[length]:
                minper[length] = p
                start[length] = i
    return minper, start


def profile_sweep(text):
    n = len(text)
    minper = list(range(n + 1))  # a length-L factor trivially has period L
    start = [0] * (n + 1)
    for p in range(1, n):
        run = 0
        run_start = 0
        for i in range(n - p):
            if text[i] == text[i + p]:
                if run == 0:
                    run_start = i
                run += 1
            elif run:
                _sweep_update(minper, start, p, run, run_start)
                run = 0
        if run:
            _sweep_update(minper, start, p, run, run_start)
    return minper, start


def _sweep_update(minper, start, p, run, run_start):
    # A maximal run of run agreements at shift p yields factors of every
    # length L in p+1 .. p+run with period p, all starting at run_start.
    for length in range(p + 1, p + run + 1):
        if p < minper[length]:
            minper[length] = p
            start[length] = run_start
        elif p == minper[length] and run_start < start[length]:
            start[length] = run_start


def brute_smallest_period(text):
    for p in range(1, len(text) + 1):
        if all(text[i] == text[i + p] for i in range(len(text) - p)):
            return p
    raise AssertionError


def profile_naive(text):
    """Minimum over every factor of each length, leftmost first."""
    n = len(text)
    minper = [0] * (n + 1)
    start = [0] * (n + 1)
    for length in range(1, n + 1):
        periods = [brute_smallest_period(text[i:i + length]) for i in range(n - length + 1)]
        minper[length] = min(periods)
        start[length] = periods.index(minper[length])
    return minper, start
