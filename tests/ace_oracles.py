"""Reference ACE report for the tests.

`ace_oracle` builds the per-length report of `morphexp ace` the direct way:
one `Fraction` per factor length and a dict of offsets, with the rows and
the csv stdout read off them, over a period profile from `profile_sweep`,
and the estimate and its witness read off the Fractions.  `report_of` reads
the same fields off the csv stdout and an `AceEstimate`, so the two can be
compared field by field.  `max_exponent_every_shift` is the estimate's
search without its shift filter.
"""

from fractions import Fraction
from typing import NamedTuple

from morphexp.words import _agreements, _letter_planes, _runs_of
from profile_oracles import profile_sweep


class AceReport(NamedTuple):
    per_length: dict
    offsets: dict
    rows: list
    csv: str
    estimate: Fraction
    witness_offset: int
    witness_length: int


def ace_oracle(text, tail):
    minper, start = profile_sweep(text)
    per_length = {}
    offsets = {}
    for length in range(tail, len(text) + 1):
        per_length[length] = Fraction(length, minper[length])
        offsets[length] = start[length]
    rows = [(length, e.numerator, e.denominator, offsets[length]) for length, e in sorted(per_length.items())]
    lines = ["factor_length,max_exponent_num,max_exponent_den,witness_offset"]
    lines.extend(",".join(map(str, row)) for row in rows)
    estimate = max(per_length.values())
    # Ties go to the shortest length, at its leftmost start.
    witness_length = min(n for n, e in per_length.items() if e == estimate)
    csv = "\n".join(lines) + "\n"
    return AceReport(per_length, offsets, rows, csv, estimate, offsets[witness_length], witness_length)


def rows_of(csv):
    """(length, exponent numerator, exponent denominator, offset) per row of
    `ace --format csv` stdout."""
    return [tuple(map(int, line.split(","))) for line in csv.splitlines()[1:]]


def report_of(csv, est):
    """The same fields read from `ace --format csv` stdout and an
    `AceEstimate`."""
    rows = rows_of(csv)
    per_length = {length: Fraction(num, den) for length, num, den, _ in rows}
    offsets = {length: offset for length, _, _, offset in rows}
    return AceReport(per_length, offsets, rows, csv, est.estimate, est.witness_offset, est.witness_length)


def max_exponent_every_shift(w, min_len):
    """`morphexp.words._max_exponent` with no shift skipped: the run test and
    the stop rule at every shift p = 1, 2, ..., on the library's masks.  It
    is fast enough for prefixes of tens of thousands of letters, where the
    report above is not, and checks which shifts the library leaves out."""
    n = len(w)
    planes = _letter_planes(w)
    best_len, best_per, best_start = min_len, min_len, 0
    for p in range(1, n):
        k = max((best_len - best_per) * p // best_per + 1, min_len - p, 1)
        if k > n - p:
            break
        runs = _runs_of(_agreements(planes, p), k)
        if not runs:
            continue
        while longer := runs & (runs >> k):
            runs, k = longer, 2 * k
        step = 1 << k.bit_length()
        while step > 1:
            step >>= 1
            if longer := runs & (runs >> step):
                runs, k = longer, k + step
        best_len, best_per, best_start = p + k, p, (runs & -runs).bit_length() - 1
    return best_len, best_per, best_start
