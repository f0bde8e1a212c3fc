"""Reference injective-morphism search for the tests.

`sardinas_patterson` is the witness-returning code test: for a set that is
not a code it gives two distinct index sequences with equal concatenations,
so each non-code verdict carries its own proof.  `injective_product` is the
plain enumeration over it: every tuple of `product` over the candidate
images, kept when its images are distinct and form a code.
`canonical_product`, which the library's depth-first search must reproduce,
keeps from it the tuples whose images, read in order, introduce new codomain
letters in codomain order (one tuple per renaming of the codomain letters).
`lower_bound_oracle` (None when no injective morphism exists) and
`classify_oracle` run the two searches of `morphexp.mapped_exponent` over
this full enumeration.  `compose` builds the composition of two morphisms,
for the oracle that rebuilds a pumped witness from two steps.
"""

from collections import deque
from fractions import Fraction
from itertools import product
from string import digits

from morphexp.mapped_exponent import (
    FINITE,
    INFINITE,
    UNKNOWN,
    MappedExponentVerdict,
    gap_factorization,
    pump_witness,
)
from morphexp.morphisms import Morphism, words_up_to
from morphexp.words import WordError, fractional_exponent, prefix_comparable, suffix_comparable


def sardinas_patterson(images):
    """Decide unique decodability of a list of nonempty code words.

    Returns None when the images form a code.  Otherwise returns two distinct
    index sequences with equal concatenations, shortest first in BFS order.
    """
    for img in images:
        if not img:
            raise WordError("erasing morphism")
    # State: a dangling suffix d with witness sequences (ahead, behind) such
    # that images(ahead) == images(behind) + d and the sequences differ in
    # their first element.
    queue = deque()
    seen = set()
    for i, a in enumerate(images):
        for j, b in enumerate(images):
            if i == j:
                continue
            if a == b:
                return (i,), (j,)
            if b.startswith(a):
                d = b[len(a):]
                if d not in seen:
                    seen.add(d)
                    queue.append((d, (j,), (i,)))
    while queue:
        d, ahead, behind = queue.popleft()
        for k, u in enumerate(images):
            if u == d:
                return ahead, behind + (k,)
            if d.startswith(u):
                nd = d[len(u):]
                if nd not in seen:
                    seen.add(nd)
                    queue.append((nd, ahead, behind + (k,)))
            elif u.startswith(d):
                nd = u[len(d):]
                if nd not in seen:
                    seen.add(nd)
                    queue.append((nd, behind + (k,), ahead))
    return None


def compose(outer, inner):
    """(outer o inner)(a) = outer(inner(a)); defined on inner's domain."""
    for ch in inner.codomain:
        if ch not in outer.domain:
            raise WordError(f"alphabet mismatch: letter {ch!r} not in outer domain")
    return Morphism({letter: outer.apply(image) for letter, image in inner.images.items()})


def injective_product(domain, codomain, max_image_len):
    candidates = words_up_to(codomain, max_image_len)
    for images in product(candidates, repeat=len(domain)):
        if len(set(images)) == len(images) and sardinas_patterson(images) is None:
            yield images


def is_canonical(images, codomain):
    order = []
    for ch in "".join(images):
        if ch not in order:
            order.append(ch)
    return order == list(codomain[:len(order)])


def canonical_product(domain, codomain, max_image_len):
    for images in injective_product(domain, codomain, max_image_len):
        if is_canonical(images, codomain):
            yield images


def lower_bound_oracle(w, max_image_len, codomain_size=2):
    domain = "".join(sorted(set(w)))
    codomain = digits[:codomain_size]
    best, best_images = None, None
    for images in injective_product(domain, codomain, max_image_len):
        e = fractional_exponent(w.translate(str.maketrans(dict(zip(domain, images))))).exponent
        if best is None or e > best:
            best, best_images = e, images
    if best is None:
        return None
    return best, Morphism(dict(zip(domain, best_images)))


def classify_oracle(w, max_image_len=3, target=None):
    letters = sorted(set(w))
    facts = [(ch, fact) for ch in letters if (fact := gap_factorization(w, ch)) is not None]
    if not facts:
        return MappedExponentVerdict(FINITE)
    goal = Fraction(2 * len(w) if target is None else target)
    for letter, fact in facts:
        if suffix_comparable(fact.head, fact.gap) and prefix_comparable(fact.gap, fact.tail):
            identity = Morphism({ch: ch for ch in letters if ch != letter})
            return MappedExponentVerdict(INFINITE, witness=pump_witness(w, fact, identity, goal))
    codomain = "01"
    for letter, fact in facts:
        rest = "".join(ch for ch in letters if ch != letter)
        for images in injective_product(rest, codomain, max_image_len):
            h = Morphism(dict(zip(rest, images)))
            head, gap, tail = h.apply(fact.head), h.apply(fact.gap), h.apply(fact.tail)
            if suffix_comparable(head, gap) and prefix_comparable(gap, tail):
                return MappedExponentVerdict(INFINITE, witness=pump_witness(w, fact, h, goal))
    return MappedExponentVerdict(UNKNOWN, search_bound=max_image_len)
