"""Exact tools for word exponents, injective morphisms, codes, and
repetition analysis of infinite-word constructions."""

from .words import (
    FractionalPower,
    ParseError,
    WordError,
    border_array,
    fractional_exponent,
    fresh_letters,
    letter_set,
    minimal_period_profile,
    parse_rational,
    prefix_comparable,
    smallest_period,
    suffix_comparable,
)
from .morphisms import (
    Morphism,
    is_code,
    parse_morphism,
    spreading_morphism,
    words_up_to,
)
from .mapped_exponent import (
    FINITE,
    INFINITE,
    UNKNOWN,
    GapFactorization,
    MappedExponentVerdict,
    classify_general,
    gap_factorization,
    highpower_word,
    lowpower_morphism,
    mapped_exponent_lower_bound,
    pump_witness,
)
from .codes import (
    CodeSet,
    is_synchronizing,
    parse_code_set,
    x_degree,
)
from .infinite import (
    AceEstimate,
    ImageGenerator,
    InterleavedCopiesGenerator,
    MorphicGenerator,
    OptimalBinaryGenerator,
    PeriodicGenerator,
    StreamGenerator,
    WordGenerator,
    ace_estimate,
    cassaigne_morphism,
    generator_from_spec,
    thue_morse,
)

# The names imported above; importing them also binds the submodules here.
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, type(words))]

__version__ = "0.1.0"
