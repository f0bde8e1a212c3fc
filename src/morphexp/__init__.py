"""Exact tools for word exponents, injective morphisms, codes, and
repetition analysis of infinite-word constructions."""

from .words import (
    FractionalPower,
    ParseError,
    WordError,
    border_array,
    fine_wilf_root,
    fractional_exponent,
    fractional_power,
    fresh_letters,
    integer_exponent,
    is_conjugate,
    is_primitive,
    letter_set,
    max_exponent_factor,
    minimal_period_profile,
    parse_rational,
    prefix_comparable,
    primitive_root,
    repeat_to_length,
    smallest_period,
    suffix_comparable,
)
from .morphisms import (
    Morphism,
    binary_embedding,
    compose,
    enumerate_injective,
    parse_morphism,
    sardinas_patterson,
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
    Interpretation,
    is_synchronizing,
    parse_code_set,
    x_degree,
    x_factorization_count,
    x_interpretations,
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
    factor_complexity,
    generator_from_spec,
    thue_morse,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
