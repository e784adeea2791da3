"""Exact computational group theory around a perfect commutator tower.

Free-group word calculus, arbitrary-precision unitriangular matrix
representations, the commutator-tower construction with its localization,
and a sound equality decision in the quotient of a free product by one
commuting relation -- plus the empirical scans that exercise all of it.
"""

from .words import (
    AlphabetError,
    RankMismatchError,
    Word,
    commutator,
    conjugate,
    coset_rep,
    cyclic_reduce,
    cyclic_subgroup_exponent,
    exponent_sum,
    generator,
    is_conjugate,
    is_cyclically_reduced,
    parse_word,
    primitive_root,
    reduce_word,
    reduced_words,
    shift_index,
    support,
    word_str,
)
from .intmat import (
    IntMatrix,
    elementary,
    evaluate_word,
    identity,
    matmul,
    unitriangular_inverse,
)
from .tower import (
    Presentation,
    central_presentation,
    doubling_map,
    heisenberg_nf,
    one_relator_presentation,
    perfectness_witness,
    seed_word,
    split_context,
    superdiagonal_assignment,
    verify_representation,
)
from .localization import (
    LPElement,
    lp_commutator,
    lp_element,
    lp_include,
    lp_invert,
    lp_multiply,
    lp_normalize,
    lp_qz_image,
)
from .freeprod import (
    FiniteQuotientOracle,
    GContext,
    KBasisSymbol,
    KWord,
    SyllableWord,
    cartesian_basis_express,
    commutation_scan,
    conj_expansion_check,
    conj_support_check,
    eq_in_G,
    expand_basis_product,
    h_map,
    k_image,
    kword_expand,
    parse_syllable_word,
    relation_check,
    rewrite_commutator,
    sp_commutator,
    sp_invert,
    sp_multiply,
    sp_reduce,
    syllable_str,
)

__version__ = "0.1.0"
