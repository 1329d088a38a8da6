"""dyhat: exact classification of triangles over the dyadic rationals."""

from .dyadic import (
    DyadicRational,
    Residue,
    dyadic_mod_odd,
    egcd,
    odd_gcd,
    odd_part,
    solve_congruence,
    val2,
)
from .geometry import (
    AffineMap,
    BoundaryType,
    Matrix2,
    Point2,
    Triangle,
    boundary_type,
    boundary_types_equivalent,
    contains,
    is_valid_boundary_triple,
    midpoint,
    segment_type,
    twice_area,
    weighted_mean,
)
from .hats import (
    EncodingTriple,
    Hat,
    Normalization,
    all_encoding_triples,
    canonical_form,
    hat_of,
    kappa,
    normalize,
    pointed_canonical,
)
from .classify import (
    GROUP_ORDER,
    AutGroup,
    CensusReport,
    CensusRow,
    IsoResult,
    aut_cycle,
    aut_fix_A,
    aut_fix_B,
    aut_fix_C,
    automorphism_group,
    census,
    iso_case,
    isomorphic,
    isomorphic_hats,
)
from .oracle import (
    CASES,
    CORRESPONDENCES,
    Correspondence,
    closure_sample,
    oracle_aut_count,
    oracle_isomorphic,
    perm_label,
    solve_correspondence,
)

__version__ = "0.1.0"
