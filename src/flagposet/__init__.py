"""Flag ideals of finite graded posets.

Exact classification of unmixedness, Cohen-Macaulayness, linear
resolutions, and bi-Cohen-Macaulayness, both through structural chain
conditions with certificates and through independent homological
oracles (Hochster-formula Betti numbers over exact fields), together
with a layer-product fast path for multigraded Betti polynomials.
"""

from .characterize import (
    ChainDecomposition,
    Filtration,
    Verdict,
    check_cm_structural,
    check_unmixed_structural,
    check_weak_conditions,
    classification_report,
    dual_variable_order,
    filtration_to_monomial,
    filtrations,
    has_2k2,
    has_linear_resolution_structural,
    herzog_hibi_bipartite_cm,
    is_bi_cm,
    is_ferrers,
)
from .covers import (
    covering_number,
    height,
    is_unmixed_bruteforce,
    is_vertex_cover,
    krull_dim,
    maximal_independent_sets,
    minimal_transversals,
    minimal_vertex_covers,
)
from .errors import (
    BudgetExceeded,
    CycleDetected,
    EmptySelection,
    FlagPosetError,
    InvalidCertificate,
    InvalidParameter,
    NotAVPoset,
    NotEquigenerated,
    NotGraded,
    ParseError,
    RedundantCover,
    UnknownElement,
    UnknownVariable,
    VariableClash,
)
from .fields import GF, GF2, QQ, FieldSpec, LaurentPoly, parse_field
from .generate import RandomPosetSpec, random_graded_poset
from .homology import (
    BettiTable,
    betti_multidegree,
    betti_polynomial_bruteforce,
    betti_polynomial_fast,
    component_betti_assembly,
    first_strand_multidegrees,
    full_betti_table,
    graded_betti_table,
    has_linear_resolution_oracle,
    is_cm_oracle,
    lcm_lattice,
    oracle_verdicts,
    restriction_cohomology_poly,
)
from .ideals import (
    SquarefreeIdeal,
    alexander_dual,
    flag_ideal,
    has_linear_quotients,
    is_weakly_polymatroidal,
    letterplace_generators,
    v_coletterplace_generators,
)
from .posets import (
    BipartiteLayer,
    GradedPoset,
    Poset,
    antichain,
    are_isomorphic,
    bipartite_poset,
    chain,
    connected_components,
    example_3_4,
    example_3_6,
    example_4_9,
    hom_rt_poset,
    layer_pair,
    letterplace_poset,
    maximal_chains,
    parse_poset_text,
    pentagon,
    poset_to_text,
    rank_selection,
    v_coletterplace_poset,
    v_poset,
)

__version__ = "0.1.0"
