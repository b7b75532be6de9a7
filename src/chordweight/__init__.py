"""Exact-arithmetic weight systems on framed chord diagrams."""

from .diagrams import (
    ChordDiagram,
    coproduct,
    enumerate_diagrams,
    product,
    restrict,
    smooth_components,
)
from .diagram_space import (
    RelationSet,
    four_term_relations,
    four_term_vector,
    in_relation_span,
    one_term_relations,
    quotient_dimension,
)
from .formal import FormalSum
from .tensors import (
    WeightTensor,
    check_four_term,
    evaluate,
    evaluate_naive,
    evaluate_sum,
    validate_symmetry,
)
from .lie import (
    MetrizedLieAlgebra,
    Representation,
    abelian,
    check_exchange_identity,
    sl2_standard,
    so_standard,
)
from .curvature import (
    CurvatureModel,
    HolonomyAlgebra,
    SymmetricTriple,
    check_parallel_four_term,
    constant_curvature,
    curvature_symmetries,
    holonomy_algebra,
    so_isomorphism,
    symmetric_triple,
    triple_from_rep,
    verify_lie_type,
)
from .work import WorkLimitExceeded
from .yamada import yamada_weight

__version__ = "0.1.0"

__all__ = [
    "ChordDiagram",
    "CurvatureModel",
    "FormalSum",
    "HolonomyAlgebra",
    "MetrizedLieAlgebra",
    "RelationSet",
    "Representation",
    "SymmetricTriple",
    "WeightTensor",
    "WorkLimitExceeded",
    "abelian",
    "check_exchange_identity",
    "check_four_term",
    "check_parallel_four_term",
    "constant_curvature",
    "coproduct",
    "curvature_symmetries",
    "enumerate_diagrams",
    "evaluate",
    "evaluate_naive",
    "evaluate_sum",
    "four_term_relations",
    "four_term_vector",
    "holonomy_algebra",
    "in_relation_span",
    "one_term_relations",
    "product",
    "quotient_dimension",
    "restrict",
    "sl2_standard",
    "smooth_components",
    "so_isomorphism",
    "so_standard",
    "symmetric_triple",
    "triple_from_rep",
    "validate_symmetry",
    "verify_lie_type",
    "yamada_weight",
]
