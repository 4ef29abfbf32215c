"""closurelab: exact rational cutting-plane closures, covering-polyhedron
integer hulls, and desk-scale aggregation closures."""

from .lp import ConeMembership, LpResult, LpStatus, cone_membership, solve_lp
from .polyhedron import (
    HPolyhedron,
    Inequality,
    check_implication,
    dimension,
    remove_redundant,
)
from .cone import (
    GeneratedCone,
    RaySet,
    check_theorem1,
    closure_of,
    extreme_rays,
    fii_check,
    is_pointed,
    is_valid_for_closure,
)
from .covering import (
    CoveringInstance,
    MinimalPointSet,
    down_set_contains,
    integer_hull,
    minimal_integer_points,
)
from .aggregation import (
    AggregatedHull,
    AggregationSample,
    ClosureApprox,
    aggregate,
    classify_cuts,
    closure_approx,
    sample_multipliers,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatedHull",
    "AggregationSample",
    "ClosureApprox",
    "ConeMembership",
    "CoveringInstance",
    "GeneratedCone",
    "HPolyhedron",
    "Inequality",
    "LpResult",
    "LpStatus",
    "MinimalPointSet",
    "RaySet",
    "aggregate",
    "check_implication",
    "check_theorem1",
    "classify_cuts",
    "closure_approx",
    "closure_of",
    "cone_membership",
    "dimension",
    "down_set_contains",
    "extreme_rays",
    "fii_check",
    "integer_hull",
    "is_pointed",
    "is_valid_for_closure",
    "minimal_integer_points",
    "remove_redundant",
    "sample_multipliers",
    "solve_lp",
]
