"""Exact computations with hypersurfaces parametrized by integer exponent
matrices: implicitization of the image, degree formulas via staircase
multiplicities at base points, and transfer of defining polynomials along
monomial coordinate changes between nested exponent lattices.
"""

from .intmat import (
    IntMatrix,
    SNFDecomposition,
    gcd_maximal_minors,
    smith_normal_form,
)
from .mpoly import (
    MPoly,
    substitute_monomial,
    sylvester_resultant,
)
from .parametrization import (
    ParamSpec,
    Verdict,
    build,
    defect_test,
    evaluate_psi,
    merge_proportional_rows,
    primitive_direction,
    sample_off_arrangement,
)
from .basepoints import BasePoint, LocalIdeal, base_points, is_uniform, localize
from .degree import (
    DegreeReport,
    Staircase2,
    colength,
    degree_uniform,
    minimal_generators,
    sparse_origin_multiplicity,
    staircase_multiplicity,
)
from .discriminant import (
    gauss_inverse_check,
    group_product,
    homogenize,
    implicitize,
    transfer,
)

__version__ = "0.1.0"

__all__ = [
    "IntMatrix",
    "SNFDecomposition",
    "gcd_maximal_minors",
    "smith_normal_form",
    "MPoly",
    "substitute_monomial",
    "sylvester_resultant",
    "ParamSpec",
    "Verdict",
    "build",
    "defect_test",
    "evaluate_psi",
    "merge_proportional_rows",
    "primitive_direction",
    "sample_off_arrangement",
    "BasePoint",
    "LocalIdeal",
    "base_points",
    "is_uniform",
    "localize",
    "DegreeReport",
    "Staircase2",
    "colength",
    "degree_uniform",
    "minimal_generators",
    "sparse_origin_multiplicity",
    "staircase_multiplicity",
    "gauss_inverse_check",
    "group_product",
    "homogenize",
    "implicitize",
    "transfer",
]
