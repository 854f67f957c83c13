"""Formal local analysis of differential operators over K((x)).

Exact computation of Newton polygon slopes, exponential decompositions
over number-field towers, and the refined Dirac divisor of a module at
a slope r > 1.
"""

from .diffop import (ConnectionMatrix, DiffOperator, NewtonPolygon,
                     companion, direct_sum, exp_module, newton_polygon,
                     push_forward, ramify, regular_module, restrict_scalars,
                     slopes, twist)
from .dilatation import (DilatedChart, coordinate_scale, dilated_chart,
                         transport_coefficient)
from .errors import LTDiracError
from .exactalg import AlgElem, FieldHandle, UniPoly, minimal_poly, poly_factor
from .invariant import (DiracDivisor, as_invariant, as_invariant_nk,
                        base_change, bracket_values, omega_at, omega_below)
from .parsing import parse_operator
from .puiseux import ExpForm, c_r, deg_x
from .series import LaurentSeries
from .turrittin import LTComponent, LTDecomposition, irregularity, lt_decompose

__version__ = "0.1.0"

__all__ = [
    "AlgElem", "ConnectionMatrix", "DiffOperator",
    "DilatedChart", "DiracDivisor", "ExpForm", "FieldHandle",
    "LTComponent", "LTDecomposition", "LTDiracError", "LaurentSeries",
    "NewtonPolygon", "UniPoly", "as_invariant", "as_invariant_nk",
    "base_change", "bracket_values", "c_r", "companion",
    "coordinate_scale", "deg_x", "dilated_chart", "direct_sum",
    "exp_module", "irregularity", "lt_decompose", "minimal_poly",
    "newton_polygon", "omega_at", "omega_below", "parse_operator",
    "poly_factor", "push_forward", "ramify", "regular_module",
    "restrict_scalars", "slopes", "transport_coefficient", "twist",
]
