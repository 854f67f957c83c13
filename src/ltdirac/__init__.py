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
from .exactalg import (AlgElem, FieldHandle, UniPoly, minimal_poly,
                       poly_factor, primitive_element)
from .invariant import (ClosedPoint, DiracDivisor, RIndex, as_invariant,
                        as_invariant_nk, base_change, bracket_values,
                        descend, omega_at, omega_below)
from .parsing import parse_operator, render_operator
from .puiseux import ExpForm, c_r, deg_x, parse_form, subst_zeta, t_r
from .series import LaurentSeries
from .turrittin import (LTComponent, LTDecomposition, PrecisionPolicy,
                        irregularity, lt_decompose)

__version__ = "0.1.0"

__all__ = [
    "AlgElem", "ClosedPoint", "ConnectionMatrix", "DiffOperator",
    "DilatedChart", "DiracDivisor", "ExpForm", "FieldHandle",
    "LTComponent", "LTDecomposition", "LTDiracError", "LaurentSeries",
    "NewtonPolygon", "PrecisionPolicy", "RIndex", "UniPoly",
    "as_invariant", "as_invariant_nk", "base_change", "bracket_values",
    "c_r", "companion", "coordinate_scale", "deg_x", "descend",
    "dilated_chart", "direct_sum", "exp_module", "irregularity",
    "lt_decompose", "minimal_poly", "newton_polygon", "omega_at",
    "omega_below", "parse_form", "parse_operator", "poly_factor",
    "primitive_element", "push_forward", "ramify", "regular_module",
    "render_operator", "restrict_scalars", "slopes", "subst_zeta", "t_r",
    "transport_coefficient", "twist",
]
