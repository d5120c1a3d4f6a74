"""Curvature invariants of curves of Lagrangian subspaces.

Pipeline: represent a curve in chart coordinates as a symmetric-matrix map
S(t), compute its matrix Schwarzian and spectrum, pass to the conformally
invariant arc parameter, extract the reduced Cartan invariant (Sigma, K),
and classify / reconstruct curves from it.
"""

__version__ = "0.1.0"

from .curvature import (
    derivative_curve,
    matrix_schwarzian,
    ricci,
    scalar_schwarzian,
    schwarzian_change_of_parameter,
    verify_derivative_curve,
)
from .cycles import (
    AT_INFINITY,
    Cycle,
    cycle_contains,
    cycle_through,
    is_flat,
    line_classify,
    mobius_fit,
)
from .errors import JacobiError
from .frames import (
    ReducedCartan,
    cartan_matrix,
    equivalent_reduced,
    frenet_frame,
    reduced_invariants,
)
from .geom import (
    ArcData,
    absolute_curvature,
    admissibility_report,
    zeta_series,
)
from .matcurve import (
    CurveJet,
    SampleGrid,
    SymmetricMatrixCurve,
    curve_from_json,
    finite_diff,
    fourier_curve,
    polynomial_curve,
    preset_curve,
    sample_curve,
    table_curve,
    transformed_curve,
)
from .pipeline import Analysis, analyze
from .reconstruct import (
    InvariantPrescription,
    curve_from_frame,
    integrate_frame,
    roundtrip,
)
from .symspace import (
    apply_symplectic,
    chart_translate_invert,
    frame_from_chart_pair,
    is_symplectic_frame,
    random_csp,
    symplectic_form,
)
