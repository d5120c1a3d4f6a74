"""Exception hierarchy for the jacobi package.

Numerical failure modes are distinguished from bad input: a singular chart
difference is geometry (NotTransverse), an ill-conditioned solve that trips
the condition gate is numerics, and both are reported explicitly instead of
being propagated as LinAlgError.
"""

import numpy as np


class JacobiError(Exception):
    """Base class for all package errors."""


class InvalidDimension(JacobiError):
    """Matrix shapes incompatible with the ambient symplectic space."""


class NotInChart(JacobiError):
    """Subspace is not transverse to the chart's point at infinity."""


class NotTransverse(JacobiError):
    """Two Lagrangian subspaces fail the transversality requirement."""


class InvalidBasis(JacobiError):
    """A frame matrix is singular or violates isotropy."""


class InvalidTransform(JacobiError):
    """Matrix does not satisfy the (conformal) symplectic condition."""


class MissingKey(JacobiError):
    """A JSON input lacks a key its kind requires."""


class AtParameter(JacobiError):
    """A failure at the float parameter `t`; `message` is the default text."""

    message = "failure at t={t!r}"

    def __init__(self, t, msg=None):
        self.t = float(t)
        super().__init__(msg or self.message.format_map(vars(self)))


class Gates:
    """The error of a computation gated sample by sample over a series:
    each gate states what passes (so NaN fails) and sees only the samples
    that passed the gates before it (the first `stop`), so the error kept
    is that of the earliest failing sample and of its first failed gate."""

    stop = None
    error = None

    def require(self, ok, error):
        """Keep error(i) for the first i before `stop` where ok[i] is false."""
        ok = np.atleast_1d(ok)[: self.stop]
        if ok.all():
            return self
        self.stop = int(np.flatnonzero(np.logical_not(ok))[0])
        self.error = error(self.stop)
        return self

    def raise_error(self):
        if self.error is not None:
            raise self.error


class RegularityFailure(AtParameter):
    """det S'(t) = 0 within the condition gate at some parameter value."""

    message = "curve velocity singular at t={t!r}"


class DomainError(JacobiError):
    """Requested parameter values outside the curve domain."""


class TooFewSamples(JacobiError):
    """Finite-difference stencils need at least five samples."""


class SingularParameter(JacobiError):
    """Change of parameter with vanishing first derivative."""


class InflectionPoint(AtParameter):
    """S'' correction singular: the derivative curve leaves the chart."""

    message = "derivative curve leaves the chart at t={t!r}"


class ComplexEigenvalues(AtParameter):
    """Curvature spectrum not real; monotonicity or numerics broke down."""


class RepeatedEigenvalues(AtParameter):
    """Curvature eigenvalue gap below tolerance."""

    message = "eigenvalue gap {gap:g} below tolerance at t={t!r}"

    def __init__(self, t, gap, msg=None):
        self.gap = gap
        super().__init__(t, msg)


class MonotonicityFailure(AtParameter):
    """Velocity form indefinite: the frame theory does not apply."""

    message = "velocity form not definite of constant sign at t={t!r}"


class NotAdmissible(AtParameter):
    """Arc element vanishes: det(R - (1/n) tr R * Id) = 0 at some t."""

    message = "curve not admissible at t={t!r}"


class NormalizationViolation(AtParameter):
    """Product of centered curvature magnitudes deviates from 1."""

    message = "normalization invariant {value!r} at t={t!r}"

    def __init__(self, t, value, msg=None):
        self.value = value
        super().__init__(t, msg)


class EigenCrossing(AtParameter):
    """Ascending eigenvalue order would swap frame columns between samples."""

    message = "eigenvalue crossing near t={t!r}"


class GridMismatch(JacobiError):
    """Invariant series defined on incompatible grids."""


class SymplecticityLoss(JacobiError):
    """Frame integration residual exceeded the cap even after refinement."""

    def __init__(self, residual, msg=None):
        self.residual = float(residual)
        super().__init__(msg or f"symplecticity residual {self.residual!r}")


class StepTooCoarse(AtParameter):
    """A Cayley step too long for the frame ODE (reconstruct.STEP_MAX)."""

    message = "integration step at t={t!r} too coarse"


class NotGeneralPosition(JacobiError):
    """A pair of the three given points is not transverse."""

    def __init__(self, i, j, msg=None):
        self.i = i
        self.j = j
        super().__init__(msg or f"points {i} and {j} are not transverse")


class ZeroDirection(JacobiError):
    """Line direction matrix is (numerically) zero."""


class NoFit(JacobiError):
    """No Moebius factor fits the sampled flat curve within tolerance."""

    def __init__(self, residual, msg=None):
        self.residual = residual
        super().__init__(msg or f"moebius fit residual {residual!r}")
