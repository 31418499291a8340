"""Typed exceptions shared across the package.

Every numerical failure mode raised by the library derives from
:class:`OvfreeError`, so callers (and the CLI) can distinguish "the input
violated a precondition" from genuine bugs.
"""


class OvfreeError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(OvfreeError):
    """Operands have incompatible shapes or a dimension fails a divisibility rule."""


class SingularMatrix(OvfreeError):
    """Matrix inversion refused: condition number beyond the trust cap."""


class RealAxisPoint(OvfreeError):
    """A scalar transform was requested on the real axis where it is undefined."""


class OutsideResolvent(OvfreeError):
    """Evaluation point is not at a positive distance from the operator's spectrum."""


class UnsupportedPoint(OvfreeError):
    """The backend has no convergent evaluation strategy at this point."""


class NoConvergence(OvfreeError):
    """An iterative solver exhausted its budget without meeting the residual."""


class DerivativeSingular(OvfreeError):
    """The Jacobian at the certification center is numerically singular."""


class LeftCertifiedBall(OvfreeError):
    """A Newton iterate was pushed against the certified ball boundary."""


class WrongPattern(OvfreeError):
    """Block diagonal does not alternate upper/lower half-plane as required."""


class PerturbationTooLarge(OvfreeError):
    """Off-diagonal part swallows the imaginary margin of the block diagonal."""


class NotDominant(OvfreeError):
    """Diagonal does not dominate: the resolvent expansion will not converge."""


class BNotDominant(OvfreeError):
    """The block-identity matrix argument has an inverse of norm >= 1."""


class MarginViolation(OvfreeError):
    """Evaluation point violates the norm/margin envelope of a sweep."""


class FreeModeUnsupportedLaw(OvfreeError):
    """The four-mode agreement check (``moments.fbcs_check``) needs a Cauchy law."""
