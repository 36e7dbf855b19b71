"""Exception types shared across the package."""


class QtoricError(Exception):
    """Base class for all package errors."""


class Indeterminate(QtoricError):
    """A decision could not be certified at the witness: a value that is not
    symbolically zero, or a denominator, vanishes there."""


class Singular(QtoricError):
    """Matrix inversion was requested for a symbolically singular matrix."""


class UnsupportedEntries(QtoricError):
    """A scalar cannot be used where it stands: Scalar.as_fraction of a
    value that is not rational (an integer matrix, a weight), or a witness
    asked for a parameter it gives no value."""


class UnsupportedField(QtoricError):
    """A scalar lies outside the field supported by this operation
    (e.g. a cubic irrational in the 2d torus equivalence decider)."""


class NotGammaComplete(QtoricError):
    """The trivial calibration requires a gamma-complete fan."""


class DomainMismatch(QtoricError):
    """Morphism composition with incompatible domain/codomain."""


class EmptyIntersection(QtoricError):
    """Gluing data requested for two maximal cones with empty intersection."""


class NotBalanced(QtoricError):
    """An affine Gale transform or reverse transform needs a balanced input."""


class NoIndispensable(QtoricError):
    """Reconstruction from an LVMB datum needs the last point indispensable."""


class NotEven(QtoricError):
    """LVMB construction needs n - d even."""


class NotComplete(QtoricError):
    """LVMB construction needs a complete fan."""


class NotRational(QtoricError):
    """The operation is defined for rational inputs only."""


class NotUnimodular(QtoricError):
    """The acting matrix must lie in GL_n(Z)."""


class SingularBlock(QtoricError):
    """The torus action is undefined: H1 + hbar*H3 is singular."""


class OutOfDomain(QtoricError):
    """Input lies outside the domain of the moduli chart (e.g. a >= 0)."""


class OutOfZone(QtoricError):
    """Hopf parameters outside the admissible zone."""


class RankDeficient(QtoricError):
    """The leading (m+1)-minor rank condition fails; permute the
    configuration so that the first m+1 points are affinely independent."""


class SearchBoundExceeded(QtoricError):
    """A bounded search hit its bound before it could decide: the
    calibrated-morphism search past 8 virtual generators, or the LVM
    weak-hyperbolicity subset cap."""


class InputError(QtoricError):
    """Malformed input file or argument."""


class InternalError(QtoricError):
    """An internal consistency check failed: a defect in qtoric, not in
    the input."""
