"""Exception types shared across the package, and the finiteness check
that constructors raise them from."""

import numpy as np


class TangentEqError(Exception):
    """Base class for all package errors."""


class PointNotInSet(TangentEqError):
    """A cone query was made at a point outside the set."""


class BoundViolated(TangentEqError):
    """A field value escaped its declared envelope."""


class EmptyIntersection(TangentEqError):
    """Field values and the tangent cone do not meet."""


class NoSignChange(TangentEqError):
    """Bisection endpoints carry the same sign."""


class CertificateFailed(TangentEqError):
    """A certificate does not hold: Miranda's sampled sign certificate on
    the initial cube, or the M-matrix test of the invariance audit."""


class InvalidSpec(TangentEqError):
    """An operator description violates its preconditions."""


class SingularSystem(TangentEqError):
    """The resolvent system is (numerically) singular."""


def check_finite(error=ValueError, **values):
    """Raise ``error`` naming the first of the keyword arguments that
    holds NaN or an infinity."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise error("%s must be finite" % (name,))
