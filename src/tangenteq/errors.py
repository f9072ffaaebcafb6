"""Exception types shared across the package, and the one check of each
kind of number (finite, positive, count, seed, bound pair) that
constructors and entry points raise them from, naming the argument."""

import operator

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


def check_positive(error=ValueError, **values):
    """Raise ``error`` naming the first of the keyword arguments that is
    not above zero (NaN included) or, past that, not finite."""
    for name, value in values.items():
        if not value > 0:
            raise error("%s must be positive" % (name,))
        if not np.isfinite(value):
            raise error("%s must be finite" % (name,))


def check_count(error, minimum, **value):
    """The one keyword argument as an ``int``; raise ``error`` naming it
    unless it is an integer (integral floats pass) of at least ``minimum``."""
    [(name, count)] = value.items()
    if not (float(count).is_integer() and count >= minimum):
        raise error("%s must be an integer of at least %d, got %r"
                    % (name, minimum, count))
    return int(count)


def check_seed(**value):
    """The one keyword argument as an ``int``; raise TypeError naming it
    unless it is an integer (a float, even an integral one, is not), and
    ValueError naming it when it is negative."""
    [(name, seed)] = value.items()
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError("%s must be an integer, got %r"
                        % (name, seed)) from None
    if seed < 0:
        raise ValueError("%s must be non-negative, got %d" % (name, seed))
    return seed


def check_bounds(error, strict, **pair):
    """Raise ``error`` naming the two keyword arguments, a lower and an
    upper bound, unless they share a shape, are finite and are ordered:
    lower below upper where ``strict``, else not above it."""
    (lo_name, lo), (hi_name, hi) = pair.items()
    if np.shape(lo) != np.shape(hi):
        raise error("%s and %s must have matching shapes" % tuple(pair))
    check_finite(error, **pair)
    if not np.all(lo < hi if strict else lo <= hi):
        raise error("%s must stay %sbelow %s"
                    % (lo_name, "strictly " if strict else "", hi_name))
