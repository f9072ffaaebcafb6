"""Steady states of constrained evolution problems on 1-D grids.

The package solves discrete inclusions 0 in A u + F(x, u, u') whose
nodal values must stay inside a convex set: resolvents of banded
diffusion-drift operators, tangent cones and minimal-norm selections of
set-valued nonlinearities, damped fixed-point sweeps with residual
certificates, invariance audits, and sign-change zero certificates for
the finite-dimensional reductions.
"""

from .errors import (TangentEqError, PointNotInSet, BoundViolated,
                     EmptyIntersection, NoSignChange, CertificateFailed,
                     InvalidSpec, SingularSystem)
from .convex import (CONE_TOL, ConeQueryResult, ConvexBody, Box, Ball,
                     Simplex, MovingBox, numeric_tangent_quotient,
                     selection_on_intervals)
from .fields import (SetValue, NonlinearityField, SingleValued,
                     IntervalValued, FilippovHull, tangent_selection,
                     semicontinuity_probe)
from .miranda import (Cube, FaceVerdict, MirandaCertificate, ZeroResult,
                      bolzano_bisect, miranda_check, miranda_solve,
                      brute_force_zero)
from .operators import (Grid1D, OperatorSpec, DiscreteOperator, assemble,
                        semigroup_powers, InvarianceReport, invariance_audit)
from .equilibrium import (SolverConfig, SolveReport, TrajectoryReport,
                          resolvent_iterate, truncation_iterate,
                          viability_simulate, residual)
from .problems import (NONLINEARITY_NAMES, make_nonlinearity,
                       StateShiftedField, as_field, ConditionItem,
                       ConditionReport, verify_tangency, verify_bernstein,
                       verify_subsuper)
from .config import ProblemSpec, parse_config, load_config, serialize

__version__ = "0.1.0"

__all__ = [
    "TangentEqError", "PointNotInSet", "BoundViolated", "EmptyIntersection",
    "NoSignChange", "CertificateFailed", "InvalidSpec", "SingularSystem",
    "CONE_TOL", "ConeQueryResult", "ConvexBody", "Box", "Ball", "Simplex",
    "MovingBox", "numeric_tangent_quotient",
    "SetValue", "NonlinearityField", "SingleValued", "IntervalValued",
    "FilippovHull", "selection_on_intervals", "tangent_selection",
    "semicontinuity_probe",
    "Cube", "FaceVerdict", "MirandaCertificate", "ZeroResult",
    "bolzano_bisect", "miranda_check", "miranda_solve", "brute_force_zero",
    "Grid1D", "OperatorSpec", "DiscreteOperator", "assemble",
    "semigroup_powers", "InvarianceReport", "invariance_audit",
    "SolverConfig", "SolveReport", "TrajectoryReport", "resolvent_iterate",
    "truncation_iterate", "viability_simulate", "residual",
    "NONLINEARITY_NAMES", "make_nonlinearity",
    "StateShiftedField", "as_field",
    "ConditionItem", "ConditionReport", "verify_tangency",
    "verify_bernstein", "verify_subsuper",
    "ProblemSpec", "parse_config", "load_config", "serialize",
    "__version__",
]
