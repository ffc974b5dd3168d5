"""Exception types shared across the package, and its four tolerances.

The CLI maps the exceptions onto exit codes: ParseError -> 2,
TooLargeError -> 3, PreconditionError -> 4, anything else -> 1.

Every threshold the package applies is one of these, sized for:

* ``ROUNDING_TOL`` (1e-12): a few roundings of unit-scale data that is exact
  in exact arithmetic (weight sums, negative probabilities, zero eigenvalues);
* ``FACTOR_TOL`` (1e-10): the residual of one factorization or normalization
  (eigendecompositions, isometries, unit states, imaginary parts);
* ``INVARIANT_TOL`` (1e-9): invariants of results built by chains of such
  steps (LP solutions, operator products, values against certificates);
* ``SYMMETRIZE_TOL`` (1e-8): the Hermiticity defect that symmetrizing to
  (M + M*)/2 may silently remove (supplied effects, products E_a F_b).

A failed check raises ValidationError (or NotPsdError) for an object's
invariant, PreconditionError for inputs outside an operation's domain, and
NumericError for a computed result.  The see-saw's step thresholds, the
``tol`` defaults of ``is_local`` and ``marginal_A``/``marginal_B`` and the
Gram-Schmidt floor of ``linalg.extend_isometry_to_unitary`` are separate.
"""

from __future__ import annotations

ROUNDING_TOL = 1e-12
FACTOR_TOL = 1e-10
INVARIANT_TOL = 1e-9
SYMMETRIZE_TOL = 1e-8


class ValidationError(ValueError):
    """A constructed object violates one of its invariants.

    Carries the name of the violated invariant and the measured residual so
    callers can report exactly what failed.
    """

    def __init__(self, invariant: str, residual: float | None = None, detail: str = ""):
        self.invariant = invariant
        self.residual = residual
        msg = f"invariant violated: {invariant}"
        if residual is not None:
            msg += f" (residual {residual:.3e})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotPsdError(ValidationError):
    """An operator required to be positive semidefinite is not.

    ``residual`` holds the offending (most negative) eigenvalue.
    """

    def __init__(self, eigenvalue: float, detail: str = ""):
        super().__init__("positive semidefinite", residual=eigenvalue, detail=detail)
        self.eigenvalue = eigenvalue


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the given inputs."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NumericError(RuntimeError):
    """A numerical routine failed to reach its accuracy contract."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message += f" (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class TooLargeError(ValueError):
    """A resource cap (enumeration size, tensor size) would be exceeded."""


class ParseError(ValueError):
    """A text file could not be parsed; ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
