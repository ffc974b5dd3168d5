"""Exception types, tolerances and size budgets shared across the package.

The CLI maps the exceptions onto exit codes: ParseError -> 2,
TooLargeError -> 3, PreconditionError -> 4, anything else -> 1.  A file's
content that breaks an object's invariant is a ParseError too: the loaders
build through ``textfile.checked``, which re-raises the ValidationError at
the object's first line.

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
``tol`` default of ``is_local`` and the Gram-Schmidt floor of
``linalg.extend_isometry_to_unitary`` are separate.

Each engine counts, from shapes, the units of what it would build before it
allocates or imports scipy; ``require_budget`` refuses more than a budget.  No
one count bounds both time and memory: the 10x10x2x2 membership LP must run
and the 5.1e7-entry full LP of chsh^6 must not.  Measured on 2 cores (R: a
random 2x2x2x2 base without relabelings):

================  ===================================================================
budget            units counted by each engine (a measured instance)
================  ===================================================================
``WORK_BUDGET``   ``local_value``: nA^(nX-1) maps per f(0) kept at the chain's first level,
(3e8, time)       fewer after the later levels (memory(R)^2: 1.67e7 in 0.18 s; memory(chsh)^2:
                  2.6e5 scanned of 2.1e6 counted); ``top_deterministic_strategies``: nA^nX maps;
                  dense rows x columns of the ``is_local`` LP (10x10x2x2: 2.05e8 in
                  10 s) and of the ``ns_value`` orbit LP (memory(R)^2: 4.6e6 in 0.2 s),
                  from the shape for a game without symmetry, else after the orbit search
``WORK_BUDGET``   ``qs_seesaw``: one sweep, seeds d^4 (d^2 + nX nY nA nB) (chsh, 20 seeds:
                  d = 12: 6.6e7, 0.21 s per sweep; d = 16: 3.6e8, 0.76 s per sweep)
``ENTRY_BUDGET``  ``iterate``, ``product_game``, ``load_game`` (from the header): predicate
(2.5e7, memory)   entries; ``ns_value``: entries of the full LP that certifies the value,
                  3 nX nY nA nB + nX nY (nA + nB), about 55 B each with the solve (chsh^5:
                  3.2e6 in 0.33 s, 169 MB; all_win(2,2,3,3)^4: 5.1e6 in 0.39 s, 268 MB).
                  The orbit search within it costs |G| (base LP points) + width (LP
                  points), for base group G (all_win(2,2,3,3)^4: 0.07 s, 40 MB)
``ENTRY_BUDGET``  ``qs_seesaw``: strategy and state stacks, seeds d^2 (nX nA + nY nB + d^2)
``ENTRY_BUDGET``  dilations: the dilated PVM's orthogonality check, k^2 K^2 entries for k
                  outcomes on C^K (64 outcomes on C^8: 1.07e9, 16 GiB); a povm block's
                  effects, outcomes dim^2 entries, from its header line
================  ===================================================================

A scanned map is a unit, not its work: the kernel adds nY nB numbers per
map (64 for memory(R)^2), so the 1e8 maps of a 4x200x100x2 game (400 adds
each) pass and take 20 s, where 3e8 maps of memory(R)^2 would take 3 s.
"""

from __future__ import annotations

ROUNDING_TOL = 1e-12
FACTOR_TOL = 1e-10
INVARIANT_TOL = 1e-9
SYMMETRIZE_TOL = 1e-8

WORK_BUDGET = 3 * 10 ** 8
ENTRY_BUDGET = 25 * 10 ** 6


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
    """Work or memory would exceed a budget; raised by ``require_budget`` only."""


def require_budget(units: int, budget: int, what: str) -> None:
    """Raise ``TooLargeError`` when ``what`` needs more than ``budget`` units."""
    if units > budget:
        raise TooLargeError(f"{what} needs {units} units, over the budget of {budget}")


class ParseError(ValueError):
    """A text file could not be parsed; ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
