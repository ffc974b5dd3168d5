"""Exception types, tolerances, size budgets and the relabeling cap shared
across the package.

The CLI maps the exceptions onto exit codes: ParseError -> 2,
TooLargeError -> 3, PreconditionError -> 4, anything else -> 1.  A file's
content that breaks an object's invariant is a ParseError too: the loaders
build through ``textfile.checked``, which re-raises the ValidationError at
the object's first line.

Every threshold the package applies is one of these, sized for:

* ``ROUNDING_TOL`` (1e-12): a few roundings of unit-scale data that is exact
  in exact arithmetic (weight sums, negative probabilities, zero eigenvalues,
  the see-saw's two-outcome cut and its tie among top state eigenvalues);
* ``FACTOR_TOL`` (1e-10): the residual of one factorization or normalization
  (eigendecompositions, isometries, unit states, imaginary parts), and the
  relative gain below which a see-saw restart stops;
* ``INVARIANT_TOL`` (1e-9): invariants of results built by chains of such
  steps (LP solutions, operator products, values against certificates);
* ``SYMMETRIZE_TOL`` (1e-8): the Hermiticity defect that symmetrizing to
  (M + M*)/2 may silently remove (supplied effects, products E_a F_b), and
  the default verdict tolerance of ``is_local`` and of ``check``;
* ``TIE_TOL`` (1e-15): one rounding of a unit-scale sum, within which the
  see-saw's greedy step counts two eigenvalues or two objectives as tied.

A failed check raises ValidationError (or NotPsdError) for an object's
invariant, PreconditionError for inputs outside an operation's domain, and
NumericError for a computed result.

Each engine counts, from shapes, the units of what it would build before it
allocates or imports scipy; ``require_budget`` refuses more than a budget.  No
one count bounds both time and memory: the 10x10x2x2 membership LP must run
and the ns LP of all_win(1,2,1,1)^23 (4.2e7 units) must not.  Measured on 2
cores (R: ``default_rng(5).random((2,) * 4) < 0.5``, uniform, no relabelings):

==================  ===================================================================
budget or cap       units counted by each engine (a measured instance)
==================  ===================================================================
``WORK_BUDGET``     ``local_value``: nA^(nX-1) maps per f(0) kept at the chain's first level,
(3e8, time)         counted before later levels and bounds prune (memory(R)^2: 6.3e5 scanned
                    of 1.67e7 in 6 ms; memory(chsh)^2: 8.2e4 of 2.1e6);
                    ``top_deterministic_strategies``: nA^nX maps; dense rows x columns of the
                    ``is_local`` LP (10x10x2x2: 2.05e8 in 10 s) and of the ``ns_value`` orbit
                    LP (memory(R)^2: 4.6e6 in 0.2 s), from the shape for a game without
                    symmetry, else after the orbit search
``WORK_BUDGET``     ``qs_seesaw``: one sweep, seeds d^4 (d^2 + nX nY nA nB) (chsh, 20 seeds:
                    d = 12: 6.6e7, 0.21 s per sweep; d = 16: 3.6e8, 0.76 s per sweep)
``ENTRY_BUDGET``    ``iterate``, ``product_game``, ``load_game`` (from the header): predicate
(2.5e7, memory)     entries; ``ns_value``: the full LP's columns and rows, nX nY (nA nB + 1 + nA
                    + nB) + nX nA + nY nB, each an int32 orbit label and most a lifted p entry,
                    about 20 B each (chsh^6, memory(chsh)^5: 1.73e7 in 1.3 s, 354 MB); within
                    it the orbit search costs |G| (base LP points) + width (LP points) for base
                    group G (all_win(2,2,3,3)^4: 1.7e6 units in 0.11 s, 35 MB; search 0.07 s)
``ENTRY_BUDGET``    ``qs_seesaw``: strategy and state stacks, seeds d^2 (nX nA + nY nB + d^2)
``ENTRY_BUDGET``    dilations: the dilated PVM's orthogonality check, k^2 K^2 entries for k
                    outcomes on C^K (64 outcomes on C^8: 1.07e9, 16 GiB); a povm block's
                    effects, outcomes dim^2 entries, from its header line
``RELABELING_CAP``  ``games.relabelings``: candidates nX! nY! (nA!)^nX (nB!)^nY.  The one cap
(1e4)               that never raises: above it the search finds no relabelings, which leaves
                    the engines unreduced, never wrong
==================  ===================================================================

A counted map is a unit, not its work: a scanned map costs nY nB adds (64 for
memory(R)^2, 3 s per 3e8 unpruned), so the 1e8 maps of a random 4x200x100x2
game (400 adds each, none pruned) pass and take 20-55 s.
"""

from __future__ import annotations

ROUNDING_TOL = 1e-12
FACTOR_TOL = 1e-10
INVARIANT_TOL = 1e-9
SYMMETRIZE_TOL = 1e-8
TIE_TOL = 1e-15

WORK_BUDGET = 3 * 10 ** 8
ENTRY_BUDGET = 25 * 10 ** 6
RELABELING_CAP = 10 ** 4


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
