"""The one linear-programming layer of the package: HiGHS behind ``simplex_solve``.

Problems are maximizations over the nonnegative orthant,

    max c.x   s.t.   A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0,

which covers the no-signalling LP of ``optimize.ns_value`` and the
local-membership LP of ``correlations.is_local``.  The matrices may be dense
arrays or scipy sparse arrays.  ``simplex_solve`` calls
``scipy.optimize.linprog(method="highs")``, the dual revised simplex of
Huangfu & Hall, "Parallelizing the dual revised simplex method", Math. Prog.
Comp. 10 (2018), with HiGHS's presolve off: on the package's LPs it cost
more time than it saved.  It returns the primal point with the dual y of the
maximization, so that a caller can certify the optimum itself:
c - A^T y <= 0 and b.y >= c.x.  scipy is imported on the first solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x subject to equalities, inequalities, and x >= 0.

    ``a_eq`` and ``a_ub`` may be dense or scipy sparse; sparse ones are kept
    as CSR.
    """

    objective: np.ndarray
    a_eq: object = None
    b_eq: np.ndarray | None = None
    a_ub: object = None
    b_ub: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "objective", c)
        finite = [c]
        for mat_name, vec_name in (("a_eq", "b_eq"), ("a_ub", "b_ub")):
            mat, vec = getattr(self, mat_name), getattr(self, vec_name)
            if (mat is None) != (vec is None):
                raise ValidationError("consistent shapes",
                                      detail=f"{mat_name} and {vec_name} must come together")
            if mat is None:
                continue
            sparse = hasattr(mat, "tocsr")
            mat = (mat.tocsr().astype(float, copy=False) if sparse
                   else np.atleast_2d(np.asarray(mat, dtype=float)))
            vec = np.atleast_1d(np.asarray(vec, dtype=float))
            if mat.shape != (vec.shape[0], c.shape[0]):
                raise ValidationError("consistent shapes", detail=(
                    f"{mat_name} is {mat.shape[0]} x {mat.shape[1]} with {vec.shape[0]} "
                    f"right-hand sides and {c.shape[0]} variables"))
            finite += [mat.data if sparse else mat, vec]
            object.__setattr__(self, mat_name, mat)
            object.__setattr__(self, vec_name, vec)
        if not all(np.all(np.isfinite(arr)) for arr in finite):
            raise ValidationError("finite entries")

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class SimplexResult:
    """One solve.  ``dual`` is y over the equality rows, then the inequality
    rows (y >= 0 there), from which a caller forms c - A^T y and b.y;
    ``iterations`` is the HiGHS simplex iteration count.  Only an optimal
    result carries a dual."""

    status: str                      # "optimal" | "infeasible" | "unbounded"
    optimum: float
    x: np.ndarray                    # values of the caller's variables
    dual: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Solve ``lp`` with HiGHS.  Raises ``NumericError`` when HiGHS stops
    short of optimality, infeasibility or unboundedness."""
    from scipy.optimize import linprog

    result = linprog(-lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                     bounds=(0, None), method="highs", options={"presolve": False})
    status = _STATUS.get(result.status)
    if status is None:
        raise NumericError(f"HiGHS stopped: {result.message}")
    if status != "optimal":
        return SimplexResult(status, np.inf if status == "unbounded" else np.nan,
                             np.full(lp.num_vars, np.nan), iterations=int(result.nit))
    # scipy's marginals are those of min -c.x
    duals = [-np.asarray(side.marginals) for mat, side in
             ((lp.a_eq, result.eqlin), (lp.a_ub, result.ineqlin)) if mat is not None]
    return SimplexResult("optimal", -float(result.fun), np.asarray(result.x),
                         np.concatenate(duals) if duals else np.zeros(0), int(result.nit))
