"""The one linear-programming layer of the package: HiGHS behind ``simplex_solve``.

Problems are maximizations over the nonnegative orthant,

    max c.x   s.t.   A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0,

which covers the no-signalling LP of ``optimize.ns_value`` and the
local-membership LP of ``correlations.is_local``.  ``LinearProgram`` stores
every matrix as CSR, whether it came dense or sparse.  ``simplex_solve``
passes the rows [A_ub; A_eq] straight to scipy's HiGHS binding
``scipy.optimize._highspy._core``, with the model, options and post-solve
check of ``linprog(method="highs")``: the dual revised simplex of Huangfu &
Hall, Math. Prog. Comp. 10 (2018), with presolve off, which on the package's
LPs cost more time than it saved.  A solve either returns an optimum that
passed the post-solve check, with the dual y of the maximization, so that a
caller can certify it itself (c - A^T y <= 0 and b.y >= c.x), or raises
``NumericError`` naming HiGHS's model status.  scipy is imported on first
use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import INVARIANT_TOL, NumericError, ValidationError

# linprog's options: HiGHS's defaults (dual simplex, solver "choose") but these
_OPTIONS = (("output_flag", False), ("log_to_console", False), ("presolve", "off"))


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x subject to equalities, inequalities, and x >= 0.

    ``a_eq`` and ``a_ub`` may be dense (a single row may be 1-D) or scipy
    sparse; both are stored as CSR.
    """

    objective: np.ndarray
    a_eq: object = None
    b_eq: np.ndarray | None = None
    a_ub: object = None
    b_ub: np.ndarray | None = None

    def __post_init__(self):
        from scipy.sparse import csr_array, issparse

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
            mat = csr_array(mat if issparse(mat) else np.atleast_2d(mat), dtype=float)
            vec = np.atleast_1d(np.asarray(vec, dtype=float))
            if mat.shape != (vec.shape[0], c.shape[0]):
                raise ValidationError("consistent shapes", detail=(
                    f"{mat_name} is {mat.shape[0]} x {mat.shape[1]} with {vec.shape[0]} "
                    f"right-hand sides and {c.shape[0]} variables"))
            finite += [mat.data, vec]
            object.__setattr__(self, mat_name, mat)
            object.__setattr__(self, vec_name, vec)
        if not all(np.all(np.isfinite(arr)) for arr in finite):
            raise ValidationError("finite entries")

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class SimplexResult:
    """One optimal solve.  ``dual`` is y over the equality rows, then the
    inequality rows (y >= 0 there), from which a caller forms c - A^T y and
    b.y; ``iterations`` is the HiGHS simplex iteration count."""

    optimum: float
    x: np.ndarray                    # values of the caller's variables
    dual: np.ndarray
    iterations: int


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Solve ``lp`` with HiGHS.  Raises ``NumericError`` when HiGHS stops
    short of an optimum, naming its model status, or when the optimum fails
    ``_check_optimal``."""
    from scipy.optimize._highspy import _core as highs
    from scipy.sparse import csr_array, vstack

    n, n_ub = lp.num_vars, 0 if lp.b_ub is None else lp.b_ub.size
    mats = [m for m in (lp.a_ub, lp.a_eq) if m is not None] or [csr_array((0, n))]
    a = mats[0] if len(mats) == 1 else vstack(mats, format="csr")
    upper = np.concatenate([np.zeros(0)] + [b for b in (lp.b_ub, lp.b_eq) if b is not None])
    lower = np.concatenate([np.full(n_ub, -np.inf), upper[n_ub:]])
    solver, error = highs._Highs(), highs.HighsStatus.kError
    # passModel(columns, rows, nonzeros, format, sense, offset, cost, column bounds,
    # row bounds, matrix, integrality): min -c.x over continuous x >= 0
    failed = (any(solver.setOptionValue(*option) == error for option in _OPTIONS)
              or solver.passModel(n, a.shape[0], a.nnz, int(highs.MatrixFormat.kRowwise),
                                  int(highs.ObjSense.kMinimize), 0.0, -lp.objective, np.zeros(n),
                                  np.full(n, np.inf), lower, upper, a.indptr, a.indices, a.data,
                                  np.zeros(n, np.int32)) == error
              or solver.run() == error)
    model_status = solver.getModelStatus()
    if failed or model_status != highs.HighsModelStatus.kOptimal:
        raise NumericError(f"HiGHS stopped: {solver.modelStatusToString(model_status)}")
    info, solution = solver.getInfo(), solver.getSolution()
    x, optimum = np.array(solution.col_value), -info.objective_function_value
    _check_optimal(a, lower, upper, x, optimum)
    dual = -np.array(solution.row_dual)  # of min -c.x over the rows [A_ub; A_eq]
    return SimplexResult(optimum, x, np.concatenate([dual[n_ub:], dual[:n_ub]]),
                         info.simplex_iteration_count)


def _check_optimal(a, lower, upper, x: np.ndarray, optimum: float) -> None:
    """Raise ``NumericError`` unless ``optimum`` is a number, x >= 0 and
    lower <= a x <= upper, each within 10 sqrt(``INVARIANT_TOL``):
    ``linprog``'s post-solve check at its default ``tol``, which equals
    ``INVARIANT_TOL``.  A NaN fails."""
    rows = a @ x
    worst = max(float(np.max(e, initial=-np.inf)) for e in (-x, rows - upper, lower - rows))
    if np.isnan(optimum) or not worst <= 10 * np.sqrt(INVARIANT_TOL):
        raise NumericError("HiGHS optimum violates the constraints", residual=worst)
