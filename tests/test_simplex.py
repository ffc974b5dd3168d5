import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from nsgames import (Correlation, FiniteGame, LinearProgram, NumericError, SimplexResult,
                     ValidationError, chsh, correlations, is_local, iterate, memory_game,
                     random_game, simplex_solve)
from nsgames import rand
from nsgames.optimize import ns_value_lp
from nsgames.simplex import _check_optimal

from conftest import pr_box


def linprog_solve(lp):
    """``lp`` solved by ``linprog`` with presolve off: its status (0 optimal,
    2 infeasible, 3 unbounded) and, when optimal, its answer mapped onto
    ``SimplexResult``, the reference that ``simplex_solve`` must match."""
    result = linprog(-lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                     bounds=(0, None), method="highs", options={"presolve": False})
    if result.status != 0:
        return result.status, None
    # scipy's marginals are those of min -c.x
    duals = [-np.asarray(side.marginals) for mat, side in
             ((lp.a_eq, result.eqlin), (lp.a_ub, result.ineqlin)) if mat is not None]
    return 0, SimplexResult(-float(result.fun), np.asarray(result.x),
                            np.concatenate(duals) if duals else np.zeros(0), int(result.nit))


def reference_lps():
    """Orbit and full no-signalling LPs, membership LPs of a local mixture and
    of a noisy PR box, one infeasible and one unbounded LP, and two LPs
    without rows."""
    from test_correlations import random_local
    from test_games import symmetric_bases

    gen = rand.generator(23)
    lps = []
    for base in symmetric_bases():
        stage = iterate(memory_game(base), 1)
        assert stage.symmetry
        lps += [ns_value_lp(stage), ns_value_lp(FiniteGame(stage.win, stage.dist))]
    for _ in range(4):
        shape = tuple(int(n) for n in gen.integers(2, 4, size=4))
        lps.append(ns_value_lp(random_game(shape, gen)))
    lps.append(ns_value_lp(random_game((6, 6, 6, 6), gen)))
    solve = correlations.simplex_solve

    def recorded(lp):
        lps.append(lp)
        return solve(lp)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlations, "simplex_solve", recorded)
        noisy = 0.7 * pr_box().p + 0.3 * random_local(gen).p
        assert is_local(Correlation(random_local(gen, (3, 2, 3, 2)).p))[0]
        assert not is_local(Correlation(noisy))[0]
    return lps + [LinearProgram([0.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]),
                  LinearProgram([1.0, 0.0], a_eq=[[0.0, 1.0]], b_eq=[1.0]),
                  LinearProgram([-1.0, -2.0]), LinearProgram([1.0])]  # no rows


class TestBasics:
    def test_single_variable_bound(self):
        # max x s.t. x <= 1
        lp = LinearProgram([1.0], a_ub=[[1.0]], b_ub=[1.0])
        result = simplex_solve(lp)
        assert result.optimum == pytest.approx(1.0, abs=1e-12)

    def test_normalization_polytope(self):
        # max sum(p) over p >= 0 with sum(p) = 1: trivially 1
        lp = LinearProgram(np.ones(6), a_eq=np.ones((1, 6)), b_eq=[1.0])
        result = simplex_solve(lp)
        assert result.optimum == pytest.approx(1.0, abs=1e-12)

    def test_unbounded(self):
        lp = LinearProgram([1.0, 0.0], a_eq=[[0.0, 1.0]], b_eq=[1.0])
        with pytest.raises(NumericError, match="^HiGHS stopped: Unbounded$"):
            simplex_solve(lp)

    def test_infeasible_with_residual(self):
        lp = LinearProgram([0.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0])
        with pytest.raises(NumericError, match="^HiGHS stopped: Infeasible$"):
            simplex_solve(lp)

    def test_no_constraints(self):
        assert simplex_solve(LinearProgram([-1.0, -2.0])).optimum == 0.0
        with pytest.raises(NumericError, match="^HiGHS stopped: Unbounded$"):
            simplex_solve(LinearProgram([1.0]))

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            LinearProgram([1.0, 2.0], a_eq=[[1.0]], b_eq=[1.0])
        with pytest.raises(ValidationError):
            LinearProgram([np.inf])
        with pytest.raises(ValidationError, match="finite"):
            LinearProgram([1.0], a_eq=[[np.nan]], b_eq=[1.0])

    def test_matrices_stored_as_csr(self):
        from scipy.sparse import coo_array

        dense = LinearProgram([1.0, 2.0], a_eq=[[1, 0], [0, 1]], b_eq=[1.0, 1.0],
                              a_ub=[1.0, 1.0], b_ub=[2.5])  # one row, given 1-D
        coo = LinearProgram([1.0, 2.0], a_eq=coo_array([[1, 0], [0, 1]]), b_eq=[1.0, 1.0])
        for mat, shape in ((dense.a_eq, (2, 2)), (dense.a_ub, (1, 2)), (coo.a_eq, (2, 2))):
            assert mat.format == "csr" and mat.dtype == float and mat.shape == shape
        assert simplex_solve(dense).optimum == pytest.approx(3.0, abs=1e-12)

    def test_sparse_matches_dense(self):
        from scipy.sparse import csr_array

        a_eq = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        dense = simplex_solve(LinearProgram([1.0, 2.0, 0.5], a_eq=a_eq, b_eq=[1.0, 1.0]))
        sparse = simplex_solve(LinearProgram([1.0, 2.0, 0.5], a_eq=csr_array(a_eq),
                                             b_eq=[1.0, 1.0]))
        assert sparse.optimum == dense.optimum == pytest.approx(3.0, abs=1e-12)
        assert np.array_equal(sparse.x, dense.x) and np.array_equal(sparse.dual, dense.dual)
        with pytest.raises(ValidationError):
            LinearProgram([1.0, 2.0], a_eq=csr_array(a_eq), b_eq=[1.0, 1.0])

    def test_negative_rhs_rows_handled(self):
        # x1 - x2 = -1, x1 + x2 = 3 -> x = (1, 2); max x1 + x2 = 3
        lp = LinearProgram([1.0, 1.0], a_eq=[[1.0, -1.0], [1.0, 1.0]],
                           b_eq=[-1.0, 3.0])
        result = simplex_solve(lp)
        assert np.allclose(result.x, [1.0, 2.0], atol=1e-9)

    def test_redundant_rows_dropped(self):
        lp = LinearProgram([1.0, 0.0],
                           a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
        result = simplex_solve(lp)
        assert result.optimum == pytest.approx(1.0, abs=1e-9)


class TestCertificates:
    def test_chsh_ns_lp(self):
        result = simplex_solve(ns_value_lp(chsh()))
        assert result.optimum == pytest.approx(1.0, abs=1e-9)

    def test_duality_gap_on_game_lps(self, rng):
        from nsgames import random_game

        for _ in range(5):
            shape = tuple(int(rng.integers(2, 4)) for _ in range(4))
            lp = ns_value_lp(random_game(shape, rng))
            result = simplex_solve(lp)
            assert abs(result.optimum - float(lp.b_eq @ result.dual)) <= 1e-8

    def test_dual_feasibility_sign(self, rng):
        from nsgames import random_game

        lp = ns_value_lp(random_game((2, 2, 2, 2), rng))
        result = simplex_solve(lp)
        # maximization: all reduced costs c - A^T y of structural variables <= tol
        assert float((lp.objective - lp.a_eq.T @ result.dual).max()) <= 1e-9

    def test_primal_feasibility(self, rng):
        from nsgames import random_game

        lp = ns_value_lp(random_game((3, 2, 2, 3), rng))
        result = simplex_solve(lp)
        residual = np.max(np.abs(lp.a_eq @ result.x - lp.b_eq))
        assert residual <= 1e-9


class TestAgainstScipy:
    def test_same_answer_as_linprog_bit_for_bit(self):
        # the same HiGHS run as linprog's: same pivots, point, dual and optimum
        # where linprog stops infeasible (2) or unbounded (3), simplex_solve
        # raises with HiGHS's status
        lps = reference_lps()
        statuses = []
        for lp in lps:
            status, ref = linprog_solve(lp)
            statuses.append(status)
            if ref is None:
                with pytest.raises(NumericError, match="^HiGHS stopped: (Infeasible|Unbounded)$"):
                    simplex_solve(lp)
                continue
            mine = simplex_solve(lp)
            assert mine.iterations == ref.iterations and mine.optimum == ref.optimum
            assert np.array_equal(mine.x, ref.x) and np.array_equal(mine.dual, ref.dual)
        assert statuses[-4:] == [2, 3, 0, 3]
        assert statuses.count(0) == len(lps) - 3
        assert sum(lp.a_ub is not None for lp in lps) >= 2  # the membership LPs

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), n=st.integers(1, 8))
    def test_random_bounded_lps(self, seed, m, n):
        gen = rand.generator(seed)
        a_ub = gen.uniform(0.1, 2.0, size=(m, n))  # positive rows: bounded
        b_ub = gen.uniform(0.5, 3.0, size=m)
        c = gen.uniform(-1.0, 2.0, size=n)
        mine = simplex_solve(LinearProgram(c, a_ub=a_ub, b_ub=b_ub))
        ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        assert ref.success
        assert mine.optimum == pytest.approx(-ref.fun, abs=1e-8)
        # inequality duals of a maximization are nonnegative and close the gap
        assert float(mine.dual.min()) >= -1e-9
        assert float(b_ub @ mine.dual) == pytest.approx(mine.optimum, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_equality_lps(self, seed):
        gen = rand.generator(seed)
        n, m = 8, 3
        a_eq = gen.uniform(0.0, 1.0, size=(m, n))
        x_feas = gen.uniform(0.0, 1.0, size=n)
        b_eq = a_eq @ x_feas  # feasible by construction
        c = gen.uniform(-1.0, 1.0, size=n)
        a_ub = np.ones((1, n))  # keep it bounded
        b_ub = np.array([x_feas.sum() + 1.0])
        mine = simplex_solve(LinearProgram(c, a_eq=a_eq, b_eq=b_eq,
                                           a_ub=a_ub, b_ub=b_ub))
        ref = linprog(-c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub,
                      bounds=(0, None), method="highs")
        assert ref.success
        assert mine.optimum == pytest.approx(-ref.fun, abs=1e-8)


class TestPostSolveCheck:
    # max 2 x0 + x1 + x2 s.t. x0 + x1 = 1, x2 = 0.5, x0 <= 0.75: x = (0.75, 0.25, 0.5)
    LP = LinearProgram([2.0, 1.0, 1.0], a_eq=[[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                       b_eq=[1.0, 0.5], a_ub=[[1.0, 0.0, 0.0]], b_ub=[0.75])
    # the rows [A_ub; A_eq] with their bounds, as simplex_solve stacks them
    ROWS = (np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.array([-np.inf, 1.0, 0.5]), np.array([0.75, 1.0, 0.5]))

    def solved(self):
        result = simplex_solve(self.LP)
        assert result.optimum == pytest.approx(2.25, abs=1e-12)
        assert np.allclose(result.x, [0.75, 0.25, 0.5], rtol=0, atol=1e-12)
        return result.x.copy(), result.optimum

    # each shift moves one row: x2's equality, or x0 against its inequality
    @pytest.mark.parametrize("shift", [(0, 0, 1e-3), (0, 0, -1e-3), (1e-3, -1e-3, 0)],
                             ids=["equality", "equality-below", "inequality"])
    def test_violated_row_raises(self, shift):
        x, optimum = self.solved()
        with pytest.raises(NumericError, match="violates"):
            _check_optimal(*self.ROWS, x + shift, optimum)

    @pytest.mark.parametrize("size", [1e-7, -1e-7, 1e-4, -1e-4])
    def test_within_tolerance_passes(self, size):
        # 1e-7 is HiGHS's primal feasibility tolerance; linprog admits up to 3.2e-4
        x, optimum = self.solved()
        _check_optimal(*self.ROWS, x + (0, 0, size), optimum)
        _check_optimal(*self.ROWS, x + (size, -size, 0), optimum)

    def test_negative_entry_raises(self):
        no_rows = (np.zeros((0, 3)), np.zeros(0), np.zeros(0))
        _check_optimal(*no_rows, np.array([0.5, -1e-7, 0.5]), 1.0)
        with pytest.raises(NumericError, match="violates"):
            _check_optimal(*no_rows, np.array([0.5, -1e-3, 0.5]), 1.0)

    def test_nan_raises(self):
        x, optimum = self.solved()
        _check_optimal(*self.ROWS, x, optimum)
        with pytest.raises(NumericError, match="violates"):
            _check_optimal(*self.ROWS, x, np.nan)
        x[0] = np.nan
        with pytest.raises(NumericError, match="violates"):
            _check_optimal(*self.ROWS, x, optimum)
