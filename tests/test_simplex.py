import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from nsgames import LinearProgram, ValidationError, chsh, simplex_solve
from nsgames import rand
from nsgames.optimize import ns_value_lp


class TestBasics:
    def test_single_variable_bound(self):
        # max x s.t. x <= 1
        lp = LinearProgram([1.0], a_ub=[[1.0]], b_ub=[1.0])
        result = simplex_solve(lp)
        assert result.status == "optimal"
        assert result.optimum == pytest.approx(1.0, abs=1e-12)

    def test_normalization_polytope(self):
        # max sum(p) over p >= 0 with sum(p) = 1: trivially 1
        lp = LinearProgram(np.ones(6), a_eq=np.ones((1, 6)), b_eq=[1.0])
        result = simplex_solve(lp)
        assert result.optimum == pytest.approx(1.0, abs=1e-12)

    def test_unbounded(self):
        lp = LinearProgram([1.0, 0.0], a_eq=[[0.0, 1.0]], b_eq=[1.0])
        assert simplex_solve(lp).status == "unbounded"

    def test_infeasible_with_residual(self):
        lp = LinearProgram([0.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0])
        assert simplex_solve(lp).status == "infeasible"

    def test_no_constraints(self):
        assert simplex_solve(LinearProgram([-1.0, -2.0])).optimum == 0.0
        assert simplex_solve(LinearProgram([1.0])).status == "unbounded"

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            LinearProgram([1.0, 2.0], a_eq=[[1.0]], b_eq=[1.0])
        with pytest.raises(ValidationError):
            LinearProgram([np.inf])

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
            assert result.status == "optimal"
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
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), n=st.integers(1, 8))
    def test_random_bounded_lps(self, seed, m, n):
        gen = rand.generator(seed)
        a_ub = gen.uniform(0.1, 2.0, size=(m, n))  # positive rows: bounded
        b_ub = gen.uniform(0.5, 3.0, size=m)
        c = gen.uniform(-1.0, 2.0, size=n)
        mine = simplex_solve(LinearProgram(c, a_ub=a_ub, b_ub=b_ub))
        ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        assert mine.status == "optimal" and ref.success
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
        assert mine.status == "optimal" and ref.success
        assert mine.optimum == pytest.approx(-ref.fun, abs=1e-8)
