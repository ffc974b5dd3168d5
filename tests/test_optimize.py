import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames import (
    TooLargeError,
    ValidationError,
    chsh,
    local_value,
    never_win,
    ns_value,
    payoff,
    product_game,
    qs_seesaw,
    random_game,
    seesaw_measurement_update,
    seesaw_state_update,
    top_deterministic_strategies,
)
from nsgames import FiniteGame, all_win, embed, iterate, memory_game, rand, relabelings
from nsgames.linalg import kron, max_abs

from conftest import PAULI_X, PAULI_Z, lifted_relabelings, pauli_pvm, pr_box


def consecutive_difference_lp(game):
    """Reference no-signalling LP over the entries p alone: normalization per
    (x,y), and equal marginals at consecutive questions of the other party."""
    nX, nY, nA, nB = game.shape
    index = np.arange(game.win.size).reshape(game.shape)
    rows = []
    for x in range(nX):
        for y in range(nY):
            row = np.zeros(game.win.size)
            row[index[x, y].ravel()] = 1.0
            rows.append(row)
    for x, a, y in itertools.product(range(nX), range(nA), range(nY - 1)):
        row = np.zeros(game.win.size)
        row[index[x, y, a, :]] = 1.0
        row[index[x, y + 1, a, :]] = -1.0
        rows.append(row)
    for y, b, x in itertools.product(range(nY), range(nB), range(nX - 1)):
        row = np.zeros(game.win.size)
        row[index[x, y, :, b]] = 1.0
        row[index[x + 1, y, :, b]] = -1.0
        rows.append(row)
    b_eq = np.zeros(len(rows))
    b_eq[: nX * nY] = 1.0
    return (game.dist[:, :, None, None] * game.win).ravel(), np.array(rows), b_eq


def entrywise_lp_matrix(game):
    """Reference for the matrix of ``ns_value_lp``, dense, one p entry at a time."""
    nX, nY, nA, nB = game.shape
    n_p, n_pairs = game.win.size, nX * nY
    dense = np.zeros((n_pairs * (1 + nA + nB), n_p + nX * nA + nY * nB))
    for col, (x, y, a, b) in enumerate(itertools.product(*map(range, game.shape))):
        alice = n_pairs + (x * nA + a) * nY + y
        bob = n_pairs + nX * nA * nY + (y * nB + b) * nX + x
        dense[[x * nY + y, alice, bob], col] = 1.0
        dense[alice, n_p + x * nA + a] = -1.0
        dense[bob, n_p + nX * nA + y * nB + b] = -1.0
    return dense


def lp_index(shape, x, y, a, b):
    """For entries p(a,b|x,y) of a game of this shape: the full LP's columns of
    p, of alpha[x,a] and of beta[y,b], and its rows of normalization (x,y),
    Alice's marginal (x,a,y) and Bob's marginal (y,b,x)."""
    nX, nY, nA, nB = shape
    n_p, n_pairs = nX * nY * nA * nB, nX * nY
    cols = (((x * nY + y) * nA + a) * nB + b, n_p + x * nA + a, n_p + nX * nA + y * nB + b)
    rows = (x * nY + y, n_pairs + (x * nA + a) * nY + y,
            n_pairs + nX * nA * nY + (y * nB + b) * nX + x)
    return cols, rows


def propagated_labels(images):
    """The smallest member of each point's orbit, for the group generated by
    the permutations ``images`` (k, n) of range(n); found by label propagation."""
    labels = np.arange(images.shape[1])
    while True:
        new = np.minimum(labels, labels[images].min(axis=0))
        if np.array_equal(new, labels):
            return labels
        labels = new


def stacked_lp_orbits(game):
    """Reference orbit labels of the full LP's columns and rows: every lifted
    relabeling applied to every LP point, and the labels propagated over the
    stacked images until they settle; every point its own label for a game
    without relabelings."""
    if not game.symmetry:
        return [np.arange(n) for n in entrywise_lp_matrix(game).shape[::-1]]
    px, py, sa, sb = (part.astype(int) for part in lifted_relabelings(game))
    x, y, a, b = np.indices(game.shape).reshape(4, -1)
    before = lp_index(game.shape, x, y, a, b)
    after = lp_index(game.shape, px[:, x], py[:, y], sa[:, x, a], sb[:, y, b])
    labels = []
    for points, moved in zip(before, after):  # columns, then rows
        images = np.empty((len(px), points[-1].max() + 1), dtype=int)
        for point, image in zip(points, moved):
            images[:, point] = image
        labels.append(propagated_labels(images))
    return labels


def reduced_entrywise_lp(game):
    """Reference orbit LP (c, A, b): the dense ``entrywise_lp_matrix`` with the
    columns of each ``stacked_lp_orbits`` orbit summed and one row kept per row
    orbit, its least."""
    (col_reps, col_orbit), (row_reps, _) = (np.unique(labels, return_inverse=True)
                                            for labels in stacked_lp_orbits(game))
    merge = col_orbit[:, None] == np.arange(col_reps.size)
    c = np.concatenate([(game.dist[:, :, None, None] * game.win).ravel(),
                        np.zeros(merge.shape[0] - game.win.size)])
    return c @ merge, entrywise_lp_matrix(game)[row_reps] @ merge, (row_reps < game.nX * game.nY)


def brute_force_local(game):
    """Independent oracle: direct enumeration over every (f, g) pair."""
    nX, nY, nA, nB = game.shape
    best = -1.0
    for f in itertools.product(range(nA), repeat=nX):
        for g in itertools.product(range(nB), repeat=nY):
            total = 0.0
            for x in range(nX):
                for y in range(nY):
                    if game.win[x, y, f[x], g[y]]:
                        total += game.dist[x, y]
            best = max(best, total)
    return best


class TestNsValue:
    def test_chsh_reaches_one(self):
        # oracle: the PR box is a feasible point attaining payoff 1
        game = chsh()
        assert payoff(game, pr_box()) == pytest.approx(1.0, abs=1e-12)
        value, corr = ns_value(game)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert payoff(game, corr) == pytest.approx(value, abs=1e-9)

    def test_all_win(self):
        value, _ = ns_value(all_win(2, 2, 2, 2))
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_never_win(self):
        value, _ = ns_value(never_win(2, 2, 2, 2))
        assert value == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dominates_local(self, seed):
        game = random_game((2, 2, 2, 2), rand.generator(seed))
        ns, corr = ns_value(game)
        loc, _ = local_value(game)
        assert loc <= ns + 1e-9

    def test_equality_when_optimum_local(self, rng):
        from nsgames import is_local

        for _ in range(8):
            game = random_game((2, 2, 2, 2), rng)
            ns, corr = ns_value(game)
            loc, _ = local_value(game)
            verdict, _ = is_local(corr)
            if verdict:
                assert ns == pytest.approx(loc, abs=1e-8)

    def test_lp_size_cap(self):
        from nsgames.optimize import ns_value_lp

        # memory(chsh)^3: the full LP is 8,448 x 66,048, the solved orbit LP 3 x 18
        stage = iterate(memory_game(chsh()), 3)
        value, corr = ns_value(stage)
        assert value == 1.0 and corr.shape == (16, 16, 16, 16)
        assert ns_value_lp(stage).a_eq.shape == (3, 18)
        assert ns_value_lp(iterate(memory_game(chsh()), 2)).a_eq.shape == (3, 10)  # of 1088 x 4224

    @pytest.mark.parametrize("make, n", [(embed, 1), (memory_game, 1), (embed, 2)])
    def test_lp_matrix_matches_entrywise_reference(self, make, n):
        from test_games import symmetric_bases

        from nsgames.optimize import ns_value_lp

        # the solved orbit LP, and the full LP of the same game without relabelings
        for base in symmetric_bases() + [random_game((2, 3, 3, 2), rand.generator(4))]:
            stage = iterate(make(base), n)
            for game in (stage, FiniteGame(stage.win, stage.dist)):
                if game.win.size <= 4096:
                    lp = ns_value_lp(game)
                    objective, a_eq, b_eq = reduced_entrywise_lp(game)
                    assert lp.a_eq.has_canonical_format and lp.a_eq.indices.dtype == np.int32
                    assert np.array_equal(lp.a_eq.toarray(), a_eq)
                    assert np.array_equal(lp.b_eq, b_eq)
                    assert np.allclose(lp.objective, objective, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("game", [
        pytest.param(chsh(), id="chsh"),
        pytest.param(random_game((2, 3, 3, 2), rand.generator(4)), id="random-2x3x3x2"),
        pytest.param(iterate(memory_game(chsh()), 1), id="memory-chsh-1"),
        pytest.param(iterate(embed(all_win(2, 2, 3, 3)), 1), id="embed-all-win-2233-1")])
    def test_dual_slack_matches_entrywise_reference(self, game):
        from nsgames.optimize import _dual_slack

        dense = entrywise_lp_matrix(game)
        objective = np.concatenate([(game.dist[:, :, None, None] * game.win).ravel(),
                                    np.zeros(dense.shape[1] - game.win.size)])
        b_eq = np.arange(dense.shape[0]) < game.nX * game.nY
        for y in np.random.default_rng(7).normal(size=(3, dense.shape[0])):
            slack, bound = _dual_slack(game, y)
            assert np.allclose(np.concatenate([part.ravel() for part in slack]),
                               objective - dense.T @ y, rtol=0, atol=1e-12)
            assert bound == pytest.approx(b_eq @ y, rel=0, abs=1e-12)

    def test_full_lp_memory(self):
        # chsh^5: the full LP (1.1e6 columns and rows) is never built; the
        # orbit labels, the lifted answer and the broadcast check peak at 22 MB
        stage = iterate(embed(chsh()), 5)
        tracemalloc.start()
        try:
            value, _ = ns_value(stage)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1.0 and peak < 30 * 10 ** 6

    def test_memory_chsh_4_fast_and_small(self):
        import scipy.optimize  # noqa: F401 - time the solve, not the import

        stage = iterate(memory_game(chsh()), 4)  # 0.07 s at a 22 MB peak
        start = time.perf_counter()  # timed untraced: tracing doubles the call
        value, _ = ns_value(stage)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            ns_value(stage)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1.0
        assert elapsed < 0.3 and peak < 60 * 10 ** 6

    @pytest.mark.parametrize("make, n", [(embed, 6), (memory_game, 5)])
    def test_largest_chsh_iterates_certified(self, make, n):
        import scipy.optimize  # noqa: F401 - time the solve, not the import

        # 64 x 64 x 64 x 64: 1.73e7 LP columns and rows, within ENTRY_BUDGET;
        # 1.3 s at a 354 MB peak
        stage = iterate(make(chsh()), n)
        start = time.perf_counter()
        value, corr = ns_value(stage)
        assert time.perf_counter() - start < 4.0
        assert value == 1.0 and payoff(stage, corr) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("case", ["memory(R0)^3", "memory(R0)^4", "all_win(1,2,1,1)^23"])
    def test_over_budget_refused_fast(self, case, r0):
        import scipy.optimize  # noqa: F401 - time the refusal, not the import

        if case.startswith("all_win"):  # 4.2e7 LP columns and rows, over ENTRY_BUDGET,
            # for a predicate of 8.4e6 entries, the smallest stock iterate over
            stage = iterate(embed(all_win(1, 2, 1, 1)), 23)
            assert stage.symmetry
        else:  # R0 has only the identity: its orbit LP is the full LP (8,448 x 66,048 at n = 3)
            stage = iterate(memory_game(r0), int(case[-1]))
            assert stage.symmetry == ()
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(TooLargeError, match="no-signalling"):
                ns_value(stage)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 10 ** 6  # refused from the shape alone

    def test_failing_game_solves(self):
        # a 6^4 game on which a dense tableau simplex lost primal feasibility
        rng = np.random.default_rng([8, 2])
        rng.random((2, 2, 2, 2))
        rules = rng.random((6, 6, 6, 6)) < 0.3
        dist = rng.random((6, 6)) + 0.1
        game = FiniteGame(rules, dist / dist.sum())
        value, corr = ns_value(game)
        assert value == pytest.approx(0.85358091006949, abs=1e-9)
        assert payoff(game, corr) == pytest.approx(value, abs=1e-9)

    def test_chained3_iid2_is_fast(self):
        # 9x9x4x4, 657 rows: a dense tableau stalled past 38,000 pivots here
        x, y, a, b = np.indices((3, 3, 2, 2))
        game = FiniteGame((a ^ b) == ((x == 2) & (y == 2)), np.full((3, 3), 1 / 9))
        start = time.perf_counter()
        value, _ = ns_value(iterate(embed(game), 2))
        assert time.perf_counter() - start < 2.0
        assert value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("corrupt", ["dual", "primal", "suboptimal"])
    def test_failed_certificate_raises(self, monkeypatch, corrupt):
        from nsgames import NumericError, optimize

        solve = optimize.simplex_solve

        def corrupted(lp):
            result = solve(lp)
            if corrupt == "dual":
                return dataclasses.replace(result, dual=np.zeros_like(result.dual))
            if corrupt == "suboptimal":  # the uniform box: feasible, payoff 1/2
                return dataclasses.replace(result, x=np.where(np.arange(result.x.size) < 16,
                                                              0.25, result.x))
            signalling = np.zeros_like(result.x)
            signalling[[0, 7, 8, 12]] = 1.0  # Alice's x=0 answer depends on y
            return dataclasses.replace(result, x=signalling)

        monkeypatch.setattr(optimize, "simplex_solve", corrupted)
        with pytest.raises(NumericError, match="no-signalling (dual|primal)"):
            ns_value(chsh())

    @pytest.mark.parametrize("corrupt, message", [("zero", "infeasible"), ("raised", "bound")])
    def test_failed_orbit_certificate_raises(self, monkeypatch, corrupt, message):
        # the orbit LP's dual, lifted and checked on the full LP
        from nsgames import NumericError, optimize

        solve = optimize.simplex_solve

        def corrupted(lp):
            result = solve(lp)
            # zero: c - A^T y = c > 0; raised: each normalization orbit's dual
            # up by 1, still feasible, and the bound b.y up by their number
            dual = 0 * result.dual if corrupt == "zero" else result.dual + lp.b_eq
            return dataclasses.replace(result, dual=dual)

        stage = iterate(memory_game(chsh()), 1)
        assert stage.symmetry
        monkeypatch.setattr(optimize, "simplex_solve", corrupted)
        with pytest.raises(NumericError, match=f"no-signalling dual.*{message}"):
            ns_value(stage)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.tuples(st.integers(1, 3), st.integers(1, 3),
                           st.integers(1, 3), st.integers(1, 3)))
    def test_game_lp_matches_highs(self, seed, shape):
        # independent solver oracle on the entire no-signalling LP
        from scipy.optimize import linprog

        from nsgames.optimize import ns_value_lp

        game = random_game(shape, rand.generator(seed))
        mine, _ = ns_value(game)
        lp = ns_value_lp(game)
        for c, a_eq, b_eq in (consecutive_difference_lp(game), (lp.objective, lp.a_eq, lp.b_eq)):
            ref = linprog(-c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
            assert ref.success
            assert mine == pytest.approx(-ref.fun, abs=1e-8)

    def test_marginal_lp_layout(self):
        from nsgames.optimize import ns_value_lp

        game = FiniteGame(np.ones((2, 3, 2, 2), dtype=bool), np.full((2, 3), 1 / 6))
        lp = ns_value_lp(game)  # without relabelings: the full LP
        # 6 normalizations, 12 Alice and 12 Bob marginal rows; 24 entries, 4 + 6 marginals
        assert lp.a_eq.shape == (30, 34)
        dense = lp.a_eq.toarray()
        assert np.array_equal(dense[:, 24:].sum(axis=0), [-3.0] * 4 + [-2.0] * 6)
        assert np.array_equal(dense[:6].sum(axis=1), np.full(6, 4.0))
        # with them, one orbit per family: p, alpha, beta; (x,y), (x,a,y), (y,b,x)
        lp = ns_value_lp(iterate(embed(game), 1))
        assert np.array_equal(lp.a_eq.toarray(), [[4.0, 0.0, 0.0], [2.0, -1.0, 0.0], [2.0, 0.0, -1.0]])
        assert np.array_equal(lp.b_eq, [1.0, 0.0, 0.0])
        assert lp.objective.tolist() == pytest.approx([4.0, 0.0, 0.0], abs=1e-12)  # 24 x 1/6

    @pytest.mark.parametrize("shape, seed", [((2, 2, 2, 2), 1), ((3, 2, 3, 2), 2), ((2, 3, 2, 4), 3)])
    def test_no_relabelings_skips_orbit_bookkeeping(self, monkeypatch, shape, seed):
        # reference: the same game carrying only the identity, solved over
        # one-point orbits through the orbit bookkeeping
        from nsgames import dump_game, load_game, optimize

        game = load_game(dump_game(random_game(shape, rand.generator(seed))))
        nX, nY, nA, nB = shape
        identity = (np.arange(nX)[None], np.arange(nY)[None], np.tile(np.arange(nA), (1, nX, 1)),
                    np.tile(np.arange(nB), (1, nY, 1)))
        carrying = FiniteGame(game.win, game.dist, symmetry=(identity, 1))
        expected, expected_corr = ns_value(carrying)

        def refuse(stage):
            raise AssertionError("orbit search for a game without relabelings")

        monkeypatch.setattr(optimize, "_lp_labels", refuse)
        assert not game.symmetry
        value, corr = ns_value(game)
        assert value == expected
        assert corr.p.tobytes() == expected_corr.p.tobytes()

    def test_corrupted_group_raises(self):
        from nsgames import NumericError

        game = chsh()
        # the identity and flipping a at x = 0: a closed group, but not of CHSH
        group = (np.array([[0, 1], [0, 1]]), np.array([[0, 1], [0, 1]]),
                 np.array([[[0, 1], [0, 1]], [[1, 0], [0, 1]]]),
                 np.array([[[0, 1], [0, 1]], [[0, 1], [0, 1]]]))
        corrupted = FiniteGame(game.win, game.dist, symmetry=(group, 1))
        with pytest.raises(NumericError, match="no-signalling"):
            ns_value(corrupted)

    def test_group_not_closed_raises(self):
        # the identity and a relabeling of order 4 without its square: least
        # images over them are not constant along its 4-cycles
        from test_games import point_images

        from nsgames import PreconditionError

        game = chsh()
        group = relabelings(game)
        images = point_images(group, game.shape)
        squares = np.take_along_axis(images, images, axis=1)
        order4 = [e for e in range(len(images))
                  if not np.array_equal(squares[e], images[0])
                  and np.array_equal(np.take(squares[e], squares[e]), images[0])]
        record = tuple(part[[0, order4[0]]] for part in group)
        with pytest.raises(PreconditionError, match="not a closed group"):
            ns_value(FiniteGame(game.win, game.dist, symmetry=(record, 1)))


def orbit_iterates():
    """Every embed and memory iterate, n <= 2, of the bases with relabelings,
    one of them with one-letter alphabets, and memory(chsh)^3."""
    from test_games import symmetric_bases

    bases = symmetric_bases() + [all_win(2, 2, 2, 2), never_win(2, 2, 2, 2), all_win(1, 2, 3, 1)]
    for i, base in enumerate(bases):
        for make in (embed, memory_game):
            for n in (1, 2):
                yield pytest.param(iterate(make(base), n), id=f"{make.__name__}-{i}-{n}")
    yield pytest.param(iterate(memory_game(chsh()), 3), id="memory-chsh-3")


def symmetric_iterates():
    """Every ``orbit_iterates()`` case within the kernel's reach, and iid chsh^3."""
    for param in orbit_iterates():
        stage, = param.values
        if stage.nA ** stage.nX <= 8 ** 8:
            yield param
    yield pytest.param(iterate(embed(chsh()), 3), id="embed-chsh-3")


@pytest.mark.parametrize("stage", list(symmetric_iterates()))
def test_symmetry_reduction_keeps_answers(stage):
    # the same game without relabelings: unreduced scan and full LP
    plain = FiniteGame(stage.win, stage.dist)
    assert stage.symmetry and not plain.symmetry
    assert local_value(stage) == local_value(plain)
    if stage.win.size <= 4096:
        assert ns_value(stage)[0] == pytest.approx(ns_value(plain)[0], abs=1e-9)


@pytest.mark.parametrize("stage", list(orbit_iterates()))
def test_product_orbits_match_stacked_search(stage):
    from nsgames.optimize import _lp_orbits

    assert stage.symmetry
    for product, stacked in zip(_lp_orbits(stage), stacked_lp_orbits(stage)):
        reference = np.unique(stacked, return_inverse=True, return_counts=True)
        assert all(np.array_equal(mine, theirs) for mine, theirs in zip(product, reference))
        assert product[1].dtype == np.int32


def test_product_orbits_fast_and_small():
    import scipy.optimize  # noqa: F401 - time the solve, not the import

    stage = iterate(embed(all_win(2, 2, 3, 3)), 2)  # 10,366 lifted relabelings
    start = time.perf_counter()  # timed untraced: tracing doubles the call
    value, _ = ns_value(stage)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        ns_value(stage)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1.0
    assert elapsed < 0.1 and peak < 50 * 10 ** 6


def canonical_rows(game, levels):
    """The rows of ``optimize._chain_rows`` over the first ``levels`` questions."""
    from nsgames.optimize import _chain_rows

    return next(itertools.islice(_chain_rows(game), levels - 1, None))[1]


def brute_force_canonical_rows(game):
    """Reference for ``canonical_rows``: every element of the product group
    G^width, lifted to Alice's questions and answers, tested against every
    prefix f(0..levels-1) at every level k of the lex-leader rule, for as
    many levels, up to nX, as keep at most 8^5 prefixes or fit 2^22 (element,
    prefix) pairs.  Base elements that act alike on Alice are kept once, and
    the elements are taken in chunks of at most 2^22 pairs.  Returns (levels,
    rows)."""
    from nsgames.strategies import map_digits

    (px, _, sa, _), width = game.symmetry
    n_x, n_a = px.shape[1], sa.shape[2]
    alice = np.unique(np.concatenate([px, sa.reshape(len(sa), -1)], axis=1), axis=0)
    px, sa = alice[:, :n_x].astype(np.int16), alice[:, n_x:].reshape(-1, n_x, n_a).astype(np.int16)
    dx = map_digits(np.arange(game.nX), width, n_x)
    da = map_digits(np.arange(game.nA), width, n_a)
    choice = np.indices((len(px),) * width).reshape(width, -1)  # (width, elements)
    lifted_x = sum(px[c][:, dx[:, i]] * n_x ** (width - 1 - i)
                   for i, c in enumerate(choice))  # (elements, nX)
    lifted_a = sum(sa[c][:, dx[:, i, None], da[:, i]] * n_a ** (width - 1 - i)
                   for i, c in enumerate(choice))  # (elements, nX, nA)
    levels = game.nX
    while game.nA ** levels > max(8 ** 5, 2 ** 22 // len(lifted_x)):
        levels -= 1
    prefixes = map_digits(np.arange(game.nA ** levels), levels, game.nA)
    kept = np.ones(len(prefixes), dtype=bool)
    chunk = max(1, 2 ** 22 // len(prefixes))
    for start in range(0, len(lifted_x), chunk):
        chunk_x, chunk_a = lifted_x[start:start + chunk], lifted_a[start:start + chunk]
        fixes_earlier = np.ones((len(chunk_x), len(prefixes)), dtype=bool)  # answers at 0..k-1
        for k in range(levels):
            fixing = (chunk_x[:, :k + 1] == np.arange(k + 1)).all(axis=1)
            image = chunk_a[:, k, prefixes[:, k]]  # (elements, prefixes)
            kept &= ~(fixing[:, None] & fixes_earlier & (image < prefixes[:, k])).any(axis=0)
            fixes_earlier &= image == prefixes[:, k]
    return levels, np.flatnonzero(kept)


@pytest.mark.parametrize("stage", list(orbit_iterates()) + [
    pytest.param(iterate(embed(chsh()), 3), id="embed-chsh-3")])
def test_chain_rows_match_product_group(stage):
    # within the kernel's reach, up to the split that the scan uses
    from nsgames.optimize import _scan_rows

    levels, rows = brute_force_canonical_rows(stage)
    assert np.array_equal(canonical_rows(stage, levels), rows)
    assert stage.nA ** stage.nX > 8 ** 8 or levels >= len(_scan_rows(stage)[1])


def test_chain_stops_refining_over_entry_budget(monkeypatch):
    from nsgames import optimize

    stage = iterate(memory_game(chsh()), 2)  # 3 x 8 x 2 mask and minima entries per prefix
    full = canonical_rows(stage, 4)
    monkeypatch.setattr(optimize, "ENTRY_BUDGET", 48 * 2)  # stops at level 2, 4 prefixes
    coarse = canonical_rows(stage, 4)
    assert full.size < coarse.size < 8 ** 4 and np.isin(full, coarse).all()
    assert np.array_equal(coarse, np.unique(coarse))
    assert local_value(stage) == local_value(FiniteGame(stage.win, stage.dist))


@pytest.mark.parametrize("base, make, n, split, maps", [
    (0, memory_game, 2, 5, 512 * 8 ** 3), (0, embed, 3, 5, 512 * 8 ** 3), (0, memory_game, 1, 3, 4 * 4),
    (1, embed, 2, 4, 64 * 4 ** 5), (1, memory_game, 1, 4, 64 * 4 ** 5), (2, memory_game, 1, 2, 324),
    (3, memory_game, 2, 4, 8 ** 8), (4, memory_game, 2, 4, 8 ** 8)])
def test_scan_split_follows_the_chain(base, make, n, split, maps):
    # chsh: the levels past the half cut while balanced; chained3: level 5
    # keeps 256 = 4 x 64 rows; ternary: level 3 cuts, to more rows than the
    # 9 maps after it; the seeded bases' relabelings move Bob alone
    from test_games import symmetric_bases

    from nsgames.optimize import _scan_rows

    stage = iterate(make(symmetric_bases()[base]), n)
    rows, keeps = _scan_rows(stage)
    got = len(keeps)
    assert (got, rows.size * stage.nA ** (stage.nX - got)) == (split, maps)


def test_trivial_group_splits_at_half():
    from nsgames.optimize import _scan_rows

    plain = random_game((5, 2, 3, 2), rand.generator(7))
    identity = (np.arange(5)[None], np.arange(2)[None], np.tile(np.arange(3), (1, 5, 1)),
                np.tile(np.arange(2), (1, 2, 1)))
    game = FiniteGame(plain.win, plain.dist, symmetry=(identity, 1))
    rows, keeps = _scan_rows(game)
    assert len(keeps) == 2 and np.array_equal(rows, np.arange(9))
    assert local_value(game) == local_value(plain)


@pytest.mark.parametrize("make, n", [(memory_game, 2), (embed, 3)])
def test_loc_budget_still_admits(make, n):
    stage = iterate(make(chsh()), n)
    assert stage.symmetry
    value, (f, g) = local_value(stage)
    assert 0 < value < 1 and len(f) == stage.nX and len(g) == stage.nY


@pytest.mark.parametrize("make, n", [(memory_game, 3), (embed, 4)])
def test_loc_budget_still_refuses_fast(make, n):
    stage = iterate(make(chsh()), n)  # 16^16 maps, 16^15 over each leading f(0)
    start = time.perf_counter()
    with pytest.raises(TooLargeError, match="loc enumeration"):
        local_value(stage)
    assert time.perf_counter() - start < 0.1


class TestLocalValue:
    def test_chsh(self):
        value, (f, g) = local_value(chsh())
        assert value == 0.75
        assert f == (0, 0) and g == (0, 0)  # lowest-index optimum

    def test_chsh_brute_force_oracle(self):
        assert brute_force_local(chsh()) == pytest.approx(0.75, abs=1e-15)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.tuples(st.integers(1, 3), st.integers(1, 3),
                           st.integers(1, 3), st.integers(1, 3)))
    def test_matches_brute_force(self, seed, shape):
        game = random_game(shape, rand.generator(seed))
        value, (f, g) = local_value(game)
        assert value == pytest.approx(brute_force_local(game), abs=1e-12)
        # certificate achieves the value
        direct = sum(game.dist[x, y]
                     for x in range(shape[0]) for y in range(shape[1])
                     if game.win[x, y, f[x], g[y]])
        assert direct == pytest.approx(value, abs=1e-12)

    def test_cap(self):
        game = all_win(30, 1, 2, 1)
        with pytest.raises(TooLargeError, match="ns_value"):
            local_value(game)

    def test_top_strategies_ordering(self, rng):
        game = random_game((2, 2, 2, 2), rng)
        ranked = top_deterministic_strategies(game, 5)
        values = [v for _, _, v in ranked]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(local_value(game)[0], abs=1e-12)


class TestMeasurementUpdate:
    def test_diagonal_exact(self):
        ops = np.stack([np.diag([1.0, 0.0]).astype(complex),
                        np.diag([0.0, 1.0]).astype(complex)])
        povm = seesaw_measurement_update(ops, np.stack([np.eye(2) / 2] * 2).astype(complex))
        assert np.allclose(povm[0], np.diag([1.0, 0.0]))
        objective = np.einsum("bij,bji->", ops, povm).real
        assert objective == pytest.approx(2.0, abs=1e-12)

    def test_pauli_z_halves(self):
        ops = np.stack([PAULI_Z / 2, -PAULI_Z / 2])
        povm = seesaw_measurement_update(ops, np.stack([np.eye(2) / 2] * 2).astype(complex))
        assert np.allclose(povm[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_equal_operators_keep_input(self, rng):
        op = np.diag([0.3, 0.7]).astype(complex)
        ops = np.stack([op, op])
        current = np.stack(list(rand.random_povm_effects(2, 2, rng)))
        updated = seesaw_measurement_update(ops, current)
        before = np.einsum("bij,bji->", ops, current).real
        after = np.einsum("bij,bji->", ops, updated).real
        assert after == pytest.approx(before, abs=1e-12)

    def test_single_outcome(self):
        ops = np.stack([np.diag([0.2, 0.4]).astype(complex)])
        povm = seesaw_measurement_update(ops, np.stack([np.eye(2, dtype=complex)]))
        assert np.allclose(povm[0], np.eye(2))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 5))
    def test_multi_outcome_never_decreases(self, seed, k):
        gen = rand.generator(seed)
        dim = 3
        ops = np.stack([
            (lambda m: (m + m.conj().T) / 2)(
                gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim)))
            for _ in range(k)
        ])
        current = rand.random_povm_effects(dim, k, gen)
        updated = seesaw_measurement_update(ops, current)
        before = np.einsum("bij,bji->", ops, current).real
        after = np.einsum("bij,bji->", ops, updated).real
        assert after >= before - 1e-12
        # still a valid POVM
        total = updated.sum(axis=0)
        assert max_abs(total - np.eye(dim)) <= 1e-9


def _random_hermitian(gen, shape, dim):
    m = gen.standard_normal((*shape, dim, dim)) + 1j * gen.standard_normal((*shape, dim, dim))
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _objective(ops, povm):
    return np.einsum("...bij,...bji->...", ops, povm).real


class TestBatchedStep:
    @pytest.mark.parametrize("k", [2, 3])
    def test_stack_matches_rows(self, k):
        gen = rand.generator(5)
        dim = 3
        ops = _random_hermitian(gen, (2, 3, k), dim)
        current = np.stack([np.stack([rand.random_povm_effects(dim, k, gen) for _ in range(3)])
                            for _ in range(2)])
        if k == 3:
            # Row (0, 0): the best projective POVM in an eigenbasis of some R_b
            # beats the greedy result, so the guard keeps it; row (0, 1) takes
            # the greedy result.
            projective = []
            for r in ops[0, 0]:
                kets = np.linalg.eigh(r)[1].T
                for assign in itertools.product(range(k), repeat=dim):
                    povm = np.zeros((k, dim, dim), complex)
                    for ket, b in zip(kets, assign):
                        povm[b] += np.outer(ket, ket.conj())
                    projective.append(povm)
            best = max(projective, key=lambda povm: _objective(ops[0, 0], povm))
            current[0, 0] = best
            trivial = np.stack([np.eye(dim)] + [np.zeros((dim, dim))] * (k - 1)).astype(complex)
            assert _objective(ops[0, 0], seesaw_measurement_update(ops[0, 0], trivial)) \
                < _objective(ops[0, 0], best) - 1e-3
        stacked = seesaw_measurement_update(ops, current)
        assert stacked.shape == ops.shape
        for i, j in itertools.product(range(2), range(3)):
            row = seesaw_measurement_update(ops[i, j], current[i, j])
            assert np.array_equal(stacked[i, j], row)
        if k == 3:
            assert np.array_equal(stacked[0, 0], current[0, 0])
            assert not np.allclose(stacked[0, 1], current[0, 1])
            assert _objective(ops[0, 1], stacked[0, 1]) > _objective(ops[0, 1], current[0, 1])

    def test_two_outcome_optimum(self):
        gen = rand.generator(1)
        for dim in (1, 2, 4):
            ops = _random_hermitian(gen, (6, 2), dim)
            povm = seesaw_measurement_update(ops, np.zeros_like(ops))
            vals = np.linalg.eigvalsh(ops[:, 0] - ops[:, 1])
            optimum = np.trace(ops[:, 1], axis1=-2, axis2=-1).real + np.clip(vals, 0, None).sum(-1)
            assert np.allclose(_objective(ops, povm), optimum, rtol=0, atol=1e-12)
            assert max_abs(povm.sum(axis=1) - np.eye(dim)) <= 1e-12

    def test_state_stack_matches_rows(self):
        gen = rand.generator(2)
        operators = _random_hermitian(gen, (5,), 4)
        operators[1] = np.eye(4)
        stacked = seesaw_state_update(operators)
        for operator, psi in zip(operators, stacked):
            assert np.array_equal(psi, seesaw_state_update(operator))
        assert np.allclose(stacked[1], [1, 0, 0, 0])


class TestStateUpdate:
    def test_diagonal(self):
        psi = seesaw_state_update(np.diag([3.0, 1.0, 1.0, 1.0]).astype(complex))
        assert np.allclose(psi, [1, 0, 0, 0])

    def test_identity_tie_break(self):
        psi = seesaw_state_update(np.eye(4, dtype=complex))
        assert np.allclose(psi, [1, 0, 0, 0])

    def test_chsh_operator_top_eigenvalue(self):
        # at the optimal projective measurements the game operator's top
        # eigenvalue is cos^2(pi/8), attained by a maximally entangled state
        alice = [pauli_pvm(PAULI_Z), pauli_pvm(PAULI_X)]
        bob = [pauli_pvm((PAULI_Z + PAULI_X) / np.sqrt(2)),
               pauli_pvm((PAULI_Z - PAULI_X) / np.sqrt(2))]
        game = chsh()
        operator = np.zeros((4, 4), dtype=complex)
        for x in range(2):
            for y in range(2):
                for a in range(2):
                    for b in range(2):
                        if game.win[x, y, a, b]:
                            operator += game.dist[x, y] * kron(
                                alice[x].effects[a], bob[y].effects[b])
        psi = seesaw_state_update(operator)
        value = float(np.real(psi.conj() @ operator @ psi))
        assert value == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-9)


def looped_deterministic_effects(strategy, outcomes, dim):
    """Reference for the see-saw's deterministic seeds: E(a|x) = [a = f(x)] I."""
    effects = np.zeros((len(strategy), outcomes, dim, dim), dtype=complex)
    for x, a in enumerate(strategy):
        effects[x, a] = np.eye(dim)
    return effects


@pytest.mark.parametrize("shape, dim", [((2, 2, 2, 2), 2), ((3, 2, 3, 4), 3), ((2, 3, 1, 2), 1)])
def test_deterministic_seeds_match_loop(shape, dim):
    # restart 0 is local_value's pair, and no other restart is deterministic
    from nsgames.optimize import _seed_strategies

    game = random_game(shape, rand.generator(3), uniform_dist=True)
    f, g = local_value(game)[1]
    alice, bob, psi = _seed_strategies(game, dim, 8, 0)
    assert len(psi) == 1 + 8 - 4
    assert alice[0].tobytes() == looped_deterministic_effects(f, game.nA, dim).tobytes()
    assert bob[0].tobytes() == looped_deterministic_effects(g, game.nB, dim).tobytes()
    assert psi[0, 0] == 1.0 and not psi[0, 1:].any()


def looped_unitary(dim, rng):
    """Reference for ``rand.random_unitary``: one QR per matrix, real parts drawn first."""
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    diag = np.diagonal(r).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    return q * (diag / np.abs(diag))


def looped_noisy_basis_effects(dim, outcomes, eta, rng):
    """Reference for one seed's noisy-basis POVM: a rotated basis grouped into
    ``outcomes`` blocks, mixed with white noise."""
    unitary = looped_unitary(dim, rng)
    effects = np.zeros((outcomes, dim, dim), dtype=complex)
    for a, idx in enumerate(np.array_split(np.arange(dim), outcomes)):
        for i in idx:
            effects[a] += np.outer(unitary[:, i], unitary[:, i].conj())
    return eta * effects + (1.0 - eta) * np.eye(dim, dtype=complex)[None] / outcomes


def looped_random_seeds(game, dim, keys):
    """Reference for the see-saw's random seeds, one seed and one matrix at a time."""
    strategies = []
    for key in keys:
        rng = rand.generator(key)
        eta_a, eta_b = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
        alice = np.stack([looped_noisy_basis_effects(dim, game.nA, eta_a, rng)
                          for _ in range(game.nX)])
        bob = np.stack([looped_noisy_basis_effects(dim, game.nB, eta_b, rng)
                        for _ in range(game.nY)])
        strategies.append((alice, bob, rand.random_state(dim * dim, rng)))
    return strategies


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_random_unitary_matches_loop(dim):
    gen, ref = rand.generator(dim), rand.generator(dim)
    for _ in range(3):
        assert rand.random_unitary(dim, gen).tobytes() == looped_unitary(dim, ref).tobytes()


def test_stacked_unitaries_match_loop():
    gauss = rand.generator(4).standard_normal((3, 2, 2, 4, 4))
    stacked = rand.random_unitaries(gauss[..., 0, :, :] + 1j * gauss[..., 1, :, :])
    ref = rand.generator(4)
    looped = np.array([[looped_unitary(4, ref) for _ in range(2)] for _ in range(3)])
    assert stacked.tobytes() == looped.tobytes()


@pytest.mark.parametrize("game, dim, seeds", [
    (chsh(), 2, 20), (chsh(), 1, 3), (product_game(chsh(), chsh()), 4, 20),
    (iterate(memory_game(chsh()), 2), 4, 20), (random_game((3, 3, 3, 3), rand.generator(7)), 2, 6),
    (random_game((1, 2, 5, 3), rand.generator(8)), 3, 5), (never_win(12, 1, 6, 1), 2, 4)])
def test_random_seeds_match_loop(game, dim, seeds):
    # outcomes > d, d = 1, nX = 1; 6^12 maps are over the loc budget, so
    # every seed of never_win(12, 1, 6, 1) is random
    from nsgames.errors import WORK_BUDGET
    from nsgames.optimize import _seed_strategies

    alice, bob, psi = _seed_strategies(game, dim, seeds, 11)
    n_random = seeds if game.nA ** game.nX > WORK_BUDGET else seeds - seeds // 2
    assert len(psi) == n_random + (n_random < seeds)
    looped = looped_random_seeds(game, dim, rand.derive_keys(11, seeds)[seeds - n_random:])
    for stacked, parts in zip((alice, bob, psi), zip(*looped)):
        assert stacked[-n_random:].tobytes() == np.stack(parts).tobytes()


class TestSeesaw:
    def test_chsh_reaches_tsirelson(self):
        state = qs_seesaw(chsh(), dim=2, seeds=20, max_sweeps=200, rng_seed=0)
        assert state.value >= 0.8535
        assert state.value <= np.cos(np.pi / 8) ** 2 + 1e-9

    def test_dimension_one_dominates_local(self, rng):
        for _ in range(5):
            game = random_game((2, 2, 2, 2), rng)
            loc, _ = local_value(game)
            state = qs_seesaw(game, dim=1, seeds=4, max_sweeps=50, rng_seed=3)
            assert state.value >= loc - 1e-9

    def test_never_win_is_zero(self):
        state = qs_seesaw(never_win(2, 2, 2, 2), dim=2, seeds=4,
                          max_sweeps=20, rng_seed=0)
        assert state.value == 0.0

    def test_monotone_sweeps(self, rng):
        cases = [(random_game((2, 2, 2, 2), rng), 2) for _ in range(5)]
        cases.append((random_game((3, 3, 3, 3), rng, win_probability=0.25), 3))
        for game, dim in cases:
            state = qs_seesaw(game, dim=dim, seeds=6, max_sweeps=40, rng_seed=11)
            for trace in state.all_histories:
                diffs = np.diff(np.array(trace))
                assert diffs.min(initial=0.0) >= -1e-12

    def test_reproducible(self):
        game = chsh()
        first = qs_seesaw(game, dim=2, seeds=6, max_sweeps=30, rng_seed=42)
        second = qs_seesaw(game, dim=2, seeds=6, max_sweeps=30, rng_seed=42)
        assert first.value == second.value
        assert first.all_histories == second.all_histories

    def test_certificate_is_a_strategy(self):
        from nsgames import from_qs

        game = chsh()
        state = qs_seesaw(game, dim=2, seeds=8, max_sweeps=60, rng_seed=1)
        corr = from_qs(state.alice, state.bob, state.psi)
        assert payoff(game, corr) == pytest.approx(state.value, abs=1e-9)

    def test_pinned_three_outcome_game(self):
        # Sweep counts and values of the per-seed see-saw this batched one
        # replaced, for its restarts 0, 3, 4 and 5 (the loc optimum and the
        # random ones; its restarts 1 and 2 were lower-ranked deterministic).
        game = random_game((3, 3, 3, 3), rand.generator(7), win_probability=0.25)
        state = qs_seesaw(game, dim=3, seeds=6, max_sweeps=200, rng_seed=0)
        assert [len(h) - 1 for h in state.all_histories] == [1, 4, 2, 2]
        finals = [h[-1] for h in state.all_histories]
        assert np.allclose(finals, [0.8185688959945294, 0.8185688959945294, 0.7369338542277886,
                                    0.7369338542277883], rtol=0, atol=1e-12)
        assert state.value == pytest.approx(0.8185688959945294, abs=1e-12)

    @pytest.mark.parametrize("game, seeds, restarts", [
        (chsh(), 1, 1), (chsh(), 2, 2), (chsh(), 5, 4), (chsh(), 20, 11),
        (never_win(12, 1, 6, 1), 4, 4)])
    def test_restart_count(self, game, seeds, restarts):
        # the loc optimum and seeds - seeds // 2 random restarts; all random
        # for one seed or a game over the loc budget
        state = qs_seesaw(game, dim=2, seeds=seeds, max_sweeps=3)
        assert len(state.all_histories) == restarts

    def test_seeding_does_not_rank(self, monkeypatch):
        from nsgames import optimize

        def refuse(*args):
            raise AssertionError("ranking of Alice's maps")

        monkeypatch.setattr(optimize, "top_deterministic_strategies", refuse)
        game = iterate(memory_game(chsh()), 2)
        state = qs_seesaw(game, dim=2, seeds=20)
        assert state.all_histories[0][0] == local_value(game)[0] == 0.96875
        assert state.value >= 0.96875

    @pytest.mark.parametrize("seeds, max_sweeps", [(0, 10), (-2, 10), (4, -1)])
    def test_invalid_budget_raises(self, seeds, max_sweeps):
        with pytest.raises(ValidationError):
            qs_seesaw(chsh(), dim=2, seeds=seeds, max_sweeps=max_sweeps)

    def test_product_game_seesaw_runs(self, rng):
        game = product_game(chsh(), all_win(1, 1, 2, 2))
        state = qs_seesaw(game, dim=2, seeds=4, max_sweeps=30, rng_seed=5)
        assert state.value >= 0.75 - 1e-9

    @pytest.mark.parametrize("dim, seeds, what", [(100, 20, "sweep"), (2, 10 ** 9, "sweep"),
                                                  (40, 1, "sweep"), (2, 600_000, "strategies")])
    def test_over_budget_refused_before_seeding(self, dim, seeds, what):
        start = time.perf_counter()
        with pytest.raises(TooLargeError, match=what):
            qs_seesaw(chsh(), dim=dim, seeds=seeds)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("game, expected", [
        (product_game(chsh(), chsh()), 0.6704311416336205),
        (iterate(memory_game(chsh()), 2), 0.96875)])
    def test_dimension_four_values_kept(self, game, expected):
        state = qs_seesaw(game, dim=4, seeds=20)
        assert state.value == pytest.approx(expected, abs=1e-12)

