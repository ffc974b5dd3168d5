import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsgames import (
    all_win,
    chsh,
    embed,
    iterate,
    local_value,
    memory_game,
    never_win,
    random_game,
    relabelings,
    strategies,
)
from nsgames.optimize import _payoff_tensor, _scan_rows
from nsgames.strategies import (
    argmax_strategy,
    best_reply,
    halves,
    kernel_weights,
    map_digits,
    plane_scores,
    scan_scores,
    top_strategies,
)


def payoff_tensor(win, dist):
    return np.einsum("xy,xyab->xayb", dist, win.astype(float))


def every_row(tensor):
    """(rows, keeps) that scan every Alice map: all rows at the half split."""
    split = tensor.shape[0] // 2
    return np.arange(tensor.shape[1] ** split), [slice(None)] * split


def prefix_tree(rows, split, n_a):
    """The keeps that pick the sorted ``rows`` level by level: at level k,
    the index among the children of level k - 1 of each distinct prefix."""
    keeps, kept = [], np.zeros(1, dtype=np.int64)
    for k in range(1, split + 1):
        level = np.unique(rows // n_a ** (split - k))
        keeps.append(np.searchsorted(kept, level // n_a) * n_a + level % n_a)
        kept = level
    return keeps


def unpruned(tensor, rows, keeps):
    """``argmax_strategy`` without its bounds: every row against every map."""
    first, second = halves(tensor, keeps)
    scores = np.concatenate([block.copy() for _, block in scan_scores(first, second)])
    i, j = np.unravel_index(np.argmax(scores), scores.shape)
    f = tuple(map_digits(int(rows[i]) * scores.shape[1] + int(j), *tensor.shape[:2]).tolist())
    g, value = best_reply(tensor, f)
    return value, f, g


def brute_force_ranking(tensor):
    """Every Alice map in index order, scored over all (f, g) pairs, as
    (score, f, g) with g the lowest-index best reply."""
    n_x, n_a, n_y, n_b = tensor.shape
    ranking = []
    for f in itertools.product(range(n_a), repeat=n_x):
        best = None
        for g in itertools.product(range(n_b), repeat=n_y):
            score = sum(tensor[x, f[x], y, g[y]] for x in range(n_x) for y in range(n_y))
            if best is None or score > best[0]:
                best = (score, f, g)
        ranking.append(best)
    return ranking


def random_case(seed, shape, dyadic_bits):
    rng = np.random.default_rng(seed)
    win = rng.random(shape) < rng.uniform(0.2, 0.8)
    n_q = shape[0] * shape[1]
    if dyadic_bits:
        dist = rng.multinomial(2 ** dyadic_bits, np.full(n_q, 1.0 / n_q)) / 2 ** dyadic_bits
    else:
        dist = rng.random(n_q) + 0.1
        dist /= dist.sum()
    return payoff_tensor(win, dist.reshape(shape[:2]))


shapes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=shapes, bits=st.sampled_from([2, 6, 10, 16]))
    def test_dyadic_dist_exact(self, seed, shape, bits):
        # Dyadic weights take the integer path (int8 up to int32 by the
        # denominator), where the ranking is exact: the brute force sums
        # dyadic numbers exactly too.
        tensor = random_case(seed, shape, bits)
        assert kernel_weights(tensor).dtype.kind == "i"
        ranking = brute_force_ranking(tensor)
        order = sorted(range(len(ranking)), key=lambda k: (-ranking[k][0], k))
        value, f, g = argmax_strategy(tensor, *every_row(tensor))
        assert (value, f, g) == ranking[order[0]]
        count = min(5, len(ranking))
        assert top_strategies(tensor, count) == [ranking[k] for k in order[:count]]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=shapes, data=st.data())
    def test_rows_restrict_the_scan(self, seed, shape, data):
        # only maps whose first ``split`` digits form a row in ``rows`` compete;
        # ties to the lowest index
        tensor = random_case(seed, shape, 10)
        split = data.draw(st.integers(shape[0] // 2, shape[0]))
        rows = sorted(data.draw(st.sets(st.integers(0, shape[2] ** split - 1), min_size=1)))
        prefixes = {tuple(d) for d in map_digits(np.array(rows), split, shape[2]).tolist()}
        ranking = brute_force_ranking(tensor)
        kept = [k for k, (_, f, _) in enumerate(ranking) if f[:split] in prefixes]
        best = min(kept, key=lambda k: (-ranking[k][0], k))
        rows = np.array(rows)
        assert argmax_strategy(tensor, rows, prefix_tree(rows, split, shape[2])) == ranking[best]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=shapes)
    def test_random_dist_float(self, seed, shape):
        tensor = random_case(seed, shape, 0)
        assume(kernel_weights(tensor).dtype == np.float64)  # not one question or no wins
        ranking = brute_force_ranking(tensor)
        scores = sorted((r[0] for r in ranking), reverse=True)
        value, f, g = argmax_strategy(tensor, *every_row(tensor))
        assert value == pytest.approx(scores[0], abs=1e-12)
        assert ranking[int(np.ravel_multi_index(f, (shape[2],) * shape[0]))][0] == \
            pytest.approx(value, abs=1e-12)
        count = min(5, len(ranking))
        top = top_strategies(tensor, count)
        for (v, f, g), expected in zip(top, scores):
            assert v == pytest.approx(expected, abs=1e-12)
            direct = sum(tensor[x, f[x], y, g[y]]
                         for x in range(shape[0]) for y in range(shape[1]))
            assert direct == pytest.approx(v, abs=1e-12)


@pytest.fixture
def one_row_blocks(monkeypatch):
    """Scan one row per block, so that every row after the first is bounded."""
    monkeypatch.setattr(strategies, "_BLOCK_BYTES", 1)


@pytest.fixture
def scanned(monkeypatch):
    """[rows, maps] that each ``scan_scores`` call of ``argmax_strategy`` scans."""
    shapes = []

    def record(first, second):
        shapes.append([0, second.shape[2]])
        for start, scores in scan_scores(first, second):
            shapes[-1][0] += len(scores)
            yield start, scores
    monkeypatch.setattr(strategies, "scan_scores", record)
    return shapes


class TestPruning:
    """``argmax_strategy`` scans the rows after its first block only where
    their bounds reach an incumbent; every answer must be the unpruned scan's,
    bit for bit on both paths."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 3),
                           st.integers(1, 3)),
           bits=st.sampled_from([0, 10]), signed=st.booleans(),
           block_bytes=st.sampled_from([1, 100, 1 << 18]), data=st.data())
    def test_same_pair_as_unpruned_scan(self, seed, shape, bits, signed, block_bytes, data):
        tensor = random_case(seed, shape, bits)
        if signed:
            tensor *= np.random.default_rng(seed).choice([-1.0, 1.0], tensor.shape)
        split = data.draw(st.integers(shape[0] // 2, shape[0]))
        rows = sorted(data.draw(st.sets(st.integers(0, shape[2] ** split - 1), min_size=1)))
        rows = np.array(rows)
        keeps = prefix_tree(rows, split, shape[2])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(strategies, "_BLOCK_BYTES", block_bytes)
            assert argmax_strategy(tensor, rows, keeps) == unpruned(tensor, rows, keeps)

    def test_float_bounds_add_in_scan_order(self, one_row_blocks):
        # Map 0 of the second part dominates, so each row's bound is its score
        # there.  numpy sums 9 contiguous terms pairwise, and summed that way
        # the bound of row 1, the best, falls below the score the scan adds in
        # order: such a bound would prune the optimum.
        tensor = np.random.default_rng(8).random((2, 2, 9, 2)) / 18
        tensor[1, 1:] = 0.0
        tensor[0, 0] *= 0.5
        first, second = halves(tensor, [slice(None)])
        terms = (first[1] + second[..., 0]).max(axis=0)
        in_order = functools.reduce(operator.add, terms)
        assert terms.sum() < in_order == plane_scores(first, second)[1, 0]
        rows, keeps = every_row(tensor)
        assert argmax_strategy(tensor, rows, keeps)[1] == (1, 0)
        assert argmax_strategy(tensor, rows, keeps) == unpruned(tensor, rows, keeps)

    def test_signed_tensor(self, one_row_blocks):
        tensor = np.random.default_rng(3).normal(size=(3, 3, 9, 2))
        ranking = brute_force_ranking(tensor)
        best = max(range(len(ranking)), key=lambda k: (ranking[k][0], -k))
        rows, keeps = every_row(tensor)
        value, f, g = argmax_strategy(tensor, rows, keeps)
        assert (f, g) == ranking[best][1:] and value == pytest.approx(ranking[best][0], abs=1e-12)
        assert (value, f, g) == unpruned(tensor, rows, keeps)

    def test_tie_in_a_row_before_the_incumbent(self, one_row_blocks, scanned):
        # Row 0 is the first block (best 8).  Of the later rows, row 2 has the
        # larger bound (10 against 9) and its best score, 9, is the incumbent,
        # which prunes map 0 (bound 8); map 5, in row 1, ties it and wins by index.
        tensor = np.array([[[[2, 0], [1, 1]], [[2, 0], [0, 2]], [[0, 3], [1, 3]]],
                           [[[0, 1], [3, 1]], [[0, 2], [2, 1]], [[3, 0], [2, 2]]]]) / 4
        first, second = halves(tensor, [slice(None)])
        upper = plane_scores(second.max(axis=2)[None], first.transpose(1, 2, 0))
        assert upper.tolist() == [[9, 9, 10]]
        assert plane_scores(first, second).tolist() == [[6, 5, 8], [5, 5, 9], [8, 9, 8]]
        result = argmax_strategy(tensor, *every_row(tensor))
        assert result[:2] == (2.25, (1, 2)) and result == brute_force_ranking(tensor)[5]
        assert scanned == [[1, 3], [2, 2]]


class TestCut:
    """How much the bounds prune: the scans made, pinned, and the answer still
    that of the unpruned scan over the same rows."""

    def check(self, game):
        tensor, (rows, keeps) = _payoff_tensor(game), _scan_rows(game)
        value, (f, g) = local_value(game)
        assert (value, f, g) == unpruned(tensor, rows, keeps)
        return len(rows), tensor.shape[1] ** (tensor.shape[0] - len(keeps))

    def test_memory_chsh_squared(self, scanned):
        assert self.check(iterate(memory_game(chsh()), 2)) == (512, 512)
        assert scanned == [[64, 512], [148, 336]]

    def test_iid_chsh_cubed_prunes_nothing(self, scanned):
        assert self.check(iterate(embed(chsh()), 3)) == (512, 512)
        assert scanned == [[64, 512], [448, 512]]

    @pytest.mark.parametrize("n, expected", [(2, [[8, 4096], [620, 625]]), (3, [[8, 4096]])],
                             ids=["memory", "iid"])
    def test_random_base_without_relabelings(self, scanned, n, expected):
        # memory(R)^2 and iid(R)^3 scan 4096 rows of 4096 maps unpruned
        base = random_game((2, 2, 2, 2), np.random.default_rng(3), uniform_dist=True)
        assert len(relabelings(base)) == 1
        game = iterate(memory_game(base), 2) if n == 2 else iterate(embed(base), 3)
        assert self.check(game) == (4096, 4096)
        assert scanned == expected


class TestTies:
    def test_all_win_lowest_index(self):
        tensor = payoff_tensor(all_win(3, 2, 3, 2).win, np.full((3, 2), 1 / 6))
        value, f, g = argmax_strategy(tensor, *every_row(tensor))
        assert (value, f, g) == (pytest.approx(1.0), (0, 0, 0), (0, 0))

    def test_all_lose_lowest_index(self):
        tensor = payoff_tensor(never_win(3, 2, 3, 2).win, np.full((3, 2), 1 / 6))
        assert argmax_strategy(tensor, *every_row(tensor)) == (0.0, (0, 0, 0), (0, 0))

    def test_top_orders_equal_scores_by_index(self):
        tensor = payoff_tensor(all_win(2, 2, 3, 2).win, np.full((2, 2), 0.25))
        ranked = top_strategies(tensor, 9)
        assert [f for _, f, _ in ranked] == list(itertools.product(range(3), repeat=2))
        assert all(value == 1.0 for value, _, _ in ranked)

    def test_ties_across_blocks(self):
        # 8^8 maps span many scan blocks; every map wins, so the first ones do.
        game = iterate(memory_game(all_win(2, 2, 2, 2)), 2)
        tensor = payoff_tensor(game.win, game.dist)
        ranked = top_strategies(tensor, 3)
        assert [f for _, f, _ in ranked] == [tuple(map_digits(i, 8, 8)) for i in range(3)]


class TestIntegerPath:
    def test_uniform_questions_take_integer_path(self):
        game = iterate(memory_game(chsh()), 2)
        weights = kernel_weights(payoff_tensor(game.win, game.dist))
        assert weights.dtype == np.int8  # 64 question pairs, one win each
        assert weights.shape == (8, 8, 8, 8)

    def test_non_dyadic_dist_takes_float_path(self):
        dist = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert kernel_weights(payoff_tensor(chsh().win, dist)).dtype == np.float64

    def test_question_count_denominator(self):
        # 1/9 is not dyadic, but 9 * (1/9) is an integer to the last bit.
        tensor = payoff_tensor(all_win(3, 3, 2, 2).win, np.full((3, 3), 1 / 9))
        weights = kernel_weights(tensor)
        assert weights.dtype.kind == "i" and set(np.unique(weights)) == {1}

    def test_wide_bound_takes_wider_dtype(self):
        dist = np.full((2, 2), 0.25)
        dist[0, 0], dist[0, 1] = 0.25 + 2.0 ** -10, 0.25 - 2.0 ** -10
        assert kernel_weights(payoff_tensor(chsh().win, dist)).dtype == np.int16


class TestPinned:
    def test_memory_chsh_squared(self):
        value, (f, g) = local_value(iterate(memory_game(chsh()), 2))
        assert value == 0.96875
        assert f == tuple(map_digits(4117, 8, 8)) == (0, 0, 0, 1, 0, 0, 2, 5)


class TestMapDigits:
    @pytest.mark.parametrize("n_inputs, n_outputs", [(1, 1), (1, 4), (2, 3), (3, 2), (4, 3),
                                                     (3, 5)])
    def test_product_order(self, n_inputs, n_outputs):
        expected = list(itertools.product(range(n_outputs), repeat=n_inputs))
        digits = map_digits(np.arange(len(expected)), n_inputs, n_outputs)
        assert digits.shape == (len(expected), n_inputs)
        assert [tuple(row) for row in digits.tolist()] == expected
        for index in (0, len(expected) // 2, len(expected) - 1):
            assert map_digits(index, n_inputs, n_outputs).shape == (n_inputs,)
            assert tuple(map_digits(index, n_inputs, n_outputs).tolist()) == expected[index]

    def test_index_array_shape(self):
        index = np.arange(24).reshape(2, 3, 4)
        digits = map_digits(index, 3, 3)
        assert digits.shape == (2, 3, 4, 3)
        assert (digits @ (3 ** np.arange(2, -1, -1)) == index).all()

