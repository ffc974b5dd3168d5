import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsgames import all_win, chsh, iterate, local_value, memory_game, never_win
from nsgames.strategies import (
    argmax_strategy,
    kernel_weights,
    map_digits,
    top_strategies,
)


def payoff_tensor(win, dist):
    return np.einsum("xy,xyab->xayb", dist, win.astype(float))


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
        value, f, g = argmax_strategy(tensor)
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
        assert argmax_strategy(tensor, np.array(rows), split) == ranking[best]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=shapes)
    def test_random_dist_float(self, seed, shape):
        tensor = random_case(seed, shape, 0)
        assume(kernel_weights(tensor).dtype == np.float64)  # not one question or no wins
        ranking = brute_force_ranking(tensor)
        scores = sorted((r[0] for r in ranking), reverse=True)
        value, f, g = argmax_strategy(tensor)
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


class TestTies:
    def test_all_win_lowest_index(self):
        tensor = payoff_tensor(all_win(3, 2, 3, 2).win, np.full((3, 2), 1 / 6))
        value, f, g = argmax_strategy(tensor)
        assert (value, f, g) == (pytest.approx(1.0), (0, 0, 0), (0, 0))

    def test_all_lose_lowest_index(self):
        tensor = payoff_tensor(never_win(3, 2, 3, 2).win, np.full((3, 2), 1 / 6))
        assert argmax_strategy(tensor) == (0.0, (0, 0, 0), (0, 0))

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

