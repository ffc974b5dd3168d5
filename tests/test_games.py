import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames import (
    Correlation,
    CylinderGame,
    FiniteGame,
    ParseError,
    TooLargeError,
    ValidationError,
    all_win,
    asymptotic_sequence,
    chsh,
    dump_game,
    embed,
    inner_value_sequence,
    iterate,
    load_game,
    memory_game,
    never_win,
    payoff,
    product_game,
    random_game,
    relabelings,
    value,
)
from nsgames import games, rand
from nsgames.errors import ENTRY_BUDGET

from conftest import lifted_relabelings, pr_box


class TestPayoff:
    def test_all_win_any_correlation(self, rng):
        game = all_win(2, 2, 2, 2)
        corr = Correlation(rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2))
        assert payoff(game, corr) == pytest.approx(1.0, abs=1e-12)

    def test_chsh_uniform(self):
        uniform = Correlation(np.full((2, 2, 2, 2), 0.25))
        assert payoff(chsh(), uniform) == pytest.approx(0.5, abs=1e-12)

    def test_chsh_pr_box(self):
        assert payoff(chsh(), pr_box()) == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="alphabets"):
            payoff(chsh(), Correlation(np.full((1, 1, 2, 2), 0.25)))


class TestValueDispatch:
    def test_chsh_all_types(self):
        game = chsh()
        loc = value(game, "loc")
        assert loc.value == 0.75 and loc.exact and loc.kind == "loc"
        ns = value(game, "ns")
        assert ns.value == pytest.approx(1.0, abs=1e-9) and ns.exact
        qs = value(game, "qs", dim=2, seeds=10, max_sweeps=100, rng_seed=0)
        assert qs.kind == "qs-lb" and not qs.exact
        assert qs.value >= 0.8535

    def test_certificates_reproduce_values(self, rng):
        from nsgames import deterministic_correlation, from_qs

        game = random_game((2, 2, 2, 2), rng)
        loc = value(game, "loc")
        f, g = loc.certificate
        assert payoff(game, deterministic_correlation(f, g, 2, 2)) == pytest.approx(
            loc.value, abs=1e-9)
        ns = value(game, "ns")
        assert payoff(game, ns.certificate) == pytest.approx(ns.value, abs=1e-9)
        qs = value(game, "qs", seeds=4, max_sweeps=30)
        state = qs.certificate
        corr = from_qs(state.alice, state.bob, state.psi)
        assert payoff(game, corr) == pytest.approx(qs.value, abs=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            value(chsh(), "qc")


class TestProductGame:
    def test_chsh_squared_local(self):
        squared = product_game(chsh(), chsh())
        assert value(squared, "loc").value == 0.625

    def test_never_win_absorbs(self):
        squared = product_game(chsh(), never_win(2, 2, 2, 2))
        assert not squared.win.any()

    def test_padding_equality_loc_and_ns(self, rng):
        game = random_game((2, 3, 2, 2), rng)
        padded = product_game(game, all_win(2, 2, 2, 2))
        for kind in ("loc", "ns"):
            lhs = value(padded, kind).value
            rhs = value(game, kind).value
            assert lhs == pytest.approx(rhs, abs=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_product_supermultiplicative(self, seed):
        gen = rand.generator(seed)
        g1 = random_game((2, 2, 2, 2), gen)
        g2 = random_game((2, 2, 2, 2), gen)
        both = product_game(g1, g2)
        for kind in ("loc", "ns"):
            v12 = value(both, kind).value
            v1 = value(g1, kind).value
            v2 = value(g2, kind).value
            assert v12 >= v1 * v2 - 1e-9

    def test_size_guard(self):
        big = all_win(200, 200, 2, 2)
        with pytest.raises(TooLargeError):
            product_game(product_game(big, big), product_game(big, big))


class TestIterateAndEmbed:
    def test_iterate_once_is_identity(self):
        game = chsh()
        stage = iterate(embed(game), 1)
        assert np.array_equal(stage.win, game.win)
        assert np.allclose(stage.dist, game.dist)

    def test_iterate_two_equals_product(self):
        game = chsh()
        assert np.array_equal(iterate(embed(game), 2).win,
                              product_game(game, game).win)

    def test_bridge_chsh(self):
        game = chsh()
        for n in (1, 2):
            stage = iterate(embed(game), n)
            power = game
            for _ in range(n - 1):
                power = product_game(power, game)
            for kind in ("loc", "ns"):
                assert value(stage, kind).value == pytest.approx(
                    value(power, kind).value, abs=1e-9)

    def test_all_win_iterates_to_one(self):
        cylinder = embed(all_win(2, 2, 2, 2))
        for n in (1, 2, 3):
            assert value(iterate(cylinder, n), "loc").value == pytest.approx(1.0)

    @pytest.mark.parametrize("make", [embed, memory_game])
    def test_iterate_matches_coordinate_rules(self, make):
        # oracle: every slot's window predicate, and the product of the base
        # weights in coordinate order, read off each tuple's digits
        base = random_game((2, 3, 2, 1), rand.generator(4))
        cylinder, n = make(base), 2
        stage, w = iterate(cylinder, n), cylinder.window
        width = w + n - 1
        window = cylinder.win.reshape([m for size in base.shape for m in (size,) * w])
        for point in itertools.product(*map(range, stage.shape)):
            digits = [np.unravel_index(v, (size,) * width) for v, size in zip(point, base.shape)]
            wins = all(window[tuple(d for coordinate in digits for d in coordinate[k:k + w])]
                       for k in range(n))
            assert stage.win[point] == wins
            weight = 1.0
            for x, y in zip(*digits[:2]):
                weight *= base.dist[x, y]
            assert stage.dist[point[:2]] == weight

    def test_iterate_needs_positive_n(self):
        with pytest.raises(ValidationError):
            iterate(embed(chsh()), 0)

    def test_iterate_cap(self):
        with pytest.raises(TooLargeError):
            iterate(embed(all_win(10, 10, 10, 10)), 9)


def symmetric_bases():
    """Base games with relabelings: CHSH, the chained game with three
    questions, a ternary-answer game and two seeded uniform-question games
    (seeds whose predicate has a relabeling besides the identity)."""
    x, y, a, b = np.indices((3, 3, 2, 2))
    chained3 = FiniteGame((a ^ b) == ((x == 2) & (y == 2)), np.full((3, 3), 1 / 9))
    x, y, a, b = np.indices((2, 2, 3, 3))
    ternary = FiniteGame((a - b) % 3 == x * y, np.full((2, 2), 1 / 4))
    seeded = [random_game((2, 2, 2, 2), rand.generator(seed), uniform_dist=True)
              for seed in (5, 8)]
    return [chsh(), chained3, ternary] + seeded


def fixes(game, px, py, sa, sb) -> bool:
    """Whether (x, y, a, b) -> (px[x], py[y], sa[x, a], sb[y, b]) fixes the game."""
    for x, y, a, b in itertools.product(*map(range, game.shape)):
        if (game.win[px[x], py[y], sa[x, a], sb[y, b]] != game.win[x, y, a, b]
                or game.dist[px[x], py[y]] != game.dist[x, y]):
            return False
    return True


class TestRelabelings:
    def test_chsh_group(self):
        group = relabelings(chsh())
        assert len(group) == 8
        assert all(np.array_equal(part, np.broadcast_to(np.arange(2), part.shape))
                   for part in group[0])  # the identity first
        assert all(fixes(chsh(), *element) for element in group)
        keys = {tuple(np.concatenate([np.ravel(part) for part in element])) for element in group}
        assert len(keys) == 8

    def test_search_is_complete_on_small_games(self):
        # oracle: every candidate relabeling, tried one by one
        game = symmetric_bases()[3]
        perms2 = list(itertools.permutations(range(2)))
        count = sum(fixes(game, np.array(px), np.array(py), np.array(sa), np.array(sb))
                    for px in perms2 for py in perms2
                    for sa in itertools.product(perms2, repeat=2)
                    for sb in itertools.product(perms2, repeat=2))
        assert len(relabelings(game)) == count

    @pytest.mark.parametrize("base", range(5))
    @pytest.mark.parametrize("make", [embed, memory_game])
    def test_lifted_relabelings_fix_iterates(self, base, make):
        game = symmetric_bases()[base]
        cylinder = make(game)
        assert len(cylinder.relabelings) == len(relabelings(game)) > 1
        for n in (1, 2):
            stage = iterate(cylinder, n)
            group, width = stage.symmetry
            assert group is cylinder.relabelings and width == cylinder.window + n - 1
            nX, nY, nA, nB = stage.shape
            for px, py, sa, sb in lifted_relabelings(stage):
                assert px.shape == (nX,) and py.shape == (nY,)
                assert sa.shape == (nX, nA) and sb.shape == (nY, nB)
                img = stage.win[px[:, None, None, None], py[None, :, None, None],
                                sa[:, None, :, None], sb[None, :, None, :]]
                assert np.array_equal(img, stage.win)
                assert np.array_equal(stage.dist[px[:, None], py[None, :]], stage.dist)

    def test_trivial_group_lifts_to_none(self):
        # a base whose only relabeling is the identity
        game = FiniteGame(np.eye(4, dtype=bool).reshape(2, 2, 2, 2), [[0.1, 0.2], [0.3, 0.4]])
        assert len(relabelings(game)) == 1
        assert iterate(memory_game(game), 2).symmetry == ()

    def test_above_cap_gets_none(self):
        big = all_win(1, 1, 8, 1)  # 8! candidates
        assert relabelings(big) == ()
        assert iterate(embed(big), 2).symmetry == ()

    def test_only_derived_games_carry_them(self):
        game = chsh()
        assert game.symmetry == ()
        assert product_game(game, game).symmetry == ()
        assert load_game(dump_game(memory_game(game))).relabelings == ()
        assert iterate(load_game(dump_game(embed(game))), 2).symmetry == ()
        assert len(iterate(embed(game), 2).symmetry[0]) > 1


class TestMemoryGame:
    def test_all_win_stays_all_win(self):
        mem = memory_game(all_win(2, 2, 2, 2))
        assert mem.win.all()

    def test_never_win_stays_never_win(self):
        mem = memory_game(never_win(2, 2, 2, 2))
        assert not mem.win.any()

    def test_window_two_predicate(self):
        game = chsh()
        mem = memory_game(game)
        assert mem.window == 2
        multi = mem.win.reshape(2, 2, 2, 2, 2, 2, 2, 2)
        for x0, x1, y0, y1, a0, a1, b0, b1 in itertools.product(range(2), repeat=8):
            expected = bool(game.win[x0, y0, a0, b0] or game.win[x1, y1, a1, b1])
            assert multi[x0, x1, y0, y1, a0, a1, b0, b1] == expected

    def test_single_slot_value_oracle(self, rng):
        # tiny base game: brute-force the window-2 OR game directly
        game = random_game((1, 2, 2, 2), rng)
        stage = iterate(memory_game(game), 1)
        computed = value(stage, "loc").value
        best = 0.0
        nX, nY, nA, nB = game.shape
        for f in itertools.product(range(nA * nA), repeat=nX * nX):
            for g in itertools.product(range(nB * nB), repeat=nY * nY):
                total = 0.0
                for xx in range(nX * nX):
                    for yy in range(nY * nY):
                        if stage.win[xx, yy, f[xx], g[yy]]:
                            total += stage.dist[xx, yy]
                best = max(best, total)
        assert computed == pytest.approx(best, abs=1e-12)

    def test_memory_slot_strategy_lower_bound(self):
        # winning the shared middle slot forces a win in both window positions
        game = chsh()
        stage = iterate(memory_game(game), 2)
        assert stage.shape == (8, 8, 8, 8)
        # explicit strategy: play the best CHSH answer on coordinate 1
        # (middle) and anything elsewhere; it wins whenever slot 1 wins
        middle_win = 0.0
        for x in range(2):
            for y in range(2):
                if game.win[x, y, 0, 0]:
                    middle_win += game.dist[x, y]
        assert middle_win == 0.75


class TestSequences:
    def test_chsh_asymptotic(self):
        entries, truncated = asymptotic_sequence(chsh(), "loc", 2)
        assert not truncated
        assert entries[0].n == 1 and entries[0].value == pytest.approx(0.75)
        assert entries[1].value == pytest.approx(0.625)
        assert entries[1].normalized == pytest.approx(np.sqrt(0.625), abs=1e-12)

    def test_all_win_constant_one(self):
        entries, _ = asymptotic_sequence(all_win(2, 2, 2, 2), "loc", 3)
        assert all(e.value == pytest.approx(1.0) for e in entries)

    def test_never_win_constant_zero(self):
        entries, _ = asymptotic_sequence(never_win(2, 2, 2, 2), "ns", 2)
        assert all(e.value == pytest.approx(0.0, abs=1e-9) for e in entries)
        assert all(e.normalized == 0.0 for e in entries)

    def test_inner_matches_asymptotic_on_embeddings(self, rng):
        game = random_game((2, 2, 2, 2), rng)
        inner, _ = inner_value_sequence(embed(game), "loc", 2)
        iid, _ = asymptotic_sequence(game, "loc", 2)
        for a, b in zip(inner, iid):
            assert a.value == b.value
            assert a.normalized == b.normalized

    def test_running_max(self):
        entries, _ = inner_value_sequence(embed(chsh()), "loc", 2)
        assert entries[0].running_max == pytest.approx(0.75)
        assert entries[1].running_max == pytest.approx(np.sqrt(0.625), abs=1e-12)

    def test_raw_values_non_increasing(self, rng):
        for _ in range(5):
            game = random_game((2, 2, 2, 2), rng)
            entries, _ = inner_value_sequence(embed(game), "loc", 2)
            assert entries[1].value <= entries[0].value + 1e-9

    def test_supermultiplicativity_consequence(self, rng):
        for _ in range(3):
            game = random_game((2, 2, 2, 2), rng)
            entries, _ = asymptotic_sequence(game, "loc", 2)
            v1, v2 = entries[0].value, entries[1].value
            assert v2 >= v1 * v1 - 1e-9

    def test_truncation_flag(self):
        # n = 2 already exceeds the deterministic-enumeration cap (36^36 maps)
        entries, truncated = asymptotic_sequence(all_win(6, 6, 6, 6), "loc", 3)
        assert truncated
        assert len(entries) == 1

    def test_n_max_zero(self):
        entries, truncated = asymptotic_sequence(chsh(), "loc", 0)
        assert entries == [] and not truncated

    @pytest.mark.parametrize("capped_n", [1, 2, 3])
    def test_stops_at_first_cap(self, monkeypatch, capped_n):
        started = []
        exact = games.value
        uncapped, _ = inner_value_sequence(embed(chsh()), "loc", capped_n - 1)

        def capped(stage, kind, **opts):  # the chsh stage at n has nX = 2^n
            started.append(stage.nX)
            if stage.nX >= 2 ** capped_n:
                raise TooLargeError("over cap")
            return exact(stage, kind, **opts)

        monkeypatch.setattr(games, "value", capped)
        entries, truncated = inner_value_sequence(embed(chsh()), "loc", 6)
        assert truncated and [e.value for e in entries] == [e.value for e in uncapped]
        assert started == [2 ** n for n in range(1, capped_n + 1)]

    def test_stages_run_in_calling_thread(self, monkeypatch):
        import threading

        def refuse(thread):
            raise AssertionError("a sequence stage started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        entries, truncated = inner_value_sequence(memory_game(chsh()), "ns", 2)
        assert [e.value for e in entries] == [1.0, 1.0] and not truncated
        entries, _ = asymptotic_sequence(chsh(), "loc", 2)
        assert [e.value for e in entries] == [0.75, 0.625]


class TestHugeWindowHeaders:
    @pytest.mark.parametrize("header, win_size", [("game 1 1 1 1 window 10000000", 1),
                                                  ("game 2 1 1 1 window 24", 2 ** 24),
                                                  ("game 2 2 2 2 window 4", 2 ** 16)])
    def test_admitted_headers_still_load(self, header, win_size):
        pairs = int(header.split()[1]) * int(header.split()[2])
        game = load_game(f"{header}\ndist {' '.join([repr(1.0 / pairs)] * pairs)}\n")
        assert isinstance(game, CylinderGame) and game.win.size == win_size

    @pytest.mark.parametrize("header", ["game 2 1 1 1 window 25", "game 1 1 1 2 window 40"])
    def test_over_budget_headers_still_refused(self, header):
        assert 2 ** 25 > ENTRY_BUDGET  # so the capped exponent keeps every verdict
        with pytest.raises(TooLargeError, match="game file predicate"):
            load_game(f"{header}\ndist 1.0\n")

    def test_window_cap_follows_the_budget(self, monkeypatch):
        import tracemalloc

        # 2^27 entries are over a 2^26 budget, and a fixed cap of 25 would admit them
        monkeypatch.setattr(games, "ENTRY_BUDGET", 2 ** 26)
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match="game file predicate"):
                load_game("game 2 1 1 1 window 27\ndist 1.0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6


class TestValidationAndFormat:
    def test_dist_must_normalize(self):
        with pytest.raises(ValidationError, match="sums to 1"):
            FiniteGame(np.ones((1, 1, 1, 1), dtype=bool), [[0.5]])

    @pytest.mark.parametrize("make", [
        lambda dist: FiniteGame(np.ones((2, 2, 2, 2), dtype=bool), dist),
        lambda dist: CylinderGame(1, (2, 2, 2, 2), np.ones((2, 2, 2, 2), dtype=bool), dist)],
        ids=["finite", "cylinder"])
    def test_nan_weight_rejected(self, make):
        with pytest.raises(ValidationError, match="nonnegative"):
            make([[np.nan, 0.25], [0.25, 0.25]])

    def test_cylinder_window_shape(self):
        with pytest.raises(ValidationError, match="windowed"):
            CylinderGame(2, (2, 2, 2, 2), np.ones((2, 2, 2, 2), dtype=bool),
                         np.full((2, 2), 0.25))

    @pytest.mark.parametrize("window", [10 ** 6, 10 ** 9])
    @pytest.mark.parametrize("base", [2, 3])
    def test_huge_window_refused_before_the_power(self, window, base):
        win = np.ones((base,) * 4, dtype=bool)
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="windowed"):
            CylinderGame(window, (base,) * 4, win, np.full((base, base), 1 / base ** 2))
        assert time.perf_counter() - start < 0.01

    def test_caller_arrays_copied_and_builder_arrays_taken_over(self):
        win = np.ones((2, 2, 2, 2), dtype=bool)
        game = FiniteGame(win, np.full((2, 2), 0.25))
        assert win.flags.writeable and not game.win.flags.writeable
        assert not np.shares_memory(win, game.win)
        assert FiniteGame(game.win, game.dist).win is game.win
        assert embed(game).win is game.win

    def test_loaded_predicate_held_once(self):
        import tracemalloc

        text = "game 2 1 1 1 window 24\ndist 0.5 0.5\nwin 5 0 0 0\n"  # a 16 MB predicate
        tracemalloc.start()
        try:
            game = load_game(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert game.win.sum() == 1 and peak < 20 * 10 ** 6

    def test_round_trip_finite(self, rng):
        game = random_game((2, 3, 2, 2), rng)
        back = load_game(dump_game(game))
        assert isinstance(back, FiniteGame)
        assert np.array_equal(back.win, game.win)
        assert np.max(np.abs(back.dist - game.dist)) == 0.0

    def test_round_trip_cylinder(self):
        mem = memory_game(chsh())
        back = load_game(dump_game(mem))
        assert isinstance(back, CylinderGame)
        assert back.window == 2
        assert np.array_equal(back.win, mem.win)

    def test_comments_allowed(self):
        text = "# a game\ngame 1 1 2 2\ndist 1.0\nwin 0 0 0 0  # the good case\n"
        game = load_game(text)
        assert game.win[0, 0, 0, 0] and not game.win[0, 0, 1, 1]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            load_game("game 2 2 2 2\ndist 0.25 0.25 0.25\n")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            load_game("game 2 2 2 2\ndist 0.25 0.25 0.25 0.25\nwin 5 0 0 0\n")
        assert err.value.line == 3
        with pytest.raises(ParseError) as err:  # a broken invariant: the header's line
            load_game("# weights with a NaN\ngame 1 2 2 2\ndist nan 1.0\n")
        assert err.value.line == 2

    def test_win_indices_validated_against_window(self):
        text = "game 2 2 2 2 window 2\ndist 0.25 0.25 0.25 0.25\nwin 3 3 3 3\n"
        game = load_game(text)
        assert isinstance(game, CylinderGame)
        # windowed alphabets have size 2^2 = 4, so index 4 is out of range
        bad = "game 2 2 2 2 window 2\ndist 0.25 0.25 0.25 0.25\nwin 4 0 0 0\n"
        with pytest.raises(ParseError):
            load_game(bad)
