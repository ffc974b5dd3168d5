import dataclasses
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames import (
    Correlation,
    FiniteChannel,
    NumericError,
    ParseError,
    Povm,
    PreconditionError,
    TooLargeError,
    ValidationError,
    deterministic_correlation,
    dump_correlation,
    from_local,
    from_qc,
    from_qs,
    is_local,
    is_no_signalling,
    load_correlation,
    marginal_A,
    marginal_B,
    product_correlation,
    section,
    simultaneous_naimark,
)
from nsgames import rand
from nsgames.linalg import kron

from conftest import I2, PAULI_X, PAULI_Z, basis_pvm, pauli_pvm, pr_box


def random_local(rng, shape=(2, 2, 2, 2), terms=3):
    nX, nY, nA, nB = shape
    weights = rng.dirichlet(np.ones(terms))
    alice = [rng.dirichlet(np.ones(nA), size=nX) for _ in range(terms)]
    bob = [rng.dirichlet(np.ones(nB), size=nY) for _ in range(terms)]
    return from_local(weights, alice, bob)


def vertex_lp_gap(p: np.ndarray) -> float:
    """min t s.t. |sum_v w_v D_v - p| <= t over the simplex, one column per
    deterministic vertex (f, g)."""
    from scipy.optimize import linprog

    nX, nY, nA, nB = p.shape
    vertices = np.array([deterministic_correlation(f, g, nA, nB).p.reshape(-1)
                         for f in itertools.product(range(nA), repeat=nX)
                         for g in itertools.product(range(nB), repeat=nY)]).T
    ones = np.ones((p.size, 1))
    result = linprog(np.append(np.zeros(vertices.shape[1]), 1.0),
                     A_ub=np.block([[vertices, -ones], [-vertices, -ones]]),
                     b_ub=np.concatenate([p.reshape(-1), -p.reshape(-1)]),
                     A_eq=np.append(np.ones(vertices.shape[1]), 0.0)[None], b_eq=[1.0],
                     bounds=(0, None), method="highs")
    assert result.status == 0
    return result.fun


def membership_inputs(rng) -> list[np.ndarray]:
    """Local, signalling and non-local inputs with nA^nX below and above
    nB^nY, and the PR box."""
    pr = pr_box().p
    cases = [pr]
    for shape in ((2, 3, 2, 2), (3, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 2)):
        cases.append(random_local(rng, shape).p)
        noise = rng.random(shape)
        cases.append(noise / noise.sum(axis=(2, 3), keepdims=True))
    for pad in ((1, 2, 1, 1), (2, 1, 1, 1)):
        for visibility in (0.8, 0.95):  # CHSH win >= 0.8 > 3/4: non-local
            noisy = Correlation(visibility * pr + (1 - visibility) * random_local(rng).p)
            cases.append(product_correlation(noisy, random_local(rng, pad)).p)
    return cases


def random_channel(dim, inputs, outcomes, rng):
    return FiniteChannel([Povm(rand.random_povm_effects(dim, outcomes, rng))
                          for _ in range(inputs)])


def tsirelson_strategy():
    """The closed-form optimal CHSH strategy (projective, maximally entangled)."""
    alice = FiniteChannel([pauli_pvm(PAULI_Z), pauli_pvm(PAULI_X)])
    bob = FiniteChannel([pauli_pvm((PAULI_Z + PAULI_X) / np.sqrt(2)),
                         pauli_pvm((PAULI_Z - PAULI_X) / np.sqrt(2))])
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return alice, bob, psi


class TestValidation:
    def test_rejects_negative(self):
        p = np.full((1, 1, 2, 1), 0.5)
        p[0, 0, 0, 0] = -1e-6
        with pytest.raises(ValidationError, match="nonnegative"):
            Correlation(p)

    def test_clips_round_off(self):
        p = np.array([1.0 + 5e-13, -5e-13]).reshape(1, 1, 2, 1)
        corr = Correlation(p)
        assert corr.p.min() == 0.0
        assert corr.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValidationError, match="normalization"):
            Correlation(np.full((1, 1, 2, 1), 0.6))


def scattered_deterministic(f, g, nA, nB):
    """Reference for ``deterministic_correlation``: ones scattered into zeros."""
    f, g = np.asarray(f, dtype=int), np.asarray(g, dtype=int)
    p = np.zeros((f.size, g.size, nA, nB))
    p[np.arange(f.size)[:, None], np.arange(g.size)[None, :], f[:, None], g[None, :]] = 1.0
    return p


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 2, 2, 2), (3, 2, 4, 3), (2, 3, 1, 5)])
def test_deterministic_correlation_matches_scatter(shape):
    nX, nY, nA, nB = shape
    for f in itertools.product(range(nA), repeat=nX):
        for g in itertools.product(range(nB), repeat=nY):
            p = deterministic_correlation(f, g, nA, nB).p
            assert p.tobytes() == scattered_deterministic(f, g, nA, nB).tobytes()


@pytest.mark.parametrize("shape", [(2, 3, 4, 3), (8, 8, 8, 8)])
def test_deterministic_correlation_matches_einsum(shape, rng):
    nX, nY, nA, nB = shape
    for _ in range(20):
        f, g = rng.integers(0, nA, nX), rng.integers(0, nB, nY)
        ones = np.einsum("xa,yb->xyab", np.eye(nA)[f], np.eye(nB)[g])
        assert deterministic_correlation(f, g, nA, nB).p.tobytes() == ones.tobytes()


class TestNoSignalling:
    def test_product_correlation_has_zero_defect(self, rng):
        q = rng.dirichlet(np.ones(2), size=2)
        r = rng.dirichlet(np.ones(2), size=2)
        corr = from_local([1.0], [q], [r])
        ok, cert = is_no_signalling(corr)
        assert ok and cert.worst <= 1e-15

    def test_pr_box(self):
        ok, cert = is_no_signalling(pr_box())
        assert ok and cert.worst == 0.0

    def test_signalling_table(self):
        p = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                p[x, y, y, 0] = 1.0  # Alice's answer equals Bob's question
        ok, cert = is_no_signalling(Correlation(p))
        assert not ok
        assert cert.max_alice == pytest.approx(1.0)
        assert cert.witness_alice is not None

    def test_marginals(self):
        box = pr_box()
        assert np.allclose(marginal_A(box), 0.5)
        assert np.allclose(marginal_B(box), 0.5)

    def test_marginal_requires_ns(self):
        p = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                p[x, y, y, 0] = 1.0
        with pytest.raises(PreconditionError):
            marginal_A(Correlation(p))

    @pytest.mark.parametrize("marginal", [marginal_A, marginal_B])
    def test_marginals_default_to_invariant_tol(self, marginal):
        p = pr_box().p.copy()
        p[0, 0, 0, 0] -= 1e-8  # Bob's marginal signals by 1e-8 > INVARIANT_TOL
        p[0, 0, 0, 1] += 1e-8
        with pytest.raises(PreconditionError):
            marginal(Correlation(p))
        assert marginal(Correlation(p), tol=1e-7).shape == (2, 2)

    def test_deterministic_marginal(self):
        corr = deterministic_correlation((1, 0), (0, 1), 2, 2)
        marg = marginal_A(corr)
        assert np.array_equal(marg, [[0, 1], [1, 0]])


class TestFromLocal:
    def test_single_deterministic_pair(self):
        q = np.array([[0.0, 1.0], [1.0, 0.0]])
        r = np.array([[1.0, 0.0], [1.0, 0.0]])
        corr = from_local([1.0], [q], [r])
        expected = deterministic_correlation((1, 0), (0, 0), 2, 2)
        assert np.allclose(corr.p, expected.p)

    def test_uniform_mixture_of_constants(self):
        tables = []
        for const in (0, 1):
            t = np.zeros((2, 2))
            t[:, const] = 1.0
            tables.append(t)
        corr = from_local([0.25] * 4,
                          [tables[0], tables[0], tables[1], tables[1]],
                          [tables[0], tables[1], tables[0], tables[1]])
        assert np.allclose(corr.p, 0.25)

    def test_outputs_are_local(self, rng):
        for _ in range(5):
            corr = random_local(rng)
            verdict, report = is_local(corr)
            assert verdict, report.gap

    def test_outputs_no_signalling_tightly(self, rng):
        for _ in range(5):
            ok, cert = is_no_signalling(random_local(rng), tol=1e-12)
            assert ok, cert.worst

    def test_rejects_bad_weights(self, rng):
        q = rng.dirichlet(np.ones(2), size=2)
        with pytest.raises(ValidationError, match="weights"):
            from_local([0.7, 0.7], [q, q], [q, q])

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValidationError, match="rows sum"):
            from_local([1.0], [np.array([[0.5, 0.4]])], [np.array([[1.0]])])


class TestFromQs:
    def test_product_state_factorizes(self, rng):
        alice = random_channel(2, 2, 2, rng)
        bob = random_channel(3, 2, 2, rng)
        phi = rand.random_state(2, rng)
        chi = rand.random_state(3, rng)
        corr = from_qs(alice, bob, np.kron(phi, chi))
        qa = marginal_A(corr)
        qb = marginal_B(corr)
        expected = np.einsum("xa,yb->xyab", qa, qb)
        assert np.max(np.abs(corr.p - expected)) <= 1e-10

    def test_chsh_strategy_hits_tsirelson(self):
        # Oracle: independent dense evaluation <psi|E kron F|psi> via np.kron,
        # plus the closed form cos^2(pi/8).
        alice, bob, psi = tsirelson_strategy()
        corr = from_qs(alice, bob, psi)
        win = 0.0
        oracle = 0.0
        for x in range(2):
            for y in range(2):
                for a in range(2):
                    for b in range(2):
                        op = kron(alice.povms[x].effects[a], bob.povms[y].effects[b])
                        value = float(np.real(psi.conj() @ op @ psi))
                        oracle += 0.25 * value * ((a ^ b) == (x & y))
                        assert corr.p[x, y, a, b] == pytest.approx(value, abs=1e-12)
                        if (a ^ b) == (x & y):
                            win += 0.25 * corr.p[x, y, a, b]
        assert oracle == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-12)
        assert win == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-9)

    def test_trivial_alice(self, rng):
        alice = FiniteChannel([Povm([np.eye(2, dtype=complex)])])
        bob = random_channel(2, 2, 3, rng)
        psi = rand.random_state(4, rng)
        corr = from_qs(alice, bob, psi)
        assert corr.nA == 1
        assert np.allclose(corr.p[:, :, 0, :].sum(axis=2), 1.0)

    def test_rejects_non_unit_state(self, rng):
        alice = random_channel(2, 1, 2, rng)
        with pytest.raises(PreconditionError, match="unit"):
            from_qs(alice, alice, np.ones(4))

    def test_ns_at_tight_tolerance(self, rng):
        alice = random_channel(2, 3, 2, rng)
        bob = random_channel(2, 2, 4, rng)
        corr = from_qs(alice, bob, rand.random_state(4, rng))
        ok, cert = is_no_signalling(corr, tol=1e-9)
        assert ok, cert.worst


class TestFromQc:
    def test_tensor_embedding_matches_qs(self, rng):
        for _ in range(20):
            alice = random_channel(2, 2, 2, rng)
            bob = random_channel(2, 2, 2, rng)
            psi = rand.random_state(4, rng)
            big_alice = FiniteChannel([
                Povm([np.kron(eff, I2) for eff in p.effects]) for p in alice.povms])
            big_bob = FiniteChannel([
                Povm([np.kron(I2, eff) for eff in p.effects]) for p in bob.povms])
            qc = from_qc(big_alice, big_bob, psi)
            qs = from_qs(alice, bob, psi)
            assert np.max(np.abs(qc.p - qs.p)) <= 1e-12

    def test_diagonal_channels_basis_state(self):
        alice = FiniteChannel([basis_pvm(2)])
        bob = FiniteChannel([basis_pvm(2)])
        xi = np.array([0.0, 1.0], dtype=complex)
        corr = from_qc(alice, bob, xi)
        expected = deterministic_correlation((1,), (1,), 2, 2)
        assert np.allclose(corr.p, expected.p)

    def test_rejects_non_commuting(self):
        alice = FiniteChannel([pauli_pvm(PAULI_Z)])
        bob = FiniteChannel([pauli_pvm(PAULI_X)])
        with pytest.raises(PreconditionError, match="commute"):
            from_qc(alice, bob, np.array([1.0, 0.0]))


class TestIsLocal:
    def test_pr_box_not_local(self):
        verdict, report = is_local(pr_box())
        assert not verdict
        assert report.gap > 0.01

    def test_uniform_is_local(self):
        corr = Correlation(np.full((2, 2, 2, 2), 0.25))
        verdict, report = is_local(corr)
        assert verdict
        total = sum(w for _, _, w in report.weights)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_decomposition_reconstructs(self, rng):
        # Both orientations: Alice's maps enumerated, or Bob's (p transposed).
        for shape in ((2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 2, 2), (2, 2, 2, 3),
                      (2, 2, 3, 2), (3, 1, 2, 3), (2, 1, 2, 4)):
            corr = random_local(rng, shape, terms=4)
            verdict, report = is_local(corr)
            assert verdict
            rebuilt = np.zeros_like(corr.p)
            for f, g, w in report.weights:
                assert len(f) == corr.nX and len(g) == corr.nY and w > 0
                rebuilt += w * deterministic_correlation(f, g, corr.nA, corr.nB).p
            assert np.max(np.abs(rebuilt - corr.p)) <= 1e-8
            is_local(corr, tol=0.0)  # certified within INVARIANT_TOL: rounding does not raise

    def test_compact_gap_matches_vertex_lp(self, rng):
        # Oracle: the LP over every deterministic vertex, built here and
        # solved by scipy directly.
        inputs = membership_inputs(rng)
        gaps = [is_local(Correlation(p))[1].gap for p in inputs]
        oracle = [vertex_lp_gap(p) for p in inputs]
        assert np.max(np.abs(np.subtract(gaps, oracle))) <= 1e-12
        assert sum(g <= 1e-8 for g in gaps) >= 4 and sum(g > 0.01 for g in gaps) >= 8

    @pytest.mark.parametrize("corrupt", ["rebuild", "total"])
    def test_failed_decomposition_raises(self, monkeypatch, rng, corrupt):
        from nsgames import correlations

        solve = correlations.simplex_solve

        def corrupted(lp):
            result = solve(lp)
            x = result.x.copy()
            if corrupt == "total":
                x[:-1] *= 1.5
            else:  # hand each map's channel, nY * nB = 4 entries, to the next map
                x[:-1] = np.roll(x[:-1], 4)
            return dataclasses.replace(result, x=x)

        monkeypatch.setattr(correlations, "simplex_solve", corrupted)
        with pytest.raises(NumericError, match="rebuild" if corrupt == "rebuild" else "sum"):
            is_local(random_local(rng))

    @pytest.mark.parametrize("shape,limit", [((4, 4, 4, 4), 2.0), ((2, 16, 2, 2), 1.0),
                                             ((2, 24, 2, 2), 1.0)],
                             ids=["4^4", "2x16x2x2", "2x24x2x2"])
    def test_large_instances_are_fast(self, rng, shape, limit):
        is_local(random_local(rng))  # the LP layer's first call imports scipy
        corr = random_local(rng, shape)
        start = time.perf_counter()
        verdict, _ = is_local(corr)
        assert time.perf_counter() - start < limit
        assert verdict

    def test_vertex_cap(self):
        # membership LPs over WORK_BUDGET dense rows x columns: 9.7e8 and 7.6e16
        for shape in ((11, 11, 2, 2), (8, 8, 8, 8)):
            corr = Correlation(np.full(shape, 1.0 / (shape[2] * shape[3])))
            start = time.perf_counter()
            with pytest.raises(TooLargeError, match="membership LP"):
                is_local(corr)
            assert time.perf_counter() - start < 0.1


class TestProductsAndSections:
    def test_product_with_deterministic(self, rng):
        base = random_local(rng)
        det = deterministic_correlation((0,), (0,), 1, 1)
        padded = product_correlation(base, det)
        assert padded.shape == base.shape
        assert np.allclose(padded.p, base.p)

    def test_pr_squared_is_ns(self):
        box = pr_box()
        squared = product_correlation(box, box)
        ok, cert = is_no_signalling(squared)
        assert ok and cert.worst <= 1e-15

    def test_local_times_local_is_local(self, rng):
        p1 = random_local(rng)
        p2 = random_local(rng)
        verdict, _ = is_local(product_correlation(p1, p2))
        assert verdict

    def test_section_recovers_first_factor(self, rng):
        p1 = random_local(rng)
        p2 = random_local(rng)
        big = product_correlation(p1, p2)
        for xp in range(2):
            for yp in range(2):
                sec = section(big, (2, 2, 2, 2), xp, yp)
                assert np.max(np.abs(sec.p - p1.p)) <= 1e-12

    def test_section_of_deterministic_products(self):
        d1 = deterministic_correlation((0, 1), (1, 0), 2, 2)
        d2 = deterministic_correlation((1, 1), (0, 0), 2, 2)
        sec = section(product_correlation(d1, d2), (2, 2, 2, 2), 1, 1)
        assert np.max(np.abs(sec.p - d1.p)) <= 1e-15

    def test_section_ns_tolerance_monotone(self, rng):
        p1 = random_local(rng)
        p2 = random_local(rng)
        big = product_correlation(p1, p2)
        _, cert_big = is_no_signalling(big)
        _, cert_sec = is_no_signalling(section(big, (2, 2, 2, 2), 0, 0))
        assert cert_sec.worst <= cert_big.worst + 1e-12

    def test_section_validates_factorization(self, rng):
        with pytest.raises(ValidationError, match="divisible"):
            section(random_local(rng), (3, 2, 2, 2), 0, 0)

    def test_qc_product_preserves_type(self, rng):
        # Thm-level property: tensor of two qc correlations equals the qc
        # correlation of the tensored channels and state.
        from nsgames import product_channel

        def qc_instance():
            alice = random_channel(2, 2, 2, rng)
            bob_raw = random_channel(2, 2, 2, rng)
            big_a = FiniteChannel([Povm([np.kron(e, I2) for e in p.effects])
                                   for p in alice.povms])
            big_b = FiniteChannel([Povm([np.kron(I2, e) for e in p.effects])
                                   for p in bob_raw.povms])
            xi = rand.random_state(4, rng)
            return big_a, big_b, xi

        a1, b1, x1 = qc_instance()
        a2, b2, x2 = qc_instance()
        p1 = from_qc(a1, b1, x1)
        p2 = from_qc(a2, b2, x2)
        lhs = product_correlation(p1, p2)
        rhs = from_qc(product_channel(a1, a2, mode="tensor"),
                      product_channel(b1, b2, mode="tensor"),
                      np.kron(x1, x2))
        assert np.max(np.abs(lhs.p - rhs.p)) <= 1e-10


class TestClassInclusions:
    def test_local_embeds_in_qs(self, rng):
        # the diagonal construction: E(a|x) diagonal with entries q_i(a|x)
        terms = 3
        weights = rng.dirichlet(np.ones(terms))
        qs_tables = [rng.dirichlet(np.ones(2), size=2) for _ in range(terms)]
        rs_tables = [rng.dirichlet(np.ones(2), size=2) for _ in range(terms)]
        local = from_local(weights, qs_tables, rs_tables)

        alice = FiniteChannel([
            Povm([np.diag([qs_tables[i][x, a] for i in range(terms)]).astype(complex)
                  for a in range(2)]) for x in range(2)])
        bob = FiniteChannel([
            Povm([np.diag([rs_tables[i][y, b] for i in range(terms)]).astype(complex)
                  for b in range(2)]) for y in range(2)])
        psi = np.zeros(terms * terms, dtype=complex)
        for i in range(terms):
            psi[i * terms + i] = np.sqrt(weights[i])
        quantum = from_qs(alice, bob, psi)
        assert np.max(np.abs(quantum.p - local.p)) <= 1e-9

    def test_qs_embeds_in_qc(self, rng):
        alice = random_channel(2, 2, 3, rng)
        bob = random_channel(2, 2, 2, rng)
        psi = rand.random_state(4, rng)
        qs = from_qs(alice, bob, psi)
        big_a = FiniteChannel([Povm([np.kron(e, I2) for e in p.effects])
                               for p in alice.povms])
        big_b = FiniteChannel([Povm([np.kron(I2, e) for e in p.effects])
                               for p in bob.povms])
        qc = from_qc(big_a, big_b, psi)
        assert np.max(np.abs(qs.p - qc.p)) <= 1e-9

    def test_qc_is_no_signalling(self, rng):
        alice = random_channel(2, 2, 2, rng)
        big_a = FiniteChannel([Povm([np.kron(e, I2) for e in p.effects])
                               for p in alice.povms])
        bob = random_channel(2, 3, 2, rng)
        big_b = FiniteChannel([Povm([np.kron(I2, e) for e in p.effects])
                               for p in bob.povms])
        corr = from_qc(big_a, big_b, rand.random_state(4, rng))
        ok, _ = is_no_signalling(corr, tol=1e-9)
        assert ok


class TestDisambiguation:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_projective_dilation_reproduces_correlation(self, seed):
        rng = rand.generator(seed)
        alice = random_channel(2, 2, 3, rng)
        bob = random_channel(2, 2, 3, rng)
        psi = rand.random_state(4, rng)
        corr = from_qs(alice, bob, psi)

        dil_a = simultaneous_naimark(alice)
        dil_b = simultaneous_naimark(bob)
        proj_alice = FiniteChannel(list(dil_a.dilated))
        proj_bob = FiniteChannel(list(dil_b.dilated))
        lifted = np.kron(dil_a.isometry, dil_b.isometry) @ psi
        projective = from_qs(proj_alice, proj_bob, lifted)
        assert np.max(np.abs(projective.p - corr.p)) <= 1e-9


class TestSerialization:
    def test_round_trip(self, rng):
        corr = random_local(rng, shape=(2, 3, 2, 2))
        back = load_correlation(dump_correlation(corr))
        assert np.max(np.abs(back.p - corr.p)) == 0.0

    def test_pr_dump_is_exact(self):
        text = dump_correlation(pr_box())
        back = load_correlation(text)
        assert np.array_equal(back.p, pr_box().p)

    def test_parse_error_line_number(self):
        text = "corr 2 2 2 2\n0.25 0.25 0.25 oops\n"
        with pytest.raises(ParseError) as err:
            load_correlation(text)
        assert err.value.line == 2

    def test_wrong_row_count(self):
        with pytest.raises(ParseError, match="lines"):
            load_correlation("corr 2 2 1 1\n1.0\n")
