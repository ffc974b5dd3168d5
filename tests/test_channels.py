import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames import (
    FiniteChannel,
    ParseError,
    Povm,
    Pvm,
    UcpOnFunctions,
    ValidationError,
    apply_ucp,
    channels_commute,
    commutes_with,
    dump_channel,
    dump_povm,
    load_channel,
    load_povm,
    povm_to_ucp,
    ucp_to_povm,
)
from nsgames import rand
from nsgames.linalg import commutator_norm, max_abs

from conftest import I2, PAULI_X, PAULI_Z, basis_pvm, pauli_pvm, trine_povm


class TestValidation:
    def test_povm_accepts_trine(self):
        povm = trine_povm()
        assert povm.dim == 2 and povm.outcomes == 3

    def test_rejects_non_psd(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            Povm([np.diag([1.5, -0.5]).astype(complex),
                  np.diag([-0.5, 1.5]).astype(complex)])

    def test_first_non_psd_effect_reported(self):
        # effect 2 is the most negative, effect 1 the first below -tol
        with pytest.raises(ValidationError, match="effect 1") as err:
            Povm([np.diag([0.5, 0.5]), np.diag([1.0, -0.2]), np.diag([-0.5, 0.7])])
        assert err.value.residual == -0.2

    def test_first_non_hermitian_effect_reported(self):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="Hermitian") as err:
            Povm([np.eye(2), 2e-8 * skew, 5e-8 * skew])
        assert err.value.residual == 2e-8

    def test_first_non_projection_reported(self):
        # coordinate 1 is split 0.1 / 0.2 / 0.7: defects x(1 - x) = 0.09, 0.16, 0.21
        with pytest.raises(ValidationError, match="projections") as err:
            Pvm([np.diag([1.0, 0.0]), np.diag([0.0, 0.1]), np.diag([0.0, 0.2]),
                 np.diag([0.0, 0.7])])
        assert str(err.value).endswith(": effect 1")
        assert err.value.residual == pytest.approx(0.09)

    def test_first_non_orthogonal_pair_reported(self, monkeypatch):
        # Projections summing to I are orthogonal, so only a Pvm whose POVM
        # checks are skipped can fail here.  Pairs (0,2) and (1,2) overlap; (0,2) is first.
        monkeypatch.setattr(Povm, "_validate", lambda self: None)
        w = np.array([0.3, np.sqrt(0.91), 0.0])
        effects = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.outer(w, w)]
        with pytest.raises(ValidationError, match="orthogonal") as err:
            Pvm(effects)
        assert str(err.value).endswith(": effects 0,2")
        assert err.value.residual == max_abs(effects[0] @ effects[2])

    def test_rejects_bad_completeness(self):
        with pytest.raises(ValidationError, match="sum to identity"):
            Povm([np.diag([0.5, 0.5]).astype(complex),
                  np.diag([0.4, 0.5]).astype(complex)])

    def test_pvm_rejects_non_projection(self):
        with pytest.raises(ValidationError, match="projections"):
            Pvm([np.diag([0.5, 0.5]).astype(complex),
                 np.diag([0.5, 0.5]).astype(complex)])

    def test_pvm_accepts_basis(self):
        assert basis_pvm(3).outcomes == 3

    def test_channel_requires_same_dim(self):
        with pytest.raises(ValidationError, match="dimension"):
            FiniteChannel([basis_pvm(2), basis_pvm(3)])

    def test_measure_monotone_random(self, rng):
        # E(bigger) - E(smaller) is PSD: measures of nested subsets
        for _ in range(10):
            k = int(rng.integers(2, 6))
            povm = Povm(rand.random_povm_effects(3, k, rng))
            small = list(range(k // 2))
            big = list(range(k // 2 + 1))
            diff = povm.measure(big) - povm.measure(small)
            assert np.linalg.eigvalsh(diff)[0] >= -1e-9

    def test_padding_adds_zero_effects(self):
        padded = basis_pvm(2).padded(4)
        assert padded.outcomes == 4
        assert max_abs(padded.effects[3]) == 0.0

    def test_effects_array_matches_padded_povms(self, rng):
        channel = FiniteChannel([Povm(rand.random_povm_effects(3, k, rng)) for k in (2, 3, 4)])
        old = np.stack([povm.effects for povm in channel.padded().povms])
        new = channel.effects_array()
        assert new.dtype == old.dtype and np.array_equal(new, old)


class TestUcpCorrespondence:
    def test_basis_pvm_diagonal_action(self):
        ucp = povm_to_ucp(basis_pvm(2))
        out = apply_ucp(ucp, lambda a: float(a == 0))
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_trivial_povm(self):
        ucp = povm_to_ucp(Povm([np.eye(2, dtype=complex)]))
        out = apply_ucp(ucp, lambda a: 3.5)
        assert np.allclose(out, 3.5 * np.eye(2))

    def test_unitality(self):
        ucp = povm_to_ucp(trine_povm())
        assert max_abs(apply_ucp(ucp, lambda a: 1.0) - np.eye(2)) <= 1e-12

    def test_weighted_sum_example(self):
        povm = Povm([np.diag([0.3, 0.7]).astype(complex),
                     np.diag([0.7, 0.3]).astype(complex)])
        out = apply_ucp(povm_to_ucp(povm), lambda a: float(a))
        assert np.allclose(out, np.diag([0.7, 0.3]))

    def test_indicator_gives_subset_measure(self, rng):
        povm = Povm(rand.random_povm_effects(2, 4, rng))
        ucp = povm_to_ucp(povm)
        subset = [0, 2]
        indicator = [1.0 if a in subset else 0.0 for a in range(4)]
        assert max_abs(apply_ucp(ucp, indicator) - povm.measure(subset)) <= 1e-12

    def test_round_trip_bit_for_bit(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            povm = Povm(rand.random_povm_effects(dim, k, rng))
            back = ucp_to_povm(povm_to_ucp(povm))
            assert np.array_equal(back.effects, povm.effects)

    def test_requires_full_domain(self):
        ucp = povm_to_ucp(basis_pvm(2))
        with pytest.raises(ValidationError, match="all outcomes"):
            apply_ucp(ucp, [1.0])

    def test_malformed_map_rejected(self):
        # a non-unital family of indicator images is not a valid UCP map
        with pytest.raises(ValidationError, match="identity"):
            UcpOnFunctions([np.diag([0.5, 0.5]).astype(complex)])


def channels_commute_loop(e, f):
    """Reference by a four-deep loop: the first worst pair in the order x, y, a, b."""
    worst, witness = 0.0, None
    for x, pe in enumerate(e.povms):
        for y, pf in enumerate(f.povms):
            for a in range(pe.outcomes):
                for b in range(pf.outcomes):
                    r = commutator_norm(pe.effects[a], pf.effects[b])
                    if r > worst:
                        worst, witness = r, (x, a, y, b)
    return worst, witness


class TestCommutation:
    def test_matches_loop(self, rng):
        zx = FiniteChannel([pauli_pvm(PAULI_Z), pauli_pvm(PAULI_X)])
        xz = FiniteChannel([pauli_pvm(PAULI_X), pauli_pvm(PAULI_Z)])
        pairs = [(zx, xz), (xz, zx), (zx, zx)]  # exact ties between pairs
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            e, f = (FiniteChannel([Povm(rand.random_povm_effects(dim, int(k), rng))
                                   for k in rng.integers(1, 5, size=int(rng.integers(1, 4)))])
                    for _ in range(2))
            pairs.append((e, f))
        for e, f in pairs:
            report = channels_commute(e, f)
            assert (report.residual, report.witness) == channels_commute_loop(e, f)
            assert report.commutes == (report.residual <= 1e-9)

    def test_identity_commutes(self):
        ok, residual = commutes_with(trine_povm(), I2)
        assert ok and residual == 0.0

    def test_diagonal_operator(self):
        ok, _ = commutes_with(basis_pvm(2), np.diag([2.0, 5.0]).astype(complex))
        assert ok

    def test_pauli_x_fails(self):
        ok, residual = commutes_with(basis_pvm(2), PAULI_X)
        assert not ok
        assert residual == pytest.approx(1.0)

    def test_tensor_factor_channels_commute(self, rng):
        left = Povm(rand.random_povm_effects(2, 3, rng))
        right = Povm(rand.random_povm_effects(2, 2, rng))
        e = FiniteChannel([Povm([np.kron(eff, I2) for eff in left.effects])])
        f = FiniteChannel([Povm([np.kron(I2, eff) for eff in right.effects])])
        report = channels_commute(e, f)
        assert report.commutes and report.residual <= 1e-12

    def test_same_pvm_commutes(self):
        channel = FiniteChannel([basis_pvm(2)])
        assert channels_commute(channel, channel).commutes

    def test_zx_channels_fail_with_witness(self):
        e = FiniteChannel([pauli_pvm(PAULI_Z)])
        f = FiniteChannel([pauli_pvm(PAULI_X)])
        report = channels_commute(e, f)
        assert not report.commutes
        assert report.residual == pytest.approx(0.5)
        assert report.witness is not None


class TestSerialization:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           outcomes=st.integers(1, 5))
    def test_povm_round_trip_lossless(self, seed, dim, outcomes):
        povm = Povm(rand.random_povm_effects(dim, outcomes, rand.generator(seed)))
        assert np.array_equal(load_povm(dump_povm(povm)).effects, povm.effects)

    def test_channel_round_trip(self, rng):
        channel = FiniteChannel([Povm(rand.random_povm_effects(3, k, rng))
                                 for k in (2, 3, 4)])
        back = load_channel(dump_channel(channel))
        assert back.inputs == 3
        for mine, theirs in zip(channel.povms, back.povms):
            assert np.array_equal(mine.effects, theirs.effects)

    def test_pvm_round_trip_as_pvm(self):
        text = dump_povm(basis_pvm(2))
        assert isinstance(load_povm(text, cls=Pvm), Pvm)

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n" + dump_povm(basis_pvm(2))
        assert load_povm(text).outcomes == 2

    def test_parse_error_carries_line(self):
        text = dump_povm(basis_pvm(2)).splitlines()
        text[1] = "not,numbers garbage"
        with pytest.raises(ParseError) as err:
            load_povm("\n".join(text))
        assert err.value.line == 2

    def test_truncated_block(self):
        lines = dump_povm(basis_pvm(2)).splitlines()[:-1]
        with pytest.raises(ParseError, match="truncated"):
            load_povm("\n".join(lines))

    def test_bare_povm_loads_as_channel(self):
        channel = load_channel(dump_povm(basis_pvm(2)))
        assert channel.inputs == 1
