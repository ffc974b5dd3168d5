import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames import (
    FiniteChannel,
    Povm,
    PreconditionError,
    Pvm,
    ValidationError,
    channels_commute,
    commutes_with,
    joint_commuting_dilation,
    naimark,
    product_channel,
    product_povm_commuting,
    simultaneous_naimark,
    tensor_povm,
)
from nsgames import rand
from nsgames.errors import INVARIANT_TOL
from nsgames.linalg import commutator_norm, max_abs

from conftest import I2, PAULI_X, PAULI_Z, basis_pvm, commuting_povm_pair, pauli_pvm, trine_povm


def reconstruction_residual(dilation, povm):
    v = dilation.isometry
    return max(
        max_abs(v.conj().T @ dilation.dilated.effects[a] @ v - povm.effects[a])
        for a in range(povm.outcomes)
    )


class TestNaimark:
    def test_pvm_input_is_exact(self):
        pvm = pauli_pvm(PAULI_Z)
        dil = naimark(pvm)
        assert dil.residual <= 1e-12
        assert reconstruction_residual(dil, pvm) <= 1e-12

    def test_trine(self):
        dil = naimark(trine_povm())
        assert dil.dilation_dim == 6
        assert dil.residual <= 1e-10

    def test_one_outcome(self):
        dil = naimark(Povm([np.eye(3, dtype=complex)]))
        assert dil.dilation_dim == 3
        assert np.allclose(dil.isometry, np.eye(3))
        assert np.allclose(dil.dilated.effects[0], np.eye(3))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           outcomes=st.integers(1, 5))
    def test_random_povms(self, seed, dim, outcomes):
        povm = Povm(rand.random_povm_effects(dim, outcomes, rand.generator(seed)))
        dil = naimark(povm)
        v = dil.isometry
        assert dil.isometry_residual == max_abs(v.conj().T @ v - np.eye(dim)) <= 1e-10
        assert isinstance(dil.dilated, Pvm)
        assert dil.residual <= 1e-9


class TestSimultaneousNaimark:
    def test_pvm_channel(self):
        channel = FiniteChannel([pauli_pvm(PAULI_Z), basis_pvm(2)])
        dil = simultaneous_naimark(channel)
        assert dil.residual <= 1e-10
        assert len(dil.dilated) == 2

    def test_noisy_zx_channel(self):
        eta = 0.8
        noisy_z = Povm([(I2 + eta * PAULI_Z) / 2, (I2 - eta * PAULI_Z) / 2])
        noisy_x = Povm([(I2 + eta * PAULI_X) / 2, (I2 - eta * PAULI_X) / 2])
        dil = simultaneous_naimark(FiniteChannel([noisy_z, noisy_x]))
        assert dil.dilation_dim == 4
        w = dil.isometry
        for pvm, povm in zip(dil.dilated, (noisy_z, noisy_x)):
            for a in range(2):
                err = max_abs(w.conj().T @ pvm.effects[a] @ w - povm.effects[a])
                assert err <= 1e-9

    def test_one_input_consistent_with_naimark(self, rng):
        povm = Povm(rand.random_povm_effects(2, 3, rng))
        single = simultaneous_naimark(FiniteChannel([povm]))
        base = naimark(povm)
        assert single.dilation_dim == base.dilation_dim
        # both reconstruct the POVM through their own isometries
        w = single.isometry
        assert max(
            max_abs(w.conj().T @ single.dilated[0].effects[a] @ w - povm.effects[a])
            for a in range(3)
        ) <= 1e-9

    def test_every_member_is_projective(self, rng):
        channel = FiniteChannel([Povm(rand.random_povm_effects(3, 4, rng))
                                 for _ in range(3)])
        dil = simultaneous_naimark(channel)
        w = dil.isometry
        for pvm, povm in zip(dil.dilated, channel.povms):
            assert isinstance(pvm, Pvm)
            assert max(max_abs(w.conj().T @ pvm.effects[a] @ w - povm.effects[a])
                       for a in range(4)) <= INVARIANT_TOL

    def test_isometry_is_input_independent_inclusion(self, rng):
        channel = FiniteChannel([Povm(rand.random_povm_effects(2, 2, rng))
                                 for _ in range(2)])
        dil = simultaneous_naimark(channel)
        expected = np.zeros((4, 2))
        expected[:2, :2] = np.eye(2)
        assert np.array_equal(dil.isometry, expected)

    def test_mixed_outcome_counts_rejected(self, rng):
        channel = FiniteChannel([Povm(rand.random_povm_effects(2, 2, rng)),
                                 Povm(rand.random_povm_effects(2, 3, rng))])
        with pytest.raises(ValidationError, match="outcome count"):
            simultaneous_naimark(channel)
        assert simultaneous_naimark(channel.padded()).residual <= 1e-9


class TestJointCommutingDilation:
    def test_same_basis_pvm(self):
        pvm = basis_pvm(2)
        dil = joint_commuting_dilation(pvm, pvm)
        assert dil.cross_residual == 0.0
        assert dil.residual <= 1e-12

    def test_tensor_pauli_pair(self):
        e = Povm([np.kron(eff, I2) for eff in pauli_pvm(PAULI_Z).effects])
        f = Povm([np.kron(I2, eff) for eff in pauli_pvm(PAULI_X).effects])
        dil = joint_commuting_dilation(e, f)
        assert dil.cross_residual <= 1e-10
        v = dil.isometry
        assert dil.isometry_residual == max_abs(v.conj().T @ v - np.eye(4))
        for a in range(2):
            for b in range(2):
                lhs = v.conj().T @ dil.pvm_p.effects[a] @ dil.pvm_q.effects[b] @ v
                rhs = e.effects[a] @ f.effects[b]
                assert max_abs(lhs - rhs) <= 1e-9

    def test_trivial_second_factor(self, rng):
        e = Povm(rand.random_povm_effects(2, 3, rng))
        f = Povm([np.eye(2, dtype=complex)])
        dil = joint_commuting_dilation(e, f)
        assert dil.pvm_q.outcomes == 1
        assert max_abs(dil.pvm_q.effects[0] - np.eye(dil.dilation_dim)) <= 1e-12
        v = dil.isometry
        for a in range(3):
            assert max_abs(v.conj().T @ dil.pvm_p.effects[a] @ v - e.effects[a]) <= 1e-9

    def test_exact_commutation_by_construction(self, rng):
        e, f = commuting_povm_pair(3, 3, 2, rng)
        dil = joint_commuting_dilation(e, f)
        cross = max(
            commutator_norm(dil.pvm_p.effects[a], dil.pvm_q.effects[b])
            for a in range(3) for b in range(2)
        )
        assert cross == 0.0

    def test_non_commuting_rejected_with_witness(self):
        with pytest.raises(PreconditionError) as err:
            joint_commuting_dilation(pauli_pvm(PAULI_Z), pauli_pvm(PAULI_X))
        assert err.value.witness is not None


class TestProductPovm:
    def test_trivial_factor(self, rng):
        e = Povm(rand.random_povm_effects(2, 3, rng))
        product = product_povm_commuting(e, Povm([np.eye(2, dtype=complex)]))
        assert product.outcomes == 3
        assert max(max_abs(product.effects[a] - e.effects[a]) for a in range(3)) <= 1e-12

    def test_diagonal_entrywise(self):
        e = Povm([np.diag([0.2, 0.6]).astype(complex), np.diag([0.8, 0.4]).astype(complex)])
        f = Povm([np.diag([0.5, 0.1]).astype(complex), np.diag([0.5, 0.9]).astype(complex)])
        product = product_povm_commuting(e, f)
        assert np.allclose(product.effects[0 * 2 + 1], np.diag([0.1, 0.54]))

    def test_marginals_recover_factors(self, rng):
        e, f = commuting_povm_pair(2, 2, 3, rng)
        product = product_povm_commuting(e, f)
        for a in range(2):
            marg = sum(product.effects[a * 3 + b] for b in range(3))
            assert max_abs(marg - e.effects[a]) <= 1e-10
        for b in range(3):
            marg = sum(product.effects[a * 3 + b] for a in range(2))
            assert max_abs(marg - f.effects[b]) <= 1e-10

    def test_rejects_non_commuting(self):
        with pytest.raises(PreconditionError):
            product_povm_commuting(pauli_pvm(PAULI_Z), pauli_pvm(PAULI_X))


@pytest.mark.parametrize("call", [
    lambda e, f: commutes_with(e, f.effects[0]),
    lambda e, f: channels_commute(FiniteChannel([e]), FiniteChannel([f])),
    product_povm_commuting,
    joint_commuting_dilation,
], ids=["commutes_with", "channels_commute", "product_povm_commuting",
        "joint_commuting_dilation"])
def test_mismatched_dimensions_raise(call):
    with pytest.raises(ValidationError, match="equal dimensions"):
        call(pauli_pvm(PAULI_Z), basis_pvm(3))


class TestTensorPovm:
    def test_basis_pvms(self):
        out = tensor_povm(basis_pvm(2), basis_pvm(2))
        assert isinstance(out, Pvm)
        assert out.dim == 4 and out.outcomes == 4
        assert max_abs(out.effects[0 * 2 + 1] - np.diag([0, 1, 0, 0.0])) <= 1e-12

    def test_padding_with_trivial_factor(self, rng):
        e = Povm(rand.random_povm_effects(2, 3, rng))
        out = tensor_povm(e, Povm([np.eye(3, dtype=complex)]))
        assert out.dim == 6 and out.outcomes == 3

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_pairs_valid(self, seed):
        rng = rand.generator(seed)
        e = Povm(rand.random_povm_effects(2, 2, rng))
        f = Povm(rand.random_povm_effects(3, 2, rng))
        tensor_povm(e, f)  # constructor revalidates PSD and completeness

    def test_mixed_types_degrade_to_povm(self, rng):
        out = tensor_povm(basis_pvm(2), Povm(rand.random_povm_effects(2, 2, rng)))
        assert isinstance(out, Povm) and not isinstance(out, Pvm)


class TestProductChannel:
    def test_tensor_of_pvm_channels(self):
        e = FiniteChannel([basis_pvm(2)])
        f = FiniteChannel([basis_pvm(3)])
        product = product_channel(e, f, mode="tensor")
        assert product.inputs == 1
        assert product.dim == 6
        assert isinstance(product.povms[0], Pvm)

    def test_commuting_matches_tensor_on_factors(self):
        z_big = Povm([np.kron(eff, I2) for eff in pauli_pvm(PAULI_Z).effects])
        x_big = Povm([np.kron(I2, eff) for eff in pauli_pvm(PAULI_X).effects])
        commuting = product_channel(FiniteChannel([z_big]), FiniteChannel([x_big]),
                                    mode="commuting")
        tensor = product_channel(FiniteChannel([pauli_pvm(PAULI_Z)]),
                                 FiniteChannel([pauli_pvm(PAULI_X)]), mode="tensor")
        for p, q in zip(commuting.povms, tensor.povms):
            assert max(max_abs(p.effects[i] - q.effects[i])
                       for i in range(p.outcomes)) <= 1e-12

    def test_trivial_second_channel_replicates(self, rng):
        e = FiniteChannel([Povm(rand.random_povm_effects(2, 2, rng)) for _ in range(2)])
        trivial = FiniteChannel([Povm([np.eye(2, dtype=complex)]) for _ in range(3)])
        product = product_channel(e, trivial, mode="commuting")
        assert product.inputs == 6
        for x in range(2):
            for y in range(3):
                member = product.povms[x * 3 + y]
                assert max(max_abs(member.effects[a] - e.povms[x].effects[a])
                           for a in range(2)) <= 1e-12

    def test_uneven_outcomes_padded(self, rng):
        e = FiniteChannel([Povm(rand.random_povm_effects(2, 2, rng)),
                           Povm(rand.random_povm_effects(2, 3, rng))])
        f = FiniteChannel([basis_pvm(2)])
        product = product_channel(e, f, mode="tensor")
        assert all(p.outcomes == 6 for p in product.povms)
