import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames import (
    NotPsdError,
    PreconditionError,
    commutator_norm,
    extend_isometry_to_unitary,
    herm_eig,
    kron,
    psd_sqrt,
)
from nsgames import rand
from nsgames import ValidationError
from nsgames.linalg import hermitize, max_abs, require_hermitian

from conftest import PAULI_X, PAULI_Z


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(m)


class TestHermiticityStacks:
    def test_identity_stack(self):
        stack = np.stack([np.eye(2, dtype=complex)] * 2)
        assert max_abs(stack - stack.conj().swapaxes(-1, -2)) == 0.0
        assert np.array_equal(require_hermitian(stack), stack)

    def test_defect_of_worst_member(self, rng):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        stack = np.stack([random_hermitian(2, rng), random_hermitian(2, rng) + 0.25 * skew])
        worst = stack[1]
        assert (max_abs(stack - stack.conj().swapaxes(-1, -2))
                == max_abs(worst - worst.conj().swapaxes(-1, -2)) == 0.25)

    def test_first_offender_reported(self):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        stack = np.stack([0.1 * skew, 0.3 * skew])
        with pytest.raises(ValidationError, match="Hermitian") as err:
            require_hermitian(stack, tol=0.05)
        assert err.value.residual == 0.1
        nonfinite = np.stack([np.eye(2), np.full((2, 2), np.nan)]).astype(complex)
        with pytest.raises(ValidationError, match="finite entries"):
            require_hermitian(nonfinite)

    def test_herm_eig_rejects_stack(self):
        with pytest.raises(ValidationError, match="square matrix"):
            herm_eig(np.stack([np.eye(2, dtype=complex)] * 2))


class TestHermEig:
    def test_identity(self):
        vals, vecs = herm_eig(np.eye(3, dtype=complex))
        assert np.allclose(vals, [1, 1, 1])
        assert max_abs(vecs.conj().T @ vecs - np.eye(3)) <= 1e-10

    def test_already_diagonal(self):
        vals, vecs = herm_eig(np.diag([2.0, -1.0]).astype(complex))
        assert np.allclose(vals, [2.0, -1.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_pauli_x(self):
        # hand eigendecomposition: eigenvalues (1, -1), eigenvectors (1, +-1)/sqrt(2)
        vals, vecs = herm_eig(PAULI_X)
        assert np.allclose(vals, [1.0, -1.0])
        expected = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(np.abs(vecs[:, 0]), expected)
        assert np.allclose(np.abs(vecs[:, 1]), expected)

    def test_descending_order(self, rng):
        vals, _ = herm_eig(random_hermitian(6, rng))
        assert np.all(np.diff(vals) <= 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 16))
    def test_reconstruction(self, seed, dim):
        m = random_hermitian(dim, rand.generator(seed))
        vals, vecs = herm_eig(m)
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert max_abs(rebuilt - m) <= 1e-9


class TestPsdSqrt:
    def test_identity(self):
        assert max_abs(psd_sqrt(np.eye(3, dtype=complex)) - np.eye(3)) <= 1e-12

    def test_diagonal(self):
        root = psd_sqrt(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(root, np.diag([2.0, 3.0]))

    def test_projection_is_own_root(self):
        proj = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        assert max_abs(psd_sqrt(proj) - proj) <= 1e-12

    def test_random_projections_fixed(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            unitary = rand.random_unitary(dim, rng)
            rank = int(rng.integers(1, dim + 1))
            proj = unitary[:, :rank] @ unitary[:, :rank].conj().T
            assert max_abs(psd_sqrt(proj) - proj) <= 1e-10

    def test_square_law(self, rng):
        m = random_hermitian(5, rng)
        m = m @ m.conj().T  # PSD
        root = psd_sqrt(m)
        assert max_abs(root @ root - m) <= 1e-9

    def test_not_psd_error(self):
        with pytest.raises(NotPsdError) as err:
            psd_sqrt(np.diag([1.0, -0.5]).astype(complex))
        assert err.value.eigenvalue == pytest.approx(-0.5)

    def test_clipping_band(self):
        root = psd_sqrt(np.diag([1.0, -5e-10]).astype(complex))
        assert np.linalg.eigvalsh(root)[0] >= -1e-12


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(np.diag(out), [0, 1, 0, 0])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mixed_product_identity(self, seed):
        rng = rand.generator(seed)
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert max_abs(lhs - rhs) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        rng = rand.generator(seed)
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(3))
        assert max_abs(kron(kron(a, b), c) - kron(a, kron(b, c))) <= 1e-12


class TestIsometryCompletion:
    def test_identity_is_fixed_point(self):
        assert np.array_equal(extend_isometry_to_unitary(np.eye(3, dtype=complex)),
                              np.eye(3))

    def test_first_basis_column(self):
        column = np.eye(2, dtype=complex)[:, :1]
        assert np.array_equal(extend_isometry_to_unitary(column), np.eye(2))

    def test_hadamard_column(self):
        column = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        unitary = extend_isometry_to_unitary(column)
        expected = np.array([-1.0, 1.0]) / np.sqrt(2)  # Householder QR's completion
        assert np.allclose(unitary[:, 1], expected)
        assert max_abs(unitary.conj().T @ unitary - np.eye(2)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           k=st.integers(1, 8), h=st.integers(1, 8))
    def test_random_isometries(self, seed, k, h):
        if h > k:
            k, h = h, k
        v = rand.random_unitary(k, rand.generator(seed))[:, :h]
        unitary = extend_isometry_to_unitary(v)
        assert max_abs(unitary[:, :h] - v) <= 1e-10
        assert max_abs(unitary.conj().T @ unitary - np.eye(k)) <= 1e-10

    def test_rejects_non_isometry(self):
        with pytest.raises(PreconditionError):
            extend_isometry_to_unitary(np.ones((2, 1), dtype=complex))


class TestCommutatorNorm:
    def test_self_commutes(self, rng):
        m = random_hermitian(4, rng)
        assert commutator_norm(m, m) == 0.0

    def test_diagonals_commute(self):
        assert commutator_norm(np.diag([1.0, 2.0]).astype(complex),
                               np.diag([3.0, 4.0]).astype(complex)) == 0.0

    def test_pauli_xz(self):
        # XZ - ZX = [[0,-2],[2,0]]: max-entry 2, by direct 2x2 multiplication
        assert commutator_norm(PAULI_X, PAULI_Z) == pytest.approx(2.0)

    def test_stacks_give_every_pair(self, rng):
        a = np.stack([random_hermitian(3, rng) for _ in range(6)]).reshape(2, 3, 3, 3)
        b = np.stack([random_hermitian(3, rng) for _ in range(4)])
        norms = commutator_norm(a, b)
        assert norms.shape == (2, 3, 4)
        for i, j, k in itertools.product(range(2), range(3), range(4)):
            assert norms[i, j, k] == commutator_norm(a[i, j], b[k])
