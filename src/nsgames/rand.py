"""Seeded randomness for strategy search and tests.

Reproducibility contract: every stochastic entry point takes an explicit
64-bit seed.  Per-task streams are derived with splitmix64 (a documented,
platform-independent mixer), and the derived keys seed numpy PCG64 generators
for bulk sampling.  Given the same seed and numpy version, runs are
bit-identical.  ``random_unitaries`` factors a whole stack of Gaussian draws
at once, so a caller draws per stream and makes one QR call for all of them.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def derive_keys(seed: int, count: int) -> list[int]:
    """Derive ``count`` independent 64-bit keys from one seed."""
    state = seed & _MASK
    keys = []
    for _ in range(count):
        state, out = splitmix64(state)
        keys.append(out)
    return keys


def generator(seed: int) -> np.random.Generator:
    """numpy generator keyed by a splitmix64-mixed seed."""
    _, key = splitmix64(seed & _MASK)
    return np.random.Generator(np.random.PCG64(key))


def random_unitaries(gauss: np.ndarray) -> np.ndarray:
    """Haar-ish random unitaries from a (..., d, d) stack of complex Gaussians:
    one stacked QR, each column's phase fixed by the diagonal of R."""
    q, r = np.linalg.qr(gauss)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0  # any nonzero entry has a unit phase
    return q * (diag / np.abs(diag))[..., None, :]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One random unitary from 2 dim^2 standard normal draws (real parts first)."""
    gauss = rng.standard_normal((2, dim, dim))
    return random_unitaries(gauss[0] + 1j * gauss[1])


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random unit vector in C^dim."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_povm_effects(dim: int, outcomes: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-support POVM: E_a = S^{-1/2} G_a S^{-1/2}, G_a = A_a A_a*.

    Returns an (outcomes, dim, dim) array whose effects are PSD and sum to the
    identity up to round-off.
    """
    gram = np.empty((outcomes, dim, dim), dtype=complex)
    for a in range(outcomes):
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gram[a] = mat @ mat.conj().T
    total = gram.sum(axis=0)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    effects = np.einsum("ij,ajk,kl->ail", inv_root, gram, inv_root)
    return (effects + np.conj(np.transpose(effects, (0, 2, 1)))) / 2.0


def noisy_basis_effects(unitaries: np.ndarray, outcomes: int, eta: np.ndarray) -> np.ndarray:
    """eta P_a + (1 - eta) I/outcomes, (..., outcomes, d, d), for (..., d, d)
    ``unitaries`` and ``eta`` broadcasting against their leading axes.  P_a
    projects onto the a-th block of columns of ``np.array_split(range(d),
    outcomes)``: when outcomes > d the trailing effects are zero projections."""
    dim = unitaries.shape[-1]
    quotient, extra = divmod(dim, outcomes)
    labels = np.repeat(np.arange(outcomes), quotient + (np.arange(outcomes) < extra))
    pvm = np.zeros((*unitaries.shape[:-2], outcomes, dim, dim), dtype=complex)
    for i, a in enumerate(labels.tolist()):
        col = unitaries[..., :, i]
        pvm[..., a, :, :] += col[..., :, None] * col.conj()[..., None, :]
    eta = np.asarray(eta)[..., None, None, None]
    return eta * pvm + (1.0 - eta) * (np.eye(dim, dtype=complex) / outcomes)
