"""Shared fixtures and stock objects for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from nsgames import Correlation, Povm, Pvm, rand

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def basis_pvm(dim: int = 2) -> Pvm:
    eye = np.eye(dim, dtype=complex)
    return Pvm([np.outer(eye[:, i], eye[:, i].conj()) for i in range(dim)])


def pauli_pvm(op: np.ndarray) -> Pvm:
    return Pvm([(I2 + op) / 2, (I2 - op) / 2])


def trine_povm() -> Povm:
    effects = []
    for theta in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
        ket = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
        effects.append((2.0 / 3.0) * np.outer(ket, ket.conj()))
    return Povm(effects)


def pr_box() -> Correlation:
    p = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) == (x & y):
                        p[x, y, a, b] = 0.5
    return Correlation(p)


def commuting_povm_pair(dim: int, k1: int, k2: int, rng: np.random.Generator):
    """POVMs diagonal in one random basis: exactly commuting ranges."""
    unitary = rand.random_unitary(dim, rng)

    def build(k: int) -> Povm:
        probs = rng.dirichlet(np.ones(k), size=dim)  # rows: per basis vector
        effects = []
        for a in range(k):
            diag = np.diag(probs[:, a]).astype(complex)
            effects.append(unitary @ diag @ unitary.conj().T)
        return Povm(effects)

    return build(k1), build(k2)


@pytest.fixture
def rng():
    return rand.generator(20240925)


@pytest.fixture
def r0():
    """R0: a seeded 2x2x2x2 predicate with uniform questions, whose only
    relabeling is the identity."""
    from nsgames import FiniteGame

    return FiniteGame(np.random.default_rng(5).random((2, 2, 2, 2)) < 0.5,
                      np.full((2, 2), 0.25), name="R0")


def lifted_relabelings(game) -> tuple:
    """Reference for a game's ``symmetry`` (group, width): each base relabeling
    applied to one coordinate of the width-``width`` tuple alphabets, as stacked
    (px, py, sa, sb) index arrays of the game; all relabelings at coordinate 0
    first, then those at coordinate 1, ...  The identity is left out."""
    from nsgames.strategies import map_digits

    group, width = game.symmetry
    px, py, sa, sb = (part[1:] for part in group)
    base_shape = px.shape[1], py.shape[1], sa.shape[2], sb.shape[2]
    # every coordinate of every tuple over each base alphabet, (tuples, width)
    digits = dx, dy, da, db = [map_digits(np.arange(n ** width), width, n) for n in base_shape]
    places = [n ** np.arange(width - 1, -1, -1) for n in base_shape]
    images = (px[:, dx], py[:, dy], sa[:, dx[:, None], da], sb[:, dy[:, None], db])
    lifted = [np.moveaxis(np.arange(n ** width)[:, None] + (image - d) * p, -1, 0)
              .reshape(width * len(image), *image.shape[1:-1])
              for n, p, d, image in zip(base_shape, places, digits, images)]
    return tuple(lifted)
