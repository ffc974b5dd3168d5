"""Optimization engines behind game values.

Three engines live here:

* ``ns_value`` -- exact supremum over the no-signalling polytope, as a linear
  program over the correlation entries (nonnegativity, per-pair normalization,
  and the marginal equalities).  The constraints are built as one sparse
  matrix and solved by HiGHS through ``simplex.simplex_solve``.  The result
  is certified from both sides, by the primal correlation and by a dual
  bound.  ``NS_LP_CAP`` (1e8 rows x columns) caps the solve time: larger LPs
  raise ``TooLargeError`` before anything is built.
* ``local_value`` -- exact maximum over deterministic strategy pairs.  Alice's
  maps are enumerated (cap 1e8) by the kernel in ``strategies``: a
  meet-in-the-middle split of her input set, scored in exact integers when
  the payoffs allow it (uniform questions) and in float64 otherwise.  Bob's
  best reply, computed in closed form per question, gives the value.  The
  enumeration order is row-major over (f(0), ..., f(nX-1)) with f(0) most
  significant, and ties break to the lowest strategy index (exactly on the
  integer path).
* ``qs_seesaw`` -- alternating ascent over Alice's measurements, Bob's
  measurements, and the shared state, returning a certified quantum-spatial
  lower bound (the certificate is an explicit finite-dimensional strategy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import rand, strategies
from .channels import FiniteChannel, Povm
from .correlations import Correlation, is_no_signalling, qs_probabilities
from .errors import NumericError, TooLargeError, ValidationError
from .linalg import hermitize
from .simplex import LinearProgram, simplex_solve

if TYPE_CHECKING:  # pragma: no cover
    from .games import FiniteGame

LOCAL_ENUM_CAP = 10 ** 8
NS_LP_CAP = 10 ** 8  # rows x columns of the no-signalling LP: a solve-time cap


# ---------------------------------------------------------------------------
# No-signalling value (linear programming)
# ---------------------------------------------------------------------------


def ns_value_lp(game: "FiniteGame") -> LinearProgram:
    """The LP whose optimum is the no-signalling value of the game.

    Variables are the entries p(a,b|x,y) flattened row-major over (x,y,a,b);
    constraints are per-(x,y) normalization and the no-signalling equalities
    between consecutive question pairs (which imply all pairs), built as one
    sparse CSR matrix.  ``NS_LP_CAP`` bounds rows x columns before anything is
    built.
    """
    from scipy.sparse import coo_array

    nX, nY, nA, nB = game.shape
    n_vars = nX * nY * nA * nB
    n_rows = nX * nY + nX * nA * (nY - 1) + nY * nB * (nX - 1)
    if n_rows * n_vars > NS_LP_CAP:
        raise TooLargeError(
            f"no-signalling LP would hold {n_rows} x {n_vars} dense entries, over cap "
            f"{NS_LP_CAP}")
    index = np.arange(n_vars).reshape(nX, nY, nA, nB)
    rows = [np.repeat(np.arange(nX * nY), nA * nB)]
    cols = [index.reshape(-1)]
    vals = [np.ones(n_vars)]
    start = nX * nY
    # Alice's rows (x, a, y), then Bob's rows (y, b, x): the marginal of the
    # outcome at question y (or x) minus the marginal at the next question.
    for t in (index.transpose(0, 2, 1, 3), index.transpose(1, 3, 0, 2)):
        context, outcome, other, _ = t.shape
        row = start + np.arange(context * outcome * (other - 1)).reshape(
            context, outcome, other - 1, 1)
        for part, sign in ((t[:, :, :-1], 1.0), (t[:, :, 1:], -1.0)):
            rows.append(np.broadcast_to(row, part.shape).reshape(-1))
            cols.append(part.reshape(-1))
            vals.append(np.full(part.size, sign))
        start += row.size
    a_eq = coo_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                     shape=(n_rows, n_vars)).tocsr()
    b_eq = np.zeros(n_rows)
    b_eq[: nX * nY] = 1.0
    objective = (game.dist[:, :, None, None] * game.win).reshape(-1)
    return LinearProgram(objective, a_eq=a_eq, b_eq=b_eq)


def ns_value(game: "FiniteGame") -> tuple[float, Correlation]:
    """Exact no-signalling value with an attaining correlation.

    The optimum is checked from both sides before it is returned.  The primal
    must be a no-signalling ``Correlation``; the value is its payoff with each
    (x,y) slice and the question distribution divided by their sums, clamped
    to [0, 1], so that a game the primal wins surely reads exactly 1.0 even
    when the float question weights sum to 1 - 1e-16.  The dual y must be
    feasible, c - A^T y <= tol, and its bound b.y must reach the value less
    tol, with tol = ``games.VALUE_TOL``.  Either failure raises
    ``NumericError``.
    """
    from .games import VALUE_TOL  # games imports this module

    lp = ns_value_lp(game)
    result = simplex_solve(lp)
    if result.status != "optimal":  # pragma: no cover - polytope is nonempty
        raise NumericError(f"no-signalling LP ended with status {result.status}")
    try:
        corr = Correlation(result.x.reshape(game.shape))
    except ValidationError as exc:
        raise NumericError(f"no-signalling primal is not a correlation: {exc}") from exc
    ok, cert = is_no_signalling(corr, VALUE_TOL)
    if not ok:
        raise NumericError("no-signalling primal signals", residual=cert.worst)
    won = (game.win * corr.p).sum(axis=(2, 3)) / corr.p.sum(axis=(2, 3))
    value = min(max(float(np.sum(game.dist * won) / np.sum(game.dist)), 0.0), 1.0)
    excess = float(np.max(lp.objective - lp.a_eq.T @ result.dual))
    if excess > VALUE_TOL:
        raise NumericError("no-signalling dual is infeasible", residual=excess)
    bound = float(lp.b_eq @ result.dual)
    if bound < value - VALUE_TOL:
        raise NumericError("no-signalling dual bound is below the value",
                           residual=value - bound)
    return value, corr


# ---------------------------------------------------------------------------
# Local value (exact deterministic enumeration)
# ---------------------------------------------------------------------------


def _payoff_tensor(game: "FiniteGame") -> np.ndarray:
    """T[x, a, y, b] = pi0(x,y) * win(x,y,a,b)."""
    return np.einsum("xy,xyab->xayb", game.dist, game.win.astype(float))


def _check_local_cap(game: "FiniteGame") -> None:
    if game.nA ** game.nX > LOCAL_ENUM_CAP:
        raise TooLargeError(
            f"deterministic enumeration size {game.nA}^{game.nX} exceeds cap "
            f"{LOCAL_ENUM_CAP}; use ns_value for an upper bound instead")


def local_value(game: "FiniteGame") -> tuple[float, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact classical value and an optimal deterministic pair (f, g)."""
    _check_local_cap(game)
    value, f, g = strategies.argmax_strategy(_payoff_tensor(game))
    return value, (f, g)


def top_deterministic_strategies(
    game: "FiniteGame", count: int
) -> list[tuple[tuple[int, ...], tuple[int, ...], float]]:
    """The ``count`` best deterministic pairs, ordered by value then f index."""
    _check_local_cap(game)
    ranked = strategies.top_strategies(_payoff_tensor(game), count)
    return [(f, g, value) for value, f, g in ranked]


# ---------------------------------------------------------------------------
# Quantum-spatial lower bound (see-saw)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class SeesawState:
    """A quantum-spatial strategy found by the see-saw, with its value.

    ``history`` is the winning seed's objective after each sweep (starting
    from the initial strategy); ``all_histories`` collects one such trace per
    seed, in seed order.  The value is a certified lower bound on the
    quantum-spatial game value at this dimension.
    """

    dimension: int
    alice: FiniteChannel
    bob: FiniteChannel
    psi: np.ndarray
    value: float
    history: tuple[float, ...] = ()
    all_histories: tuple[tuple[float, ...], ...] = field(default=(), compare=False)

    def __init__(self, dimension, alice, bob, psi, value, history=(), all_histories=()):
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError("unit state", residual=abs(norm - 1.0))
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise ValidationError("objective in [0,1]", residual=float(value))
        psi.setflags(write=False)
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "value", float(min(max(value, 0.0), 1.0)))
        object.__setattr__(self, "history", tuple(history))
        object.__setattr__(self, "all_histories", tuple(all_histories))

    def __repr__(self) -> str:
        return f"SeesawState(d={self.dimension}, value={self.value:.6f})"


def seesaw_measurement_update(payoff_ops: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Maximize sum_b tr(R_b F_b) over POVMs F.

    Two outcomes are solved exactly: F_0 is the spectral projection of
    R_0 - R_1 onto eigenvalues > 0 (eigenvalues within 1e-12 of zero count as
    positive), F_1 its complement.  More outcomes use a greedy rank-one
    assignment of eigenvectors, keeping the input POVM whenever the greedy
    result would decrease the objective.
    """
    k, d = payoff_ops.shape[0], payoff_ops.shape[1]
    if k == 1:
        return np.eye(d, dtype=complex)[None, :, :]
    if k == 2:
        vals, vecs = np.linalg.eigh(hermitize(payoff_ops[0] - payoff_ops[1]))
        selected = vecs[:, vals >= -1e-12]
        f0 = selected @ selected.conj().T
        return np.stack([f0, np.eye(d) - f0]).astype(complex)

    basis = np.eye(d, dtype=complex)
    assignments: list[list[np.ndarray]] = [[] for _ in range(k)]
    for _ in range(d):
        r = basis.shape[1]
        best = None
        for b in range(k):
            reduced = hermitize(basis.conj().T @ payoff_ops[b] @ basis)
            vals, vecs = np.linalg.eigh(reduced)
            if best is None or vals[-1] > best[0] + 1e-15:
                best = (float(vals[-1]), b, vecs[:, -1])
        _, b_star, coeffs = best
        vector = basis @ coeffs
        assignments[b_star].append(vector)
        if r > 1:
            rotation = _complement_basis(coeffs)
            basis = basis @ rotation
        else:
            basis = np.zeros((d, 0), dtype=complex)
    candidate = np.zeros((k, d, d), dtype=complex)
    for b in range(k):
        for vector in assignments[b]:
            candidate[b] += np.outer(vector, vector.conj())
    gain_new = float(np.einsum("bij,bji->", payoff_ops, candidate).real)
    gain_old = float(np.einsum("bij,bji->", payoff_ops, current).real)
    return candidate if gain_new >= gain_old - 1e-15 else current


def _complement_basis(unit: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of a unit vector."""
    r = unit.shape[0]
    column = unit.reshape(r, 1) / np.linalg.norm(unit)
    from .linalg import extend_isometry_to_unitary

    return extend_isometry_to_unitary(column)[:, 1:]


def seesaw_state_update(operator: np.ndarray) -> np.ndarray:
    """Top unit eigenvector of a Hermitian operator, canonically phased.

    Among eigenvalues within 1e-12 of the maximum the lowest eigh index is
    taken, and the phase is fixed by making the largest-magnitude component
    real and positive; for the identity this yields the first basis vector.
    """
    vals, vecs = np.linalg.eigh(hermitize(operator))
    idx = int(np.argmax(vals >= vals[-1] - 1e-12))
    vector = vecs[:, idx]
    pivot = int(np.argmax(np.abs(vector)))
    phase = vector[pivot] / abs(vector[pivot])
    vector = vector / phase
    return vector / np.linalg.norm(vector)


def _strategy_value(weight: np.ndarray, alice: np.ndarray, bob: np.ndarray,
                    psi: np.ndarray) -> float:
    probs = qs_probabilities(alice, bob, psi)
    return float(np.sum(weight * probs))


def _deterministic_effects(strategy: tuple[int, ...], outcomes: int, dim: int) -> np.ndarray:
    effects = np.zeros((len(strategy), outcomes, dim, dim), dtype=complex)
    for x, a in enumerate(strategy):
        effects[x, a] = np.eye(dim)
    return effects


def _seed_strategies(game: "FiniteGame", dim: int, seeds: int, rng_seed: int):
    """Initial strategies: half top deterministic embeddings, half noisy random.

    The deterministic half guarantees the final lower bound dominates the
    classical value (the see-saw never decreases the objective).  Games too
    large to rank deterministically fall back to all-random seeding.
    """
    n_det = seeds // 2
    det: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if n_det > 0 and game.nA ** game.nX <= LOCAL_ENUM_CAP:
        det = [(f, g) for f, g, _ in top_deterministic_strategies(game, n_det)]
    keys = rand.derive_keys(rng_seed, seeds)
    strategies = []
    for i in range(seeds):
        if i < n_det and det:
            f, g = det[i % len(det)]
            alice = _deterministic_effects(f, game.nA, dim)
            bob = _deterministic_effects(g, game.nB, dim)
            psi = np.zeros(dim * dim, dtype=complex)
            psi[0] = 1.0
        else:
            rng = rand.generator(keys[i])
            eta_a = rng.uniform(0.5, 1.0)
            eta_b = rng.uniform(0.5, 1.0)
            alice = np.stack([rand.noisy_basis_povm_effects(dim, game.nA, eta_a, rng)
                              for _ in range(game.nX)])
            bob = np.stack([rand.noisy_basis_povm_effects(dim, game.nB, eta_b, rng)
                            for _ in range(game.nY)])
            psi = rand.random_state(dim * dim, rng)
        strategies.append((alice, bob, psi))
    return strategies


def qs_seesaw(game: "FiniteGame", dim: int = 2, seeds: int = 20,
              max_sweeps: int = 200, rng_seed: int = 0) -> SeesawState:
    """Best see-saw strategy over all seeds; a lower bound on the qs value.

    Each sweep updates Alice's POVMs, then Bob's, then the state, every
    sub-step being an exact or non-decreasing ascent step; a seed stops when
    the relative gain over one sweep falls below 1e-10.  Ties across seeds
    break to the lowest seed index.
    """
    if dim < 1:
        raise ValidationError("dimension >= 1", residual=float(dim))
    weight = game.dist[:, :, None, None] * game.win.astype(float)
    best: tuple[float, int, tuple, tuple[float, ...]] | None = None
    histories: list[tuple[float, ...]] = []
    for index, (alice, bob, psi) in enumerate(_seed_strategies(game, dim, seeds, rng_seed)):
        trace = [_strategy_value(weight, alice, bob, psi)]
        for _ in range(max_sweeps):
            mat = psi.reshape(dim, dim)
            reduced_a = np.einsum("ij,xaik,kl->xajl", mat.conj(), alice, mat)
            bob_ops = np.einsum("xyab,xajl->ybjl", weight, reduced_a).conj()
            bob = np.stack([
                seesaw_measurement_update(
                    np.stack([hermitize(bob_ops[y, b]) for b in range(game.nB)]), bob[y])
                for y in range(game.nY)
            ])
            reduced_b = np.einsum("ij,ybjl,kl->ybik", mat.conj(), bob, mat)
            alice_ops = np.einsum("xyab,ybik->xaik", weight, reduced_b).conj()
            alice = np.stack([
                seesaw_measurement_update(
                    np.stack([hermitize(alice_ops[x, a]) for a in range(game.nA)]), alice[x])
                for x in range(game.nX)
            ])
            operator = np.einsum("xyab,xaij,ybkl->ikjl", weight, alice, bob)
            psi = seesaw_state_update(operator.reshape(dim * dim, dim * dim))
            trace.append(_strategy_value(weight, alice, bob, psi))
            if trace[-1] - trace[-2] < 1e-10 * max(1.0, abs(trace[-2])):
                break
        histories.append(tuple(trace))
        if best is None or trace[-1] > best[0]:
            best = (trace[-1], index, (alice, bob, psi), tuple(trace))
    value, _, (alice, bob, psi), trace = best
    return SeesawState(
        dimension=dim,
        alice=FiniteChannel([Povm(alice[x]) for x in range(game.nX)]),
        bob=FiniteChannel([Povm(bob[y]) for y in range(game.nY)]),
        psi=psi,
        value=value,
        history=trace,
        all_histories=tuple(histories),
    )
