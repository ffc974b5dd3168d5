"""Optimization engines behind game values.

Three engines live here:

* ``ns_value`` -- exact supremum over the no-signalling polytope, as a linear
  program over the correlation entries and marginal variables, as one sparse
  matrix.  HiGHS solves it through ``simplex.simplex_solve`` over the orbits
  of the game's symmetry (see ``games``): an iterate's orbits are products of
  its base game's orbits, labelled coordinate by coordinate from the base
  group's orbits on the base game's LP.  The answer is lifted back and
  certified on the full LP from both sides, by the primal correlation and by
  a dual bound.  The full LP's entries and the orbit LP's dense size each fit
  a budget in ``errors``, checked before either is built.
* ``local_value`` -- exact maximum over deterministic strategy pairs.  Alice's
  maps, within ``errors.WORK_BUDGET``, are enumerated by the kernel in
  ``strategies``: a meet-in-the-middle split of her input set, scored in exact
  integers when the payoffs allow it (uniform questions) and in float64
  otherwise.  Bob's best reply, computed in closed form per question, gives
  the value.  The enumeration order is row-major over (f(0), ..., f(nX-1))
  with f(0) most significant, and ties break to the lowest strategy index
  (exactly on the integer path).  On an iterate only maps canonical along a
  stabiliser chain are scanned: each of f(0), ..., f(split - 1) is, on every
  coordinate, the minimum of its orbit under the base relabelings fixing the
  earlier questions and answers (the split, from nX//2, moves on while the
  chain cuts and stays balanced), which keeps the lowest-index optimum.
* ``qs_seesaw`` -- alternating ascent over Alice's measurements, Bob's
  measurements, and the shared state from the ``local_value`` optimum and
  random restarts, returning a certified quantum-spatial lower bound (the
  certificate is an explicit finite-dimensional strategy).  One sweep is
  batched over all running restarts and all inputs: each sub-step is a few
  stacked LAPACK calls (``eigh``, and ``qr`` for the complement bases of the
  greedy k-outcome step) rather than one call per matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import rand, strategies
from .channels import FiniteChannel, Povm
from .correlations import Correlation, is_no_signalling, qs_probabilities
from .errors import (ENTRY_BUDGET, FACTOR_TOL, INVARIANT_TOL, WORK_BUDGET, NumericError,
                     TooLargeError, ValidationError, require_budget)
from .linalg import hermitize
from .simplex import LinearProgram, simplex_solve

if TYPE_CHECKING:  # pragma: no cover
    from .games import FiniteGame


# ---------------------------------------------------------------------------
# No-signalling value (linear programming)
# ---------------------------------------------------------------------------


def ns_value_lp(game: "FiniteGame") -> LinearProgram:
    """The LP whose optimum is the no-signalling value of the game.

    Variables are the entries p(a,b|x,y) flattened row-major over (x,y,a,b),
    then Alice's marginals alpha[x,a] and Bob's beta[y,b], all >= 0.  Rows are
    per-(x,y) normalization, then sum_b p(a,b|x,y) - alpha[x,a] = 0 over
    (x,a,y) and sum_a p(a,b|x,y) - beta[y,b] = 0 over (y,b,x), all row-major,
    in one sparse CSR matrix that a relabeling of the game permutes by rows
    and by columns.  The size budgets are checked by ``ns_value``, not here.
    """
    from scipy.sparse import coo_array

    nX, nY, nA, nB = game.shape
    n_p = nX * nY * nA * nB
    n_rows, n_cols, _ = _lp_size(game.shape)
    x, y, a, b = np.indices(game.shape, dtype=np.int32).reshape(4, -1)  # ENTRY_BUDGET < 2^31
    (p, alpha, beta), (norm, alice, bob) = _lp_index(game.shape, x, y, a, b)
    first_b, first_a = b == 0, a == 0  # one marginal entry per Alice (Bob) row
    rows = np.concatenate([norm, alice, bob, alice[first_b], bob[first_a]])
    cols = np.concatenate([p, p, p, alpha[first_b], beta[first_a]])
    vals = np.concatenate([np.ones(3 * n_p), np.full(nX * nA * nY + nY * nB * nX, -1.0)])
    a_eq = coo_array((vals, (rows, cols)), shape=(n_rows, n_cols)).tocsr()
    b_eq = np.zeros(n_rows)
    b_eq[: nX * nY] = 1.0
    objective = np.concatenate([(game.dist[:, :, None, None] * game.win).reshape(-1),
                                np.zeros(nX * nA + nY * nB)])
    return LinearProgram(objective, a_eq=a_eq, b_eq=b_eq)


def _lp_size(shape) -> tuple[int, int, int]:
    """The rows, the columns and the matrix entries of ``ns_value_lp`` for a
    game of this shape."""
    nX, nY, nA, nB = shape
    return (nX * nY * (1 + nA + nB), nX * nY * nA * nB + nX * nA + nY * nB,
            nX * nY * (3 * nA * nB + nA + nB))


def _lp_index(shape, x, y, a, b) -> tuple[tuple, tuple]:
    """For entries p(a,b|x,y) of a game of this shape: the columns of p, of
    alpha[x,a] and of beta[y,b], and the rows of normalization (x,y), Alice's
    marginal (x,a,y) and Bob's marginal (y,b,x) in ``ns_value_lp``."""
    nX, nY, nA, nB = shape
    n_p, n_pairs = nX * nY * nA * nB, nX * nY
    cols = (((x * nY + y) * nA + a) * nB + b, n_p + x * nA + a, n_p + nX * nA + y * nB + b)
    rows = (x * nY + y, n_pairs + (x * nA + a) * nY + y,
            n_pairs + nX * nA * nY + (y * nB + b) * nX + x)
    return cols, rows


def _orbit_labels(images: np.ndarray) -> np.ndarray:
    """The smallest member of each point's orbit, for the group generated by
    the permutations ``images`` (k, n) of range(n); found by label propagation."""
    labels = np.arange(images.shape[1])
    while True:
        new = np.minimum(labels, labels[images].min(axis=0, initial=labels.size))
        if np.array_equal(new, labels):
            return labels
        labels = new


def _lp_orbits(game: "FiniteGame") -> list[np.ndarray]:
    """Orbit labels of the columns and of the rows of ``ns_value_lp(game)``,
    for a game that carries a symmetry (group, width).  Each family of LP
    points, in ``_lp_index`` order, holds the width-tuples of its base points,
    on which the group acts coordinate by coordinate."""
    group, width = game.symmetry
    px, py, sa, sb = (np.array(part) for part in zip(*group))
    sizes = dict(x=px.shape[1], y=py.shape[1], a=sa.shape[2], b=sb.shape[2])
    labels = []
    for families in ("xyab", "xa", "yb"), ("xy", "xay", "ybx"):  # columns, then rows
        parts = []
        for family in families:
            shape = [sizes[axis] for axis in family]
            point = dict(zip(family, np.indices(shape).reshape(len(family), -1)))
            x, y, a, b = (point.get(axis, 0) for axis in "xyab")
            moved = dict(x=px[:, x], y=py[:, y], a=sa[:, x, a], b=sb[:, y, b])
            minima = _orbit_labels(np.ravel_multi_index([moved[axis] for axis in family], shape))
            parts.append(sum(map(len, parts)) + _product_minima(minima, shape, width))
        labels.append(np.concatenate(parts))
    return labels


def _product_minima(minima: np.ndarray, shape, width: int) -> np.ndarray:
    """Orbit minima of the width-tuples of points of ``shape`` from those of
    the points, row-major: a product of orbits has the tuple of their minima
    as its minimum, since row-major order compares coordinate by coordinate."""
    labels = np.zeros(math.prod(n ** width for n in shape), dtype=int)
    digits = np.unravel_index(minima, shape)
    for i in range(width):  # every point's minimum, moved to coordinate i
        moved = np.ravel_multi_index([d * n ** (width - 1 - i) for d, n in zip(digits, shape)],
                                     [n ** width for n in shape])
        view = strategies.coordinate_blocks(labels, shape, i, 1, width)
        view += strategies.coordinate_blocks(moved, shape, 0, 1, 1)
    return labels


def ns_value(game: "FiniteGame") -> tuple[float, Correlation]:
    """Exact no-signalling value with an attaining correlation.

    HiGHS solves the LP over the orbits of the game's relabelings: the
    columns of each orbit summed into one, one row kept per row orbit (a game
    that carries none is solved as the full LP, every orbit one point).  The
    answer is lifted back, p_v = z_(orbit of v) and y_r = y_R / |R|, exactly,
    since c, A and b are invariant, and checked on the full LP.  The primal
    must be a no-signalling ``Correlation``; the value is its payoff with
    each (x,y) slice and the question distribution divided by their sums,
    clamped to [0, 1], so that a game the primal wins surely reads exactly
    1.0 even when the float question weights sum to 1 - 1e-16.  The dual y
    must be feasible, c - A^T y <= tol, and its bound b.y must equal the
    value within tol, with tol = ``errors.INVARIANT_TOL``.  A feasible dual
    bounds every primal from above, so together the checks certify that the
    value is optimal; any failure raises ``NumericError``.  Relabelings that
    are wrong for the game leave A and b invariant, so the lifted b.y still
    equals the primal's value: the dual check then fails unless that value
    is optimal.
    """
    n_rows, n_cols, n_entries = _lp_size(game.shape)
    require_budget(n_entries, ENTRY_BUDGET, "no-signalling LP (entries)")
    what = "no-signalling orbit LP (dense rows x columns)"
    if not game.symmetry:  # every orbit is one point: the orbit LP is the full LP
        require_budget(n_rows * n_cols, WORK_BUDGET, what)
        lp = reduced = ns_value_lp(game)
        col_orbit, row_orbit, row_sizes = np.arange(n_cols), np.arange(n_rows), np.ones(n_rows)
    else:  # the orbit search comes first, and the LP after its orbits fit
        col_labels, row_labels = _lp_orbits(game)
        col_reps, col_orbit = np.unique(col_labels, return_inverse=True)
        row_reps, row_orbit, row_sizes = np.unique(row_labels, return_inverse=True,
                                                   return_counts=True)
        require_budget(row_reps.size * col_reps.size, WORK_BUDGET, what)
        from scipy.sparse import csr_array

        lp = ns_value_lp(game)
        kept = lp.a_eq[row_reps]  # the representative rows, in orbit order
        a_eq = csr_array((kept.data, col_orbit[kept.indices], kept.indptr),
                         shape=(row_reps.size, col_reps.size))
        a_eq.sum_duplicates()
        reduced = LinearProgram(np.bincount(col_orbit, weights=lp.objective),
                                a_eq=a_eq, b_eq=lp.b_eq[row_reps])
    result = simplex_solve(reduced)
    if result.status != "optimal":  # pragma: no cover - polytope is nonempty
        raise NumericError(f"no-signalling LP ended with status {result.status}")
    dual = result.dual[row_orbit] / row_sizes[row_orbit]
    try:
        corr = Correlation(result.x[col_orbit[:game.win.size]].reshape(game.shape))
    except ValidationError as exc:
        raise NumericError(f"no-signalling primal is not a correlation: {exc}") from exc
    ok, cert = is_no_signalling(corr)
    if not ok:
        raise NumericError("no-signalling primal signals", residual=cert.worst)
    won = (game.win * corr.p).sum(axis=(2, 3)) / corr.p.sum(axis=(2, 3))
    value = min(max(float(np.sum(game.dist * won) / np.sum(game.dist)), 0.0), 1.0)
    excess = float(np.max(lp.objective - lp.a_eq.T @ dual))
    if excess > INVARIANT_TOL:
        raise NumericError("no-signalling dual is infeasible", residual=excess)
    gap = abs(float(lp.b_eq @ dual) - value)
    if gap > INVARIANT_TOL:
        raise NumericError("no-signalling dual bound differs from the value", residual=gap)
    return value, corr


# ---------------------------------------------------------------------------
# Local value (exact deterministic enumeration)
# ---------------------------------------------------------------------------


def _payoff_tensor(game: "FiniteGame") -> np.ndarray:
    """T[x, a, y, b] = pi0(x,y) * win(x,y,a,b)."""
    return np.einsum("xy,xyab->xayb", game.dist, game.win.astype(float))


def _chain_rows(game: "FiniteGame"):
    """Alice's answer prefixes canonical along a stabiliser chain of the game's
    symmetry (group, width), as (keep, sorted rows) for lengths 1, ..., nX (see
    ``strategies.partial_scores``): at level k each coordinate of f(k) is the
    least of its orbit under the base relabelings fixing that coordinate's
    questions 0..k and answers at 0..k-1.  A level whose masks over the group
    would not fit ``ENTRY_BUDGET`` keeps every child, and so does every later
    one, since rows never shrink; so does every level without symmetry."""
    if not game.symmetry:
        yield from ((slice(None), np.arange(game.nA ** k)) for k in range(1, game.nX + 1))
        return
    group, width = game.symmetry
    px, _, sa, _ = (np.array(part) for part in zip(*group))
    n_a = sa.shape[2]
    digits = strategies.map_digits(np.arange(game.nA), width, n_a)  # (nA, width)
    rows, mask = np.zeros(1, dtype=np.int64), np.ones((1, width, len(group)), dtype=bool)
    for k in range(game.nX):
        if rows.size * width * len(group) * n_a > ENTRY_BUDGET:
            keep = slice(None)
        else:
            if k:  # the answers kept at question k - 1 stay fixed
                prefix, answer = np.divmod(keep, game.nA)
                kept = digits[answer]
                mask = mask[prefix] & (images[np.arange(width), :, kept] == kept[..., None])
            x = strategies.map_digits(k, width, px.shape[1])
            mask &= (px[:, x] == x).T
            images = sa[:, x].transpose(1, 0, 2)  # (width, group, n_a)
            canonical = np.where(mask[..., None], images, n_a).min(axis=2) == np.arange(n_a)
            keep = np.flatnonzero(canonical[:, np.arange(width), digits].all(axis=-1))
        rows = (rows[:, None] * game.nA + np.arange(game.nA)).reshape(-1)[keep]
        yield keep, rows


def _scan_rows(game: "FiniteGame") -> tuple[np.ndarray, list]:
    """The kernel's rows and the chain's keeps up to the split, refused over
    ``WORK_BUDGET`` at nA^(nX-1) maps per row of level 1: from nX//2, one
    question later while the next level cuts (fewer than nA rows per row) and
    keeps at most the maps after it (not built once the rows outnumber those)."""
    chain, rows, keeps = _chain_rows(game), np.zeros(1, dtype=np.int64), []
    room = game.nA ** (game.nX - 1)  # maps after the first len(keeps) + 1 questions
    while len(keeps) < game.nX // 2 or rows.size <= room:
        keep, deeper = next(chain)
        if not keeps:
            require_budget(deeper.size * room, WORK_BUDGET,
                           "loc enumeration of Alice's maps (ns_value gives an upper bound)")
        if len(keeps) >= game.nX // 2 and not rows.size * game.nA > deeper.size <= room:
            break
        rows, room, keeps = deeper, room // game.nA, keeps + [keep]
    return rows, keeps


def local_value(game: "FiniteGame") -> tuple[float, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact classical value and an optimal deterministic pair (f, g), over the
    rows of ``_scan_rows``.  At every level k they keep the lowest-index
    optimum f*: an h of the level-k subgroup lowering f*(k) would make h.f*
    optimal, equal to f* on questions 0..k-1 and lower in index."""
    value, f, g = strategies.argmax_strategy(_payoff_tensor(game), *_scan_rows(game))
    return value, (f, g)


def top_deterministic_strategies(
    game: "FiniteGame", count: int
) -> list[tuple[tuple[int, ...], tuple[int, ...], float]]:
    """The ``count`` best deterministic pairs, ordered by value then f index."""
    require_budget(game.nA ** game.nX, WORK_BUDGET, "ranking of Alice's maps")
    ranked = strategies.top_strategies(_payoff_tensor(game), count)
    return [(f, g, value) for value, f, g in ranked]


# ---------------------------------------------------------------------------
# Quantum-spatial lower bound (see-saw)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class SeesawState:
    """A quantum-spatial strategy found by the see-saw, with its value.

    ``history`` is the winning restart's objective after each sweep (starting
    from the initial strategy); ``all_histories`` collects one such trace per
    restart, in the order of ``_seed_strategies``.  The value is a certified
    lower bound on the quantum-spatial game value at this dimension.
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
        if abs(norm - 1.0) > FACTOR_TOL:
            raise ValidationError("unit state", residual=abs(norm - 1.0))
        if not -INVARIANT_TOL <= value <= 1.0 + INVARIANT_TOL:
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
    """Maximize sum_b tr(R_b F_b) over POVMs F, for one or a stack of instances.

    ``payoff_ops`` and ``current`` are (..., k, d, d); every leading index is
    an independent instance, solved by the same batched LAPACK calls.  Two
    outcomes are solved exactly: F_0 is the spectral projection of R_0 - R_1
    onto eigenvalues > 0 (eigenvalues within 1e-12 of zero count as positive),
    F_1 its complement.  More outcomes use a greedy rank-one assignment of
    eigenvectors: d rounds, each giving the top eigenvector of R_b restricted
    to the still unassigned subspace to the b with the largest top eigenvalue
    (ties within 1e-15 to the lowest b), whose orthogonal complement, from a
    complete QR factorization, is the next round's subspace.  An instance
    keeps its input POVM whenever the greedy result would decrease the
    objective.
    """
    payoff_ops = np.asarray(payoff_ops, dtype=complex)
    *batch, k, d, _ = payoff_ops.shape
    if k == 1:
        return np.broadcast_to(np.eye(d, dtype=complex), (*batch, 1, d, d)).copy()
    if k == 2:
        vals, vecs = np.linalg.eigh(hermitize(payoff_ops[..., 0, :, :] - payoff_ops[..., 1, :, :]))
        selected = vecs * (vals >= -1e-12)[..., None, :]
        f0 = selected @ selected.conj().swapaxes(-1, -2)
        return np.stack([f0, np.eye(d) - f0], axis=-3)

    ops = payoff_ops.reshape(-1, k, d, d)
    current = np.asarray(current).reshape(ops.shape)
    rows = np.arange(ops.shape[0])
    basis = np.broadcast_to(np.eye(d, dtype=complex), (rows.size, d, d))
    candidate = np.zeros_like(ops)
    for _ in range(d):
        reduced = basis.conj().swapaxes(-1, -2)[:, None] @ ops @ basis[:, None]
        vals, vecs = np.linalg.eigh(hermitize(reduced))
        best_b = np.zeros(rows.size, dtype=int)
        best = vals[:, 0, -1]
        for b in range(1, k):
            better = vals[:, b, -1] > best + 1e-15
            best_b[better] = b
            best = np.where(better, vals[:, b, -1], best)
        coeffs = vecs[rows, best_b, :, -1]
        vector = (basis @ coeffs[..., None])[..., 0]
        candidate[rows, best_b] += vector[:, :, None] * vector.conj()[:, None, :]
        if basis.shape[-1] > 1:
            basis = basis @ np.linalg.qr(coeffs[..., None], mode="complete")[0][..., 1:]
    gain_new = np.einsum("rbij,rbji->r", ops, candidate).real
    gain_old = np.einsum("rbij,rbji->r", ops, current).real
    keep = (gain_new >= gain_old - 1e-15)[:, None, None, None]
    return np.where(keep, candidate, current).reshape(*batch, k, d, d)


def seesaw_state_update(operator: np.ndarray) -> np.ndarray:
    """Top unit eigenvector of a Hermitian operator, canonically phased.

    ``operator`` is (..., n, n), one instance per leading index.  Among
    eigenvalues within 1e-12 of the maximum the lowest eigh index is taken,
    and the phase is fixed by making the largest-magnitude component real and
    positive; for the identity this yields the first basis vector.
    """
    vals, vecs = np.linalg.eigh(hermitize(operator))
    idx = np.argmax(vals >= vals[..., -1:] - 1e-12, axis=-1)
    vector = np.take_along_axis(vecs, idx[..., None, None], axis=-1)[..., 0]
    pivot = np.take_along_axis(vector, np.argmax(np.abs(vector), axis=-1)[..., None], axis=-1)
    vector = vector / (pivot / np.abs(pivot))
    return vector / np.linalg.norm(vector, axis=-1, keepdims=True)


def _seed_strategies(game: "FiniteGame", dim: int, seeds: int, rng_seed: int):
    """Initial (alice, bob, psi) stacks for S = ``seeds``: restart 0 embeds
    ``local_value``'s pair, then noisy random restarts from keys S//2 .. S-1
    of ``rand.derive_keys(rng_seed, S)``; all S random for S = 1 or a game
    over the ``loc`` budget.  Restart 0 keeps the bound at or above ``loc``,
    as the see-saw never decreases the objective; from a deterministic pair
    and psi = e_0 every sub-step stays diagonal, so no other deterministic
    restart could pass ``loc``.  Each random restart draws eta_a, eta_b, its
    bases' Gaussians, its state; one QR serves all."""
    nX, nY, nA, nB = game.shape
    keys, det = rand.derive_keys(rng_seed, seeds), []
    if seeds > 1:
        try:
            det, keys = [local_value(game)[1]], keys[seeds // 2:]
        except TooLargeError:
            pass
    alice = np.empty((len(det) + len(keys), nX, nA, dim, dim), dtype=complex)
    bob = np.empty((len(alice), nY, nB, dim, dim), dtype=complex)
    psi = np.zeros((len(alice), dim * dim), dtype=complex)
    for i, (f, g) in enumerate(det):  # E(a|x) = [a = f(x)] I, and F(b|y) likewise
        alice[i], bob[i] = (np.einsum("xa,ij->xaij", np.eye(n, dtype=complex)[list(h)], np.eye(dim))
                            for h, n in ((f, nA), (g, nB)))
        psi[i, 0] = 1.0
    etas, gauss = [], []
    for i, key in enumerate(keys, start=len(det)):
        rng = rand.generator(key)
        etas.append((rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)))
        gauss.append(rng.standard_normal((nX + nY, 2, dim, dim)))
        psi[i] = rand.random_state(dim * dim, rng)
    etas, gauss = np.array(etas), np.array(gauss)
    bases = rand.random_unitaries(gauss[:, :, 0] + 1j * gauss[:, :, 1])
    alice[len(det):] = rand.noisy_basis_effects(bases[:, :nX], nA, etas[:, :1])
    bob[len(det):] = rand.noisy_basis_effects(bases[:, nX:], nB, etas[:, 1:])
    return alice, bob, psi


def qs_seesaw(game: "FiniteGame", dim: int = 2, seeds: int = 20,
              max_sweeps: int = 200, rng_seed: int = 0) -> SeesawState:
    """Best see-saw strategy over all restarts; a lower bound on the qs value.

    The restarts come from ``_seed_strategies``.  Each sweep updates Alice's
    POVMs, then Bob's, then the state, every sub-step being an exact or
    non-decreasing ascent step.  A sweep is batched over the restarts still
    running and over the inputs: each sub-step is one stacked call of
    ``seesaw_measurement_update`` or ``seesaw_state_update`` (whose greedy
    k-outcome step takes its complement bases from QR).  A restart stops
    when the relative gain over one sweep falls below 1e-10 and keeps its
    own history.  Ties across restarts break to the lowest index, so to the
    ``loc`` optimum first.  One sweep's work and the seeds' stacks are
    checked against the ``errors`` budgets first.
    """
    if dim < 1:
        raise ValidationError("dimension >= 1", residual=float(dim))
    if seeds < 1:
        raise ValidationError("seeds >= 1", residual=float(seeds))
    if max_sweeps < 0:
        raise ValidationError("max_sweeps >= 0", residual=float(max_sweeps))
    require_budget(seeds * dim ** 4 * (dim ** 2 + game.win.size), WORK_BUDGET, "see-saw sweep")
    require_budget(seeds * dim ** 2 * (game.nX * game.nA + game.nY * game.nB + dim ** 2),
                   ENTRY_BUDGET, "see-saw strategies and states")
    weight = game.dist[:, :, None, None] * game.win.astype(float)
    alice, bob, psi = _seed_strategies(game, dim, seeds, rng_seed)

    def values(a, b, p):
        return (weight * qs_probabilities(a, b, p)).reshape(len(p), -1).sum(axis=1)

    histories = [[v] for v in values(alice, bob, psi).tolist()]
    active = np.arange(len(histories))
    for _ in range(max_sweeps):
        if active.size == 0:
            break
        a, b, mat = alice[active], bob[active], psi[active].reshape(-1, dim, dim)
        reduced_a = np.einsum("sij,sxaik,skl->sxajl", mat.conj(), a, mat)
        b = seesaw_measurement_update(
            hermitize(np.einsum("xyab,sxajl->sybjl", weight, reduced_a).conj()), b)
        reduced_b = np.einsum("sij,sybjl,skl->sybik", mat.conj(), b, mat)
        a = seesaw_measurement_update(
            hermitize(np.einsum("xyab,sybik->sxaik", weight, reduced_b).conj()), a)
        operator = np.einsum("xyab,sxaij,sybkl->sikjl", weight, a, b)
        p = seesaw_state_update(operator.reshape(-1, dim * dim, dim * dim))
        alice[active], bob[active], psi[active] = a, b, p
        running = []
        for s, v in zip(active.tolist(), values(a, b, p).tolist()):
            histories[s].append(v)
            if v - histories[s][-2] >= 1e-10 * max(1.0, abs(histories[s][-2])):
                running.append(s)
        active = np.array(running, dtype=int)
    best = int(np.argmax([h[-1] for h in histories]))
    return SeesawState(
        dimension=dim,
        alice=FiniteChannel([Povm(effects) for effects in alice[best]]),
        bob=FiniteChannel([Povm(effects) for effects in bob[best]]),
        psi=psi[best],
        value=histories[best][-1],
        history=histories[best],
        all_histories=tuple(tuple(h) for h in histories),
    )
