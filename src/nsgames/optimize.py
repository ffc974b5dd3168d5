"""Optimization engines behind game values.

Three engines live here:

* ``ns_value`` -- exact supremum over the no-signalling polytope: HiGHS
  solves, through ``simplex.simplex_solve``, the LP over the correlation
  entries and marginals reduced by the game's symmetry (see ``games``), whose
  orbits on an iterate are products of base orbits, each labelled by the least
  image under the group (checked closed).  Only the orbit LP's rows are built.
  The answer is lifted back and certified on the full LP by the primal
  correlation and by a dual bound, broadcast over the LP's structure with no
  matrix.  Budgets in ``errors`` bound the LP's size.
* ``local_value`` -- exact maximum over deterministic strategy pairs.  Alice's
  maps, within ``errors.WORK_BUDGET``, are enumerated by the kernel in
  ``strategies``: a meet-in-the-middle split of her input set, scored in exact
  integers when the payoffs allow it (uniform questions) and in float64
  otherwise, past its first block skipping the rows and maps whose bounds
  cannot reach a score found.  Bob's best reply, computed in closed form per
  question, gives the value.  The enumeration order is row-major over (f(0),
  ..., f(nX-1)) with f(0) most significant, and ties break to the lowest
  strategy index (exactly on the integer path).  On an iterate only maps
  canonical along a stabiliser chain are scanned: each of f(0), ...,
  f(split - 1) is, on every coordinate, its least image under the elements
  of the stacked group fixing the earlier questions and answers (the split,
  from nX//2, moves on while the chain cuts and stays balanced), which keeps
  the lowest-index optimum.
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
from .errors import (ENTRY_BUDGET, FACTOR_TOL, INVARIANT_TOL, ROUNDING_TOL, TIE_TOL, WORK_BUDGET,
                     NumericError, PreconditionError, TooLargeError, ValidationError,
                     require_budget)
from .linalg import hermitize
from .simplex import LinearProgram, simplex_solve

if TYPE_CHECKING:  # pragma: no cover
    from .games import FiniteGame


# ---------------------------------------------------------------------------
# No-signalling value (linear programming)
# ---------------------------------------------------------------------------


def ns_value_lp(game: "FiniteGame", orbits: list | None = None) -> LinearProgram:
    """The LP that ``ns_value`` solves: the no-signalling LP over the orbits of
    the game's relabelings (``orbits``, from ``_lp_orbits`` if not given).

    The full LP's variables are the entries p(a,b|x,y) flattened row-major over
    (x,y,a,b), then Alice's marginals alpha[x,a] and Bob's beta[y,b], all >= 0.
    Its rows are per-(x,y) normalization, then sum_b p(a,b|x,y) - alpha[x,a] = 0
    over (x,a,y) and sum_a p(a,b|x,y) - beta[y,b] = 0 over (y,b,x), all
    row-major; a relabeling permutes both.  The orbit LP, the full LP for a game
    without relabelings, sums each column orbit into one column and keeps each
    row orbit's least row: only those rows are built, a family at a time.
    """
    from scipy.sparse import csr_array

    (col_reps, col_orbit, _), (row_reps, _, _) = orbits or _lp_orbits(game)
    nX, nY, nA, nB = game.shape
    n_p, n_pairs, first_bob = game.win.size, nX * nY, nX * nY * (1 + nA)
    norm, alice, bob = np.split(row_reps, np.searchsorted(row_reps, [n_pairs, first_bob]))
    x, a, y = np.unravel_index(alice - n_pairs, (nX, nA, nY))
    y_b, b, x_b = np.unravel_index(bob - first_bob, (nY, nB, nX))
    # each kept row's columns: p(.,.|x,y); p(a,.|x,y), alpha[x,a]; p(.,b|x,y), beta[y,b]
    blocks = [norm[:, None] * (nA * nB) + np.arange(nA * nB),
              np.column_stack([((x * nY + y) * nA + a)[:, None] * nB + np.arange(nB),
                               n_p + x * nA + a]),
              np.column_stack([((x_b * nY + y_b)[:, None] * nA + np.arange(nA)) * nB + b[:, None],
                               n_p + nX * nA + y_b * nB + b])]
    widths, counts = zip((0, 1), *((block.shape[1], len(block)) for block in blocks))
    indptr = np.repeat(widths, counts).cumsum(dtype=np.int32)  # ENTRY_BUDGET < 2^31
    cols = np.concatenate([block.ravel() for block in blocks])
    a_eq = csr_array((np.where(cols < n_p, 1.0, -1.0), col_orbit[cols], indptr),
                     shape=(row_reps.size, col_reps.size))
    a_eq.sum_duplicates()
    weights = (game.dist[:, :, None, None] * game.win).ravel()
    objective = np.bincount(col_orbit[:n_p], weights=weights, minlength=col_reps.size)
    return LinearProgram(objective, a_eq=a_eq, b_eq=(row_reps < n_pairs).astype(float))


def _lp_labels(game: "FiniteGame") -> list[np.ndarray]:
    """Orbit labels (int32 least members) of the full LP's columns and rows, for a game
    with a symmetry (group, width).  Each family of LP points holds the width-tuples of
    its base points, on which the group acts coordinatewise; a base point's least image,
    checked constant along the group, is its orbit's minimum."""
    (px, py, sa, sb), width = game.symmetry
    sizes = dict(x=px.shape[1], y=py.shape[1], a=sa.shape[2], b=sb.shape[2])
    labels = []
    for families in ("xyab", "xa", "yb"), ("xy", "xay", "ybx"):  # columns, then rows
        shapes = [[sizes[axis] for axis in family] for family in families]
        ends = np.cumsum([math.prod(n ** width for n in shape) for shape in shapes])
        out = np.zeros(ends[-1], dtype=np.int32)  # ENTRY_BUDGET < 2^31
        for family, shape, start, end in zip(families, shapes, [0, *ends[:-1]], ends):
            point = dict(zip(family, np.indices(shape).reshape(len(family), -1)))
            x, y, a, b = (point.get(axis, 0) for axis in "xyab")
            moved = dict(x=px[:, x], y=py[:, y], a=sa[:, x, a], b=sb[:, y, b])
            images = np.ravel_multi_index([moved[axis] for axis in family], shape)
            minima = images.min(axis=0)
            if not (minima[images] == minima).all():
                raise PreconditionError("the game's relabelings are not a closed group")
            _product_minima(minima, shape, width, out[start:end])
            out[start:end] += start
        labels.append(out)
    return labels


def _product_minima(minima: np.ndarray, shape, width: int, out: np.ndarray) -> None:
    """Add into ``out`` (zeros) the orbit minima of the width-tuples of points
    of ``shape`` from those of the points, row-major: a product of orbits has
    the tuple of their minima as its minimum, since row-major order compares
    coordinate by coordinate."""
    digits = np.unravel_index(minima, shape)
    for i in range(width):  # every point's minimum, moved to coordinate i
        moved = np.ravel_multi_index([d * n ** (width - 1 - i) for d, n in zip(digits, shape)],
                                     [n ** width for n in shape])
        view = strategies.coordinate_blocks(out, shape, i, 1, width)
        view += strategies.coordinate_blocks(moved, shape, 0, 1, 1)


def _lp_orbits(game: "FiniteGame") -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(representatives, inverse, sizes) of the orbits of the full LP's columns
    and of its rows: each orbit's least point in order, each point's orbit, and
    each orbit's size.  From the shape, the LP's columns and rows must fit
    ``ENTRY_BUDGET``; the orbit LP's dense size must fit ``WORK_BUDGET``, from
    the shape too for a game without relabelings (one-point orbits, no search)."""
    nX, nY, nA, nB = game.shape
    n_rows, n_cols = nX * nY * (1 + nA + nB), game.win.size + nX * nA + nY * nB
    require_budget(n_rows + n_cols, ENTRY_BUDGET, "no-signalling LP (columns and rows)")
    what = "no-signalling orbit LP (dense rows x columns)"
    if not game.symmetry:
        require_budget(n_rows * n_cols, WORK_BUDGET, what)
    orbits = []
    for labels in _lp_labels(game) if game.symmetry else (np.arange(n_cols), np.arange(n_rows)):
        points = np.arange(labels.size, dtype=np.int32)
        reps = np.flatnonzero(labels == points)
        points[reps] = np.arange(reps.size)  # a lookup table from least points to orbits
        inverse = points[labels]
        orbits.append((reps, inverse, np.bincount(inverse)))
    require_budget(orbits[0][0].size * orbits[1][0].size, WORK_BUDGET, what)
    return orbits


def _dual_slack(game: "FiniteGame", dual: np.ndarray) -> tuple[tuple, float]:
    """c - A^T y at p, alpha and beta, and b.y, for a dual y = (y_norm[x,y],
    y_A[x,a,y], y_B[y,b,x]) of the full LP, by broadcasting: pi win - y_norm -
    y_A - y_B, sum_y y_A, sum_x y_B and sum y_norm."""
    nX, nY, nA, nB = game.shape
    y_norm = dual[:nX * nY].reshape(nX, nY, 1, 1)
    y_alice = dual[nX * nY:nX * nY * (1 + nA)].reshape(nX, nA, nY)
    y_bob = dual[nX * nY * (1 + nA):].reshape(nY, nB, nX)
    slack = game.dist[:, :, None, None] * game.win
    slack -= y_norm
    slack -= y_alice.transpose(0, 2, 1)[..., None]
    slack -= y_bob.transpose(2, 0, 1)[:, :, None]
    return (slack, y_alice.sum(axis=2), y_bob.sum(axis=2)), float(y_norm.sum())


def ns_value(game: "FiniteGame") -> tuple[float, Correlation]:
    """Exact no-signalling value with an attaining correlation.

    HiGHS solves ``ns_value_lp``.  The answer is lifted back, p_v = z_(orbit
    of v) and y_r = y_R / |R|, exactly, since c, A and b are invariant, and
    checked on the full LP.  The primal must be a no-signalling
    ``Correlation``; the value is its payoff with each (x,y) slice and the
    question distribution divided by their sums, clamped to [0, 1], so that a
    game the primal wins surely reads exactly 1.0 even when the float question
    weights sum to 1 - 1e-16.  The dual must be feasible, c - A^T y <= tol, and
    its bound b.y must equal the value within tol = ``errors.INVARIANT_TOL``,
    both from ``_dual_slack``.  A feasible dual bounds every primal from
    above, so the checks certify that the value is optimal; any failure
    raises ``NumericError``.  Relabelings that are wrong for the game leave A
    and b invariant, so the lifted b.y still equals the primal's value: the
    dual check then fails unless that value is optimal.
    """
    (_, col_orbit, _), (_, row_orbit, row_sizes) = orbits = _lp_orbits(game)
    result = simplex_solve(ns_value_lp(game, orbits))
    try:
        corr = Correlation(result.x[col_orbit[:game.win.size]].reshape(game.shape))
    except ValidationError as exc:
        raise NumericError(f"no-signalling primal is not a correlation: {exc}") from exc
    ok, cert = is_no_signalling(corr)
    if not ok:
        raise NumericError("no-signalling primal signals", residual=cert.worst)
    won = (game.win * corr.p).sum(axis=(2, 3)) / corr.p.sum(axis=(2, 3))
    value = min(max(float(np.sum(game.dist * won) / np.sum(game.dist)), 0.0), 1.0)
    slack, bound = _dual_slack(game, result.dual[row_orbit] / row_sizes[row_orbit])
    excess = max(float(part.max()) for part in slack)
    if excess > INVARIANT_TOL:
        raise NumericError("no-signalling dual is infeasible", residual=excess)
    gap = abs(bound - value)
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
    (px, _, sa, _), width = game.symmetry
    n_a = sa.shape[2]
    digits = strategies.map_digits(np.arange(game.nA), width, n_a)  # (nA, width)
    rows, mask = np.zeros(1, dtype=np.int64), np.ones((1, width, len(px)), dtype=bool)
    for k in range(game.nX):
        if rows.size * width * len(px) * n_a > ENTRY_BUDGET:
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

    ``all_histories`` holds each restart's objective after each sweep
    (starting from the initial strategy), in the order of ``_seed_strategies``.
    The value is a certified lower bound on the quantum-spatial game value at
    this dimension.
    """

    dimension: int
    alice: FiniteChannel
    bob: FiniteChannel
    psi: np.ndarray
    value: float
    all_histories: tuple[tuple[float, ...], ...] = field(default=(), compare=False)

    def __init__(self, dimension, alice, bob, psi, value, all_histories=()):
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
        object.__setattr__(self, "all_histories", tuple(all_histories))

    def __repr__(self) -> str:
        return f"SeesawState(d={self.dimension}, value={self.value:.6f})"


def seesaw_measurement_update(payoff_ops: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Maximize sum_b tr(R_b F_b) over POVMs F, for one or a stack of instances.

    ``payoff_ops`` and ``current`` are (..., k, d, d); every leading index is
    an independent instance, solved by the same batched LAPACK calls.  Two
    outcomes are solved exactly: F_0 is the spectral projection of R_0 - R_1
    onto eigenvalues > 0 (eigenvalues within ``ROUNDING_TOL`` of zero count as
    positive), F_1 its complement.  More outcomes use a greedy rank-one
    assignment of eigenvectors: d rounds, each giving the top eigenvector of
    R_b restricted to the still unassigned subspace to the b with the largest
    top eigenvalue (ties within ``TIE_TOL`` to the lowest b), whose orthogonal
    complement, from a complete QR factorization, is the next round's
    subspace.  An instance keeps its input POVM whenever the greedy result
    would decrease the objective by more than ``TIE_TOL``.
    """
    payoff_ops = np.asarray(payoff_ops, dtype=complex)
    *batch, k, d, _ = payoff_ops.shape
    if k == 1:
        return np.broadcast_to(np.eye(d, dtype=complex), (*batch, 1, d, d)).copy()
    if k == 2:
        vals, vecs = np.linalg.eigh(hermitize(payoff_ops[..., 0, :, :] - payoff_ops[..., 1, :, :]))
        selected = vecs * (vals >= -ROUNDING_TOL)[..., None, :]
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
            better = vals[:, b, -1] > best + TIE_TOL
            best_b[better] = b
            best = np.where(better, vals[:, b, -1], best)
        coeffs = vecs[rows, best_b, :, -1]
        vector = (basis @ coeffs[..., None])[..., 0]
        candidate[rows, best_b] += vector[:, :, None] * vector.conj()[:, None, :]
        if basis.shape[-1] > 1:
            basis = basis @ np.linalg.qr(coeffs[..., None], mode="complete")[0][..., 1:]
    gain_new = np.einsum("rbij,rbji->r", ops, candidate).real
    gain_old = np.einsum("rbij,rbji->r", ops, current).real
    keep = (gain_new >= gain_old - TIE_TOL)[:, None, None, None]
    return np.where(keep, candidate, current).reshape(*batch, k, d, d)


def seesaw_state_update(operator: np.ndarray) -> np.ndarray:
    """Top unit eigenvector of a Hermitian operator, canonically phased.

    ``operator`` is (..., n, n), one instance per leading index.  Among
    eigenvalues within ``ROUNDING_TOL`` of the maximum the lowest eigh index
    is taken, and the phase is fixed by making the largest-magnitude component
    real and positive; for the identity this yields the first basis vector.
    """
    vals, vecs = np.linalg.eigh(hermitize(operator))
    idx = np.argmax(vals >= vals[..., -1:] - ROUNDING_TOL, axis=-1)
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
    when the relative gain over one sweep falls below ``FACTOR_TOL`` and
    keeps its own history.  Ties across restarts break to the lowest index, so to the
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
            if v - histories[s][-2] >= FACTOR_TOL * max(1.0, abs(histories[s][-2])):
                running.append(s)
        active = np.array(running, dtype=int)
    best = int(np.argmax([h[-1] for h in histories]))
    return SeesawState(
        dimension=dim,
        alice=FiniteChannel([Povm(effects) for effects in alice[best]]),
        bob=FiniteChannel([Povm(effects) for effects in bob[best]]),
        psi=psi[best],
        value=histories[best][-1],
        all_histories=tuple(tuple(h) for h in histories),
    )
