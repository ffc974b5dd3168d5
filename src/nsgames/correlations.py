"""Finite no-signalling correlations: validation, class builders, membership.

A correlation is the tensor p(a,b|x,y) over four finite alphabets.  Builders
produce members of the local / quantum-spatial / quantum-commuting classes
from their defining data; ``is_local`` decides membership in the local
polytope by one linear program, in which the party with fewer deterministic
maps answers deterministically and the other keeps a channel.

Index convention (used consistently across games and the CLI): a pair (i, j)
drawn from alphabets of sizes (n1, n2) is encoded row-major as i * n2 + j;
``strategies.map_digits`` decodes tuples and deterministic maps alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import textfile
from .channels import FiniteChannel, channels_commute
from .errors import (FACTOR_TOL, INVARIANT_TOL, ROUNDING_TOL, SYMMETRIZE_TOL, WORK_BUDGET,
                     NumericError, ParseError, PreconditionError, ValidationError,
                     require_budget)
from .simplex import LinearProgram, simplex_solve
from .strategies import map_digits


class Alphabets:
    """The alphabet sizes nX, nY, nA, nB of an object whose ``shape`` is
    (nX, nY, nA, nB)."""

    @property
    def nX(self) -> int:
        return self.shape[0]

    @property
    def nY(self) -> int:
        return self.shape[1]

    @property
    def nA(self) -> int:
        return self.shape[2]

    @property
    def nB(self) -> int:
        return self.shape[3]


@dataclass(frozen=True, eq=False, repr=False)
class Correlation(Alphabets):
    """Conditional probability tensor p(a,b|x,y) with shape (nX, nY, nA, nB).

    Entries below -``ROUNDING_TOL`` are rejected; round-off negatives above
    that are clipped to zero and each (x,y) slice renormalized.  Every slice
    must sum to one within ``INVARIANT_TOL``.
    """

    p: np.ndarray

    def __init__(self, p):
        arr = np.array(p, dtype=float)
        if arr.ndim != 4:
            raise ValidationError("rank-4 tensor", detail=f"shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("finite entries")
        lowest = float(arr.min())
        if lowest < -ROUNDING_TOL:
            raise ValidationError("probabilities nonnegative", residual=lowest)
        if lowest < 0.0:
            arr = np.clip(arr, 0.0, None)
            arr /= arr.sum(axis=(2, 3), keepdims=True)
        sums = arr.sum(axis=(2, 3))
        defect = float(np.max(np.abs(sums - 1.0)))
        if defect > INVARIANT_TOL:
            raise ValidationError("per-(x,y) normalization", residual=defect)
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.p.shape

    def __repr__(self) -> str:
        return f"Correlation(nX={self.nX}, nY={self.nY}, nA={self.nA}, nB={self.nB})"


@dataclass(frozen=True)
class NsCertificate:
    """Worst no-signalling defects with the indices witnessing them."""

    max_alice: float
    max_bob: float
    witness_alice: tuple[int, int, int, int] | None  # (x, a, y, y')
    witness_bob: tuple[int, int, int, int] | None    # (y, b, x, x')

    @property
    def worst(self) -> float:
        return max(self.max_alice, self.max_bob)


def is_no_signalling(corr: Correlation, tol: float = INVARIANT_TOL) -> tuple[bool, NsCertificate]:
    """Check the marginal equalities; returns (verdict, certificate).

    The Alice defect is max over (x, a, y, y') of the difference between the
    y- and y'-marginals of a, and symmetrically for Bob.
    """
    marg_a = corr.p.sum(axis=3)              # (nX, nY, nA)
    marg_b = corr.p.sum(axis=2)              # (nX, nY, nB)

    def _defect(marg: np.ndarray) -> tuple[float, tuple[int, int, int, int] | None]:
        # marg indexed (context, other, outcome): max-min over `other`.
        hi, lo = marg.max(axis=1), marg.min(axis=1)
        gaps = hi - lo
        worst = float(gaps.max(initial=0.0))
        if worst <= 0.0:
            return 0.0, None
        ctx, out = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
        hi_at = int(np.argmax(marg[ctx, :, out]))
        lo_at = int(np.argmin(marg[ctx, :, out]))
        return worst, (int(ctx), int(out), hi_at, lo_at)

    alice, wa = _defect(marg_a)
    bob, wb = _defect(np.swapaxes(marg_b, 0, 1))
    cert = NsCertificate(alice, bob, wa, wb)
    return cert.worst <= tol, cert


def marginal_A(corr: Correlation, tol: float = INVARIANT_TOL) -> np.ndarray:
    """Alice's marginal q(a|x), well defined by no-signalling (checked)."""
    return _no_signalling(corr, tol).p[:, 0, :, :].sum(axis=2)


def marginal_B(corr: Correlation, tol: float = INVARIANT_TOL) -> np.ndarray:
    """Bob's marginal r(b|y), well defined by no-signalling (checked)."""
    return _no_signalling(corr, tol).p[0, :, :, :].sum(axis=1)


def _no_signalling(corr: Correlation, tol: float) -> Correlation:
    ok, cert = is_no_signalling(corr, tol)
    if not ok:
        raise PreconditionError(
            f"correlation is signalling (defect {cert.worst:.3e})", witness=cert)
    return corr


def _check_stochastic(table: np.ndarray, name: str, tol: float = INVARIANT_TOL) -> np.ndarray:
    table = np.asarray(table, dtype=float)
    if table.ndim != 2:
        raise ValidationError("stochastic table", detail=f"{name} must be 2-d")
    if float(table.min()) < -ROUNDING_TOL:
        raise ValidationError(f"{name} nonnegative", residual=float(table.min()))
    defect = float(np.max(np.abs(table.sum(axis=1) - 1.0)))
    if defect > tol:
        raise ValidationError(f"{name} rows sum to 1", residual=defect)
    return np.clip(table, 0.0, None)


def from_local(weights, alice_channels, bob_channels) -> Correlation:
    """Convex mixture of product channels: p = sum_i w_i q_i(a|x) r_i(b|y).

    The weights must sum to one within ``ROUNDING_TOL``, and the result is
    no-signalling within it too.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValidationError("weights are a nonempty vector")
    if float(weights.min()) < 0.0:
        raise ValidationError("weights nonnegative", residual=float(weights.min()))
    total = float(weights.sum())
    if abs(total - 1.0) > ROUNDING_TOL:
        raise ValidationError("weights sum to 1", residual=abs(total - 1.0))
    if len(alice_channels) != weights.size or len(bob_channels) != weights.size:
        raise ValidationError("one channel pair per weight")
    qs = [_check_stochastic(q, "alice channel") for q in alice_channels]
    rs = [_check_stochastic(r, "bob channel") for r in bob_channels]
    p = sum(w * np.einsum("xa,yb->xyab", q, r)
            for w, q, r in zip(weights, qs, rs))
    corr = Correlation(p)
    ok, cert = is_no_signalling(corr, tol=ROUNDING_TOL)
    if not ok:  # pragma: no cover - mixtures of products cannot signal
        raise NumericError("no-signalling", residual=cert.worst)
    return corr


def qs_probabilities(alice_effects: np.ndarray, bob_effects: np.ndarray,
                     psi: np.ndarray) -> np.ndarray:
    """Raw kernel: p(x,y,a,b) = <psi| E(a|x) (x) F(b|y) |psi> as a real tensor.

    ``alice_effects``/``bob_effects`` are (..., inputs, outcomes, d, d) stacks
    and ``psi`` is (..., d_a * d_b); leading axes index independent strategies
    and lead the result.  The imaginary residue must stay below ``FACTOR_TOL``
    or Hermiticity broke upstream.
    """
    d_a = alice_effects.shape[-1]
    d_b = bob_effects.shape[-1]
    psi = np.asarray(psi, dtype=complex)
    mat = psi.reshape(*psi.shape[:-1], d_a, d_b)
    # <psi| M (x) N |psi> = sum_{jl} N_jl (Psi* M Psi)_jl  with Psi* = conj-transpose
    reduced = np.einsum("...ij,...xaik,...kl->...xajl", mat.conj(), alice_effects, mat)
    p = np.einsum("...xajl,...ybjl->...xyab", reduced, bob_effects)
    residue = float(np.max(np.abs(p.imag), initial=0.0))
    if residue > FACTOR_TOL:
        raise ValidationError("real probabilities", residual=residue)
    return p.real


def from_qs(e: FiniteChannel, f: FiniteChannel, psi) -> Correlation:
    """Quantum spatial correlation p(a,b|x,y) = <psi|E(a|x) (x) F(b|y)|psi>."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > FACTOR_TOL:
        raise PreconditionError(f"state is not a unit vector (norm {norm!r})")
    if psi.size != e.dim * f.dim:
        raise ValidationError("state lives on the tensor product",
                              detail=f"{psi.size} != {e.dim}*{f.dim}")
    p = qs_probabilities(e.effects_array(), f.effects_array(), psi)
    corr = Correlation(p)
    ok, cert = is_no_signalling(corr)
    if not ok:  # pragma: no cover - impossible for valid channels
        raise NumericError("no-signalling", residual=cert.worst)
    return corr


def from_qc(e: FiniteChannel, f: FiniteChannel, xi) -> Correlation:
    """Quantum commuting correlation p(a,b|x,y) = <xi| E(a|x) F(b|y) xi>.

    Requires channels with commuting ranges on one space.
    """
    channels_commute(e, f).require()
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(xi))
    if abs(norm - 1.0) > FACTOR_TOL:
        raise PreconditionError(f"state is not a unit vector (norm {norm!r})")
    if xi.size != e.dim:
        raise ValidationError("state lives on the channel space",
                              detail=f"{xi.size} != {e.dim}")
    left = np.einsum("xaij,j->xai", e.effects_array(), xi)
    right = np.einsum("ybij,j->ybi", f.effects_array(), xi)
    p = np.einsum("xai,ybi->xyab", left.conj(), right)
    residue = float(np.max(np.abs(p.imag), initial=0.0))
    if residue > FACTOR_TOL:
        raise ValidationError("real probabilities", residual=residue)
    corr = Correlation(p.real)
    ok, cert = is_no_signalling(corr)
    if not ok:  # pragma: no cover - impossible once commuting holds
        raise NumericError("no-signalling", residual=cert.worst)
    return corr


@dataclass(frozen=True)
class LocalityReport:
    """Outcome of the local-polytope membership LP.

    ``gap`` is the minimal achievable max-entry deviation between p and a
    convex combination of deterministic vertices; ``weights`` lists the
    decomposition as (f, g, weight) triples when membership holds.
    """

    local: bool
    gap: float
    weights: tuple[tuple[tuple[int, ...], tuple[int, ...], float], ...]


def deterministic_correlation(f, g, nA: int, nB: int) -> Correlation:
    """p(a,b|x,y) = [a = f(x)][b = g(y)] for deterministic strategies f, g."""
    f, g = np.asarray(f, dtype=int), np.asarray(g, dtype=int)
    p = np.zeros((f.size, g.size, nA, nB))
    p[np.arange(f.size)[:, None], np.arange(g.size), f[:, None], g] = 1.0
    return Correlation(p)


def _membership_lp(p: np.ndarray):
    """min t  s.t. |L - p|_max <= t, solved as max -t, over
    L[x,y,a,b] = sum_{f: f(x)=a} q[f,y,b] with q >= 0, sum_b q[f,y,b] the
    same for every y, and sum_{f,b} q[f,0,b] = 1.

    Returns (t*, fs, q): Alice's map tables and q shaped (maps, nY, nB).
    """
    nX, nY, nA, nB = p.shape
    n_f = nA ** nX
    width, entries = n_f * nY * nB, p.size
    require_budget((2 * entries + n_f * (nY - 1) + 1) * (width + 1), WORK_BUDGET,
                   "local membership LP (dense rows x columns)")
    from scipy.sparse import csr_array

    fs = map_digits(np.arange(n_f), nX, nA)
    # q[f, y, b] (column (f * nY + y) * nB + b) enters L at (x, f(x), y, b)
    # for every x, with the entries ordered (x, a, y, b); t is the last column.
    f_i, x_i, y_i, b_i = np.indices((n_f, nX, nY, nB)).reshape(4, -1)
    rows = ((x_i * nA + fs[f_i, x_i]) * nY + y_i) * nB + b_i
    cols = (f_i * nY + y_i) * nB + b_i
    a_ub = csr_array((np.concatenate([np.ones(rows.size), -np.ones(rows.size + 2 * entries)]),
                      (np.concatenate([rows, rows + entries, np.arange(2 * entries)]),
                       np.concatenate([cols, cols, np.full(2 * entries, width)]))),
                     shape=(2 * entries, width + 1))
    target = p.transpose(0, 2, 1, 3).reshape(-1)
    # Row sums of q[f] over b: row y equals row y + 1, and the y = 0 rows
    # sum to 1 over f.
    col = np.arange(width)
    q_f, q_y = np.divmod(col // nB, nY)
    step = q_f * (nY - 1) + q_y
    head, tail, first = q_y < nY - 1, q_y > 0, q_y == 0
    a_eq = csr_array((np.concatenate([np.ones(head.sum()), -np.ones(tail.sum()),
                                      np.ones(first.sum())]),
                      (np.concatenate([step[head], step[tail] - 1,
                                       np.full(first.sum(), n_f * (nY - 1))]),
                       np.concatenate([col[head], col[tail], col[first]]))),
                     shape=(n_f * (nY - 1) + 1, width + 1))
    b_eq = np.append(np.zeros(n_f * (nY - 1)), 1.0)
    objective = np.zeros(width + 1)
    objective[-1] = -1.0
    result = simplex_solve(LinearProgram(objective, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub,
                                         b_ub=np.concatenate([target, -target])))
    return -result.optimum, fs, np.clip(result.x[:-1], 0.0, None).reshape(n_f, nY, nB)


def _staircase(fs: np.ndarray, q: np.ndarray):
    """Split each channel q[f] / w_f into deterministic maps g by one shared
    quantile u in [0, 1): g(y) is the b whose cumulative slot of q[f, y] holds
    u.  Yields (f, g, weight) with at most nY (nB - 1) + 1 maps per f."""
    totals = q.sum(axis=(1, 2)) / q.shape[1]
    for k in np.flatnonzero(totals > ROUNDING_TOL):
        rows = q[k] / q[k].sum(axis=1, keepdims=True)
        cum = np.clip(np.cumsum(rows, axis=1)[:, :-1], 0.0, 1.0)
        cuts = np.unique(np.concatenate([[0.0, 1.0], cum.reshape(-1)]))
        mids = (cuts[:-1] + cuts[1:]) / 2
        gs = (cum[None] <= mids[:, None, None]).sum(axis=2)
        for g, width in zip(gs, np.diff(cuts)):
            yield fs[k], g, totals[k] * width


def is_local(corr: Correlation, tol: float = SYMMETRIZE_TOL) -> tuple[bool, LocalityReport]:
    """Exact local-polytope membership by one linear program.

    The local polytope is the convex hull of the nA^nX * nB^nY deterministic
    vertices.  For finite alphabets it is also the set of sum_f [a = f(x)]
    q_f(b|y): one party answers deterministically and the other keeps a
    sub-normalized channel (Fine, PRL 48, 291 (1982)).  The LP enumerates the
    maps of the party with fewer of them (transposing p to put that party
    first) and minimizes the largest entrywise deviation t between p and such a
    mixture; HiGHS solves it through ``simplex.simplex_solve`` within
    ``errors.WORK_BUDGET``.  Membership holds when t* <= ``tol``, and t* is
    reported as the separation gap otherwise.  A local verdict carries (f, g,
    weight) triples: each channel q_f is split into deterministic maps by a
    shared quantile, and the triples must sum to 1 and rebuild p within
    max(``tol``, ``INVARIANT_TOL``), or ``NumericError`` is raised.
    """
    swap = corr.nB ** corr.nY < corr.nA ** corr.nX
    gap, fs, q = _membership_lp(corr.p.transpose(1, 0, 3, 2) if swap else corr.p)
    gap = max(gap, 0.0)
    if gap > tol:
        return False, LocalityReport(False, gap, ())
    triples = [(tuple(f.tolist()), tuple(g.tolist()), float(w))
               for f, g, w in _staircase(fs, q) if w > ROUNDING_TOL]
    # Ordered by (f, g) either way: within one f, g rises with the quantile.
    weights = tuple(sorted((g, f, w) for f, g, w in triples) if swap else triples)
    _certify(corr, weights, tol)
    return True, LocalityReport(True, gap, weights)


def _certify(corr: Correlation, weights, tol: float) -> None:
    """Raise ``NumericError`` unless the weights sum to 1 and sum w D_(f,g)
    is p, both within ``tol`` or, if larger, ``INVARIANT_TOL``: a correlation is
    normalized only to that accuracy, and rounding alone exceeds tol = 0."""
    tol = max(tol, INVARIANT_TOL)
    ws = np.array([w for _, _, w in weights])
    excess = abs(float(ws.sum()) - 1.0)
    if not excess <= tol:  # NaN fails too
        raise NumericError("local weights do not sum to 1", residual=excess)
    fs = np.array([f for f, _, _ in weights], dtype=int).reshape(-1, corr.nX)
    gs = np.array([g for _, g, _ in weights], dtype=int).reshape(-1, corr.nY)
    rebuilt = np.zeros(corr.shape)
    np.add.at(rebuilt, (np.arange(corr.nX)[None, :, None], np.arange(corr.nY)[None, None, :],
                        fs[:, :, None], gs[:, None, :]), ws[:, None, None])
    miss = float(np.abs(rebuilt - corr.p).max())
    if not miss <= tol:
        raise NumericError("local decomposition does not rebuild p", residual=miss)


def product_correlation(p1: Correlation, p2: Correlation) -> Correlation:
    """Tensor of two correlations on row-major paired alphabets."""
    p = np.einsum("xyab,XYAB->xXyYaAbB", p1.p, p2.p)
    return Correlation(p.reshape(p1.nX * p2.nX, p1.nY * p2.nY,
                                 p1.nA * p2.nA, p1.nB * p2.nB))


def section(corr: Correlation, first_sizes: tuple[int, int, int, int],
            x_prime: int, y_prime: int) -> Correlation:
    """Section of a product-structured correlation at fixed (x', y').

    ``first_sizes`` gives (nX1, nY1, nA1, nB1); the complementary factor sizes
    are inferred and must divide the alphabets exactly.  The section fixes the
    second input factors and sums out the second output factors.
    """
    nX1, nY1, nA1, nB1 = first_sizes
    sizes = corr.shape
    for total, part, name in zip(sizes, first_sizes, "XYAB"):
        if part < 1 or total % part:
            raise ValidationError("factorization matches sizes",
                                  detail=f"n{name}={total} not divisible by {part}")
    nX2, nY2 = sizes[0] // nX1, sizes[1] // nY1
    nA2, nB2 = sizes[2] // nA1, sizes[3] // nB1
    if not (0 <= x_prime < nX2 and 0 <= y_prime < nY2):
        raise ValidationError("section index in range",
                              detail=f"(x',y')=({x_prime},{y_prime})")
    cube = corr.p.reshape(nX1, nX2, nY1, nY2, nA1, nA2, nB1, nB2)
    return Correlation(cube[:, x_prime, :, y_prime].sum(axis=(3, 5)))


# ---------------------------------------------------------------------------
# Text dump: header "corr nX nY nA nB"; one line per (x, y) in row-major
# order carrying the nA*nB probabilities ordered a*nB + b, printed with 17
# significant digits.  ``load_correlation`` reads it through
# ``textfile.ContentLines``, so '#' comments and blank lines are allowed.
# ---------------------------------------------------------------------------


def dump_correlation(corr: Correlation) -> str:
    lines = [f"corr {corr.nX} {corr.nY} {corr.nA} {corr.nB}"]
    for x in range(corr.nX):
        for y in range(corr.nY):
            lines.append(" ".join(f"{v:.17g}" for v in corr.p[x, y].reshape(-1)))
    return "\n".join(lines) + "\n"


def load_correlation(text: str) -> Correlation:
    lines = textfile.ContentLines(text)
    start, tokens = lines.header(0, "corr")
    nX, nY, nA, nB = textfile.sizes(tokens[1:], 4, start)
    rows = [textfile.row(line.split(), nA * nB, float, lineno)
            for lineno, line in zip(lines.numbers[1:], lines.rows[1:])]
    if len(rows) != nX * nY:
        raise ParseError(f"expected {nX * nY} probability lines, got {len(rows)}",
                         line=lines.number(len(lines)))
    return textfile.checked(start, Correlation, np.array(rows).reshape(nX, nY, nA, nB))
