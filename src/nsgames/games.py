"""Finite games, cylinder games, values, products, iterates, and memory games.

A finite game is a rule predicate over (x, y, a, b) plus a question
distribution.  A cylinder game is a window-w predicate over the corresponding
bi-infinite sequence spaces with the product question measure; its n-th
iterate intersects n backward-shifted copies of the winning set and is again
a finite game, over tuple alphabets of width w + n - 1.  Tuple alphabets are
always encoded row-major (first coordinate most significant), matching the
correlation module, and ``strategies.map_digits`` decodes them.

A relabeling permutes the questions of each party and each party's answers
per question, fixing ``win`` and ``dist``.  ``embed`` and ``memory_game``
find the base game's relabelings, and ``iterate`` hands them on with its
width: the base group acting on each coordinate independently fixes the
iterate, so every orbit of the iterate is a product of base orbits, which the
engines in ``optimize`` reduce by.  Other games (built directly, loaded, or
products) carry none.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import optimize, textfile
from .correlations import Alphabets, Correlation, deterministic_correlation, from_qs
from .errors import (ENTRY_BUDGET, INVARIANT_TOL, RELABELING_CAP, ROUNDING_TOL, NumericError,
                     ParseError, TooLargeError, ValidationError, require_budget)
from .strategies import coordinate_blocks


def _question_dist(dist, shape: tuple, what: str) -> np.ndarray:
    """``dist`` as a read-only float array of this shape, nonnegative and
    summing to 1; ``what`` names the shape check."""
    dist = np.array(dist, dtype=float)
    if dist.shape != shape:
        raise ValidationError(what, detail=f"{dist.shape} vs {shape}")
    if not float(dist.min()) >= 0.0:  # NaN fails too
        raise ValidationError("distribution nonnegative", residual=float(dist.min()))
    defect = abs(float(dist.sum()) - 1.0)
    if not defect <= ROUNDING_TOL:
        raise ValidationError("distribution sums to 1", residual=defect)
    dist.setflags(write=False)
    return dist


def _predicate(win) -> np.ndarray:
    """``win`` as a read-only bool array: one already, as the builders here hand
    in, is taken over; any other is copied, so a caller's array never freezes."""
    if not (isinstance(win, np.ndarray) and win.dtype == bool and not win.flags.writeable):
        win = np.array(win, dtype=bool)
        win.setflags(write=False)
    return win


@dataclass(frozen=True, eq=False, repr=False)
class FiniteGame(Alphabets):
    """Rule predicate ``win`` over (x,y,a,b) and question distribution ``dist``."""

    win: np.ndarray
    dist: np.ndarray
    name: str = field(default="", compare=False)
    # (group, width), set by ``iterate``: base relabelings, identity first, each
    # fixing win and dist on any one of the width coordinates; () for no other.
    symmetry: tuple = field(default=(), init=False, compare=False)

    def __init__(self, win, dist, name: str = ""):
        win = _predicate(win)
        if win.ndim != 4:
            raise ValidationError("rank-4 predicate", detail=f"shape {win.shape}")
        dist = _question_dist(dist, win.shape[:2], "distribution over question pairs")
        object.__setattr__(self, "win", win)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "name", name)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.win.shape

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"FiniteGame{label}(shape={self.shape})"


@dataclass(frozen=True, eq=False, repr=False)
class CylinderGame:
    """A shift-window game over Cantor spaces with product question measure.

    ``win`` is the predicate over the windowed tuple alphabets (sizes
    base^window); ``base_dist`` is the single-site question distribution, so
    the reference measure is its bi-infinite product, invariant under the
    backward shifts.
    """

    window: int
    base_shape: tuple[int, int, int, int]
    win: np.ndarray
    base_dist: np.ndarray
    name: str = field(default="", compare=False)
    # The base game's relabelings; set by ``embed`` and ``memory_game``.
    relabelings: tuple = field(default=(), init=False, compare=False)

    def __init__(self, window, base_shape, win, base_dist, name: str = ""):
        window = int(window)
        if window < 1:
            raise ValidationError("window >= 1", residual=float(window))
        base_shape = tuple(int(n) for n in base_shape)
        win = _predicate(win)
        # an exponent past every dimension's bit length keeps the verdict when capped
        cap = max(win.shape, default=0).bit_length() + 1
        if win.shape != tuple(n ** min(window, cap) for n in base_shape):
            raise ValidationError("windowed predicate shape",
                                  detail=f"{win.shape} vs {base_shape} ** {window}")
        base_dist = _question_dist(base_dist, base_shape[:2],
                                   "distribution over base question pairs")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "base_shape", base_shape)
        object.__setattr__(self, "win", win)
        object.__setattr__(self, "base_dist", base_dist)
        object.__setattr__(self, "name", name)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"CylinderGame{label}(window={self.window}, base={self.base_shape})"


@dataclass(frozen=True, eq=False)
class ValueReport:
    """A computed game value with its certificate.

    ``kind`` is "loc", "ns", or "qs-lb"; ``exact`` is True for the first two.
    The certificate always re-evaluates to the reported value within
    ``INVARIANT_TOL`` (checked at construction by :func:`value`).
    """

    game_id: str
    kind: str
    value: float
    certificate: object
    exact: bool


def payoff(game: FiniteGame, corr: Correlation) -> float:
    """Winning probability sum_{x,y} pi0(x,y) sum_{win} p(a,b|x,y)."""
    if corr.shape != game.shape:
        raise ValidationError("matching alphabets",
                              detail=f"{corr.shape} vs {game.shape}")
    total = float(np.sum(game.dist[:, :, None, None] * game.win * corr.p))
    if not -INVARIANT_TOL <= total <= 1.0 + INVARIANT_TOL:
        raise NumericError("payoff escaped [0,1]", residual=total)
    return min(max(total, 0.0), 1.0)


def value(game: FiniteGame, kind: str, *, dim: int = 2, seeds: int = 20,
          max_sweeps: int = 200, rng_seed: int = 0) -> ValueReport:
    """Compute a game value: exact for "loc"/"ns", a lower bound for "qs"."""
    if kind == "loc":
        val, certificate = optimize.local_value(game)
        corr = deterministic_correlation(*certificate, game.nA, game.nB)
    elif kind == "ns":
        val, corr = optimize.ns_value(game)
        certificate = corr
    elif kind == "qs":
        state = optimize.qs_seesaw(game, dim=dim, seeds=seeds,
                                   max_sweeps=max_sweeps, rng_seed=rng_seed)
        val, certificate = state.value, state
        corr = from_qs(state.alice, state.bob, state.psi)
    else:
        raise ValueError(f"unknown value type {kind!r}")
    check = payoff(game, corr)
    if abs(check - val) > INVARIANT_TOL:
        raise NumericError("certificate does not reproduce the value",
                           residual=abs(check - val))
    tag = "qs-lb" if kind == "qs" else kind
    return ValueReport(game.name, tag, min(max(val, 0.0), 1.0), certificate, kind != "qs")


def product_game(g1: FiniteGame, g2: FiniteGame) -> FiniteGame:
    """Product game: win both coordinates; questions drawn independently."""
    require_budget(math.prod(a * b for a, b in zip(g1.shape, g2.shape)), ENTRY_BUDGET,
                   "product predicate")
    win = np.logical_and(
        g1.win.reshape(g1.nX, 1, g1.nY, 1, g1.nA, 1, g1.nB, 1),
        g2.win.reshape(1, g2.nX, 1, g2.nY, 1, g2.nA, 1, g2.nB),
    ).reshape(g1.nX * g2.nX, g1.nY * g2.nY, g1.nA * g2.nA, g1.nB * g2.nB)
    win.setflags(write=False)
    dist = np.einsum("xy,XY->xXyY", g1.dist, g2.dist).reshape(
        g1.nX * g2.nX, g1.nY * g2.nY)
    name = f"{g1.name}*{g2.name}" if g1.name or g2.name else ""
    return FiniteGame(win, dist, name=name)


def relabelings(game: FiniteGame) -> tuple:
    """Every relabeling (px, py, sa, sb) that fixes ``win`` and ``dist`` exactly.

    It maps (x, y, a, b) to (px[x], py[y], sa[x, a], sb[y, b]); the identity
    comes first.  The search tries every candidate at once; above
    ``RELABELING_CAP`` candidates it returns ().  Swapping the parties is not
    considered.
    """
    nX, nY, nA, nB = game.shape
    f = math.factorial
    if f(nX) * f(nY) * f(nA) ** nX * f(nB) ** nY > RELABELING_CAP:
        return ()

    def perms(n: int, copies: int) -> np.ndarray:  # (count, copies, n)
        one = np.array(list(itertools.permutations(range(n))))
        return one[np.indices((len(one),) * copies).reshape(copies, -1).T]

    px, py, sa, sb = perms(nX, 1), perms(nY, 1), perms(nA, nX), perms(nB, nY)
    X = px.reshape(-1, 1, 1, 1, nX, 1, 1, 1)  # candidate axes, then (x, y, a, b)
    Y = py.reshape(1, -1, 1, 1, 1, nY, 1, 1)
    A = sa.reshape(1, 1, -1, 1, nX, 1, nA, 1)
    B = sb.reshape(1, 1, 1, -1, 1, nY, 1, nB)
    fixed = (game.win[X, Y, A, B] == game.win).all(axis=(4, 5, 6, 7))
    fixed &= (game.dist[X[..., 0, 0], Y[..., 0, 0]] == game.dist).all(axis=(4, 5))
    return tuple((px[i, 0], py[j, 0], sa[k], sb[m]) for i, j, k, m in np.argwhere(fixed))


def _carrying(game, attribute: str, value):
    object.__setattr__(game, attribute, value)
    return game


def embed(game: FiniteGame) -> CylinderGame:
    """The window-1 cylinder game whose iterates are the parallel repetitions."""
    return _carrying(CylinderGame(1, game.shape, game.win, game.dist, name=game.name),
                     "relabelings", relabelings(game))


def memory_game(game: FiniteGame) -> CylinderGame:
    """Window-2 game winning a slot when the current or next coordinate wins.

    Its iterates demand, for every offset k below n, a win at slot k or k+1,
    which lets strategies concentrate wins on alternating slots.
    """
    nX, nY, nA, nB = game.shape
    win2 = np.logical_or(
        game.win.reshape(nX, 1, nY, 1, nA, 1, nB, 1),
        game.win.reshape(1, nX, 1, nY, 1, nA, 1, nB),
    ).reshape(nX * nX, nY * nY, nA * nA, nB * nB)
    win2.setflags(write=False)
    name = f"memory({game.name})" if game.name else ""
    return _carrying(CylinderGame(2, game.shape, win2, game.dist, name=name),
                     "relabelings", relabelings(game))


def iterate(cylinder: CylinderGame, n: int) -> FiniteGame:
    """The finite game realizing the n-th iterate of a cylinder game.

    The predicate depends on coordinates 0 .. window+n-2, so the result lives
    over tuple alphabets of exactly that width: slot k contributes the window
    predicate applied to coordinates k .. k+window-1, and every slot must win.
    The question distribution is the product of the base distribution over the
    width.
    """
    if n < 1:
        raise ValidationError("n >= 1", residual=float(n))
    w = cylinder.window
    width = w + n - 1
    nX, nY, nA, nB = cylinder.base_shape
    require_budget(math.prod(s ** width for s in cylinder.base_shape), ENTRY_BUDGET,
                   f"width-{width} iterate predicate")
    win = np.ones((nX ** width, nY ** width, nA ** width, nB ** width), dtype=bool)
    for k in range(n):
        view = coordinate_blocks(win, cylinder.base_shape, k, w, width)
        view &= coordinate_blocks(cylinder.win, cylinder.base_shape, 0, w, w)
    dist = np.ones((nX ** width, nY ** width))
    for k in range(width):
        view = coordinate_blocks(dist, (nX, nY), k, 1, width)
        view *= coordinate_blocks(cylinder.base_dist, (nX, nY), 0, 1, 1)
    win.setflags(write=False)
    name = f"{cylinder.name}^({n})" if cylinder.name else ""
    group = cylinder.relabelings
    return _carrying(FiniteGame(win, dist, name=name), "symmetry",
                     (group, width) if len(group) > 1 else ())


@dataclass(frozen=True)
class SequenceEntry:
    """One row of a value sequence: the raw value of the n-th stage game and
    its n-th root; ``running_max`` tracks the inner-value lower estimate."""

    n: int
    value: float
    normalized: float
    running_max: float | None = None


def asymptotic_sequence(game: FiniteGame, kind: str, n_max: int,
                        **opts) -> tuple[list[SequenceEntry], bool]:
    """Normalized values of the n-fold parallel repetitions, n = 1..n_max.

    Returns (entries, truncated); truncated is True when a size budget stopped
    the sequence early.  Entries of kind "qs" are see-saw lower bounds.
    """
    return inner_value_sequence(embed(game), kind, n_max, **opts)


def inner_value_sequence(cylinder: CylinderGame, kind: str, n_max: int,
                         **opts) -> tuple[list[SequenceEntry], bool]:
    """Values of the cylinder-game iterates with their n-th roots.

    The raw iterate values are non-increasing in n (each iterate's winning set
    contains the next); this is verified for the exact engines and a violation
    beyond ``INVARIANT_TOL`` raises, since it can only come from an engine
    defect.  Stages are computed one after another, in order of n, in the
    calling thread; the first stage over a budget ends the sequence, and no
    later stage is started.
    """
    entries: list[SequenceEntry] = []
    for n in range(1, n_max + 1):
        try:
            raw = value(iterate(cylinder, n), kind, **opts).value
        except TooLargeError:
            return entries, True
        last = entries[-1] if entries else None
        if kind != "qs" and last is not None and raw > last.value + INVARIANT_TOL:
            raise NumericError("iterate values must be non-increasing",
                               residual=raw - last.value)
        normalized = raw ** (1.0 / n) if raw > 0.0 else 0.0
        running = normalized if last is None else max(last.running_max, normalized)
        entries.append(SequenceEntry(n, raw, normalized, running))
    return entries, False


# ---------------------------------------------------------------------------
# Stock games and the text format
# ---------------------------------------------------------------------------


def chsh() -> FiniteGame:
    """Binary game, uniform questions, win when a XOR b equals x AND y."""
    x, y, a, b = np.indices((2, 2, 2, 2))
    return FiniteGame((a ^ b) == (x & y), np.full((2, 2), 0.25), name="chsh")


def all_win(nX: int = 1, nY: int = 1, nA: int = 1, nB: int = 1) -> FiniteGame:
    return FiniteGame(np.ones((nX, nY, nA, nB), dtype=bool),
                      np.full((nX, nY), 1.0 / (nX * nY)), name="all-win")


def never_win(nX: int = 1, nY: int = 1, nA: int = 1, nB: int = 1) -> FiniteGame:
    return FiniteGame(np.zeros((nX, nY, nA, nB), dtype=bool),
                      np.full((nX, nY), 1.0 / (nX * nY)), name="never-win")


def random_game(shape: tuple[int, int, int, int], rng: np.random.Generator,
                win_probability: float = 0.5, uniform_dist: bool = False,
                name: str = "") -> FiniteGame:
    """Random rule predicate with a random (or uniform) question distribution."""
    win = rng.random(shape) < win_probability
    raw = np.ones(shape[:2]) if uniform_dist else rng.random(shape[:2]) + 0.1
    return FiniteGame(win, raw / raw.sum(), name=name)


def dump_game(game: FiniteGame | CylinderGame) -> str:
    """Serialize to the line format understood by :func:`load_game`."""
    cylinder = isinstance(game, CylinderGame)
    shape, dist = (game.base_shape, game.base_dist) if cylinder else (game.shape, game.dist)
    header = "game " + " ".join(map(str, shape)) + (f" window {game.window}" if cylinder else "")
    lines = [header, "dist " + " ".join(f"{v:.17g}" for v in dist.reshape(-1))]
    for x, y, a, b in np.argwhere(game.win):
        lines.append(f"win {x} {y} {a} {b}")
    return "\n".join(lines) + "\n"


def load_game(text: str) -> FiniteGame | CylinderGame:
    """Parse the game file format.

    First content line: ``game nX nY nA nB`` with an optional ``window w``
    suffix (the cylinder case; the predicate is then over the windowed tuple
    alphabets).
    Then, in any order, ``dist`` followed by the nX*nY question probabilities
    row-major, and one ``win x y a b`` line per winning quadruple.  Comments
    and blank lines are cut by ``textfile.ContentLines``.
    """
    lines = textfile.ContentLines(text)
    start, tokens = lines.header(0, "game")
    if len(tokens) not in (5, 7) or tokens[5:6] not in ([], ["window"]):
        raise ParseError("expected 'game nX nY nA nB [window w]'", line=start)
    sizes = textfile.sizes(tokens[1:5], 4, start)
    window = textfile.sizes(tokens[6:], 1, start)[0] if len(tokens) == 7 else None
    # n ** c > ENTRY_BUDGET for n >= 2 once c reaches its bit length: the cap keeps the verdict
    cap = ENTRY_BUDGET.bit_length()
    require_budget(math.prod(n ** min(window or 1, cap) for n in sizes), ENTRY_BUDGET,
                   "game file predicate")
    shape = nx, ny, na, nb = tuple(n ** (window or 1) for n in sizes)
    win = np.zeros(shape, dtype=bool)
    dist = None
    for lineno, line in zip(lines.numbers[1:], lines.rows[1:]):
        tokens = line.split()
        if tokens[0] == "win":
            try:
                x, y, a, b = map(int, tokens[1:])
            except ValueError:
                raise ParseError("expected 'win x y a b'", line=lineno) from None
            if not (0 <= x < nx and 0 <= y < ny and 0 <= a < na and 0 <= b < nb):
                raise ParseError(f"win index out of range {shape}", line=lineno)
            win[x, y, a, b] = True
        elif tokens[0] == "dist":
            if dist is not None:
                raise ParseError("duplicate dist line", line=lineno)
            dist = np.reshape(textfile.row(tokens[1:], sizes[0] * sizes[1], float, lineno),
                              sizes[:2])
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", line=lineno)
    if dist is None:
        raise ParseError("missing dist line", line=start)
    win.setflags(write=False)
    if window is None:
        return textfile.checked(start, FiniteGame, win, dist)
    return textfile.checked(start, CylinderGame, window, sizes, win, dist)
