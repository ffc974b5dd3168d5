"""Independent checks of nsgames answers.

Nothing here calls nsgames: predicates, payoffs, marginals, no-signalling
LPs and PVM properties are recomputed from the raw numpy arrays that the
benchmark generated, so a fault in the program cannot hide in its own
cross-check.  Every checker raises :class:`CheckError` on a wrong answer.

Tuple alphabets are row-major with the first coordinate most significant,
the convention the program documents for its iterates and products.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

VALUE_TOL = 1e-9      # value against its own certificate
LP_TOL = 1e-7         # value against an independently solved LP
NS_TOL = 1e-9         # no-signalling and normalization defects
PVM_TOL = 1e-9        # projectivity, orthogonality, completeness, residuals
TSIRELSON = (2.0 + math.sqrt(2.0)) / 4.0


class CheckError(AssertionError):
    """An answer of the program failed an independent check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Games: rules, iterates and payoffs built apart from nsgames
# ---------------------------------------------------------------------------


def chsh_rules() -> np.ndarray:
    x, y, a, b = np.indices((2, 2, 2, 2))
    return (a ^ b) == (x & y)


def digits(count: int, width: int, base: int) -> np.ndarray:
    """Row-major digits of 0..count-1, shape (count, width)."""
    idx = np.arange(count)
    return np.stack([(idx // base ** (width - 1 - k)) % base for k in range(width)], axis=1)


def _slot_wins(rules: np.ndarray, width: int) -> list[np.ndarray]:
    """Per coordinate k, the base rule applied to coordinate k of each tuple."""
    nX, nY, nA, nB = rules.shape
    dx, dy = digits(nX ** width, width, nX), digits(nY ** width, width, nY)
    da, db = digits(nA ** width, width, nA), digits(nB ** width, width, nB)
    return [rules[dx[:, k, None, None, None], dy[None, :, k, None, None],
                  da[None, None, :, k, None], db[None, None, None, :, k]]
            for k in range(width)]


def product_predicate(rules: np.ndarray, n: int) -> np.ndarray:
    """n-fold parallel repetition: every coordinate wins."""
    return np.logical_and.reduce(_slot_wins(rules, n))


def memory_predicate(rules: np.ndarray, n: int) -> np.ndarray:
    """n-th memory iterate over n + 1 coordinates: each slot k < n needs a win
    at coordinate k or k + 1."""
    slots = _slot_wins(rules, n + 1)
    return np.logical_and.reduce([slots[k] | slots[k + 1] for k in range(n)])


def product_dist(dist: np.ndarray, width: int) -> np.ndarray:
    out = np.ones((1, 1))
    for _ in range(width):
        out = np.einsum("xy,XY->xXyY", out, dist).reshape(out.shape[0] * dist.shape[0],
                                                          out.shape[1] * dist.shape[1])
    return out


def payoff(rules: np.ndarray, dist: np.ndarray, p: np.ndarray) -> float:
    return float(np.sum(dist[:, :, None, None] * rules * p))


def pair_wins(rules: np.ndarray, f, g) -> int:
    """Number of question pairs that the deterministic pair (f, g) wins."""
    f, g = np.asarray(f), np.asarray(g)
    nX, nY = rules.shape[:2]
    expect(f.shape == (nX,) and g.shape == (nY,), "strategy lengths match the alphabets")
    expect(bool(np.all((0 <= f) & (f < rules.shape[2]) & (0 <= g) & (g < rules.shape[3]))),
           "strategy outputs in range")
    return int(rules[np.arange(nX)[:, None], np.arange(nY)[None, :], f[:, None], g[None, :]].sum())


def brute_force_loc(rules: np.ndarray, dist: np.ndarray) -> float:
    """Classical value as the maximum over every deterministic pair (f, g)."""
    nX, nY, nA, nB = rules.shape
    weight = dist[:, :, None, None] * rules
    fs, gs = digits(nA ** nX, nX, nA), digits(nB ** nY, nY, nB)
    # partial[f, y, b] = sum_x weight[x, y, f(x), b]
    partial = sum(weight[x][:, fs[:, x], :].transpose(1, 0, 2) for x in range(nX))
    scores = sum(partial[:, y, gs[:, y]] for y in range(nY))  # (nF, nG)
    return float(scores.max())


def bob_side_loc_wins(rules: np.ndarray) -> int:
    """Classical value of a uniform-question game as a win count, enumerating
    Bob's maps and giving Alice her best reply per question.

    This transposes the program's method (which enumerates Alice's maps), so
    a fault in either shows as a mismatch.  Integer counts keep it exact.
    """
    nX, nY, nA, nB = rules.shape
    table = rules.transpose(1, 3, 0, 2).astype(np.int16)  # [y, b, x, a]
    half = nY // 2

    def partial(ys: range) -> np.ndarray:
        acc = np.zeros((1, nX, nA), dtype=np.int16)
        for y in ys:
            acc = (acc[:, None] + table[y][None]).reshape(-1, nX, nA)
        return acc

    first, second = partial(range(0, half)), partial(range(half, nY))
    best = 0
    chunk = max(1, 4_000_000 // (second.shape[0] * nX * nA))
    for start in range(0, first.shape[0], chunk):
        block = first[start:start + chunk, None] + second[None]
        best = max(best, int(block.max(axis=3).sum(axis=2, dtype=np.int32).max()))
    return best


# ---------------------------------------------------------------------------
# Correlations
# ---------------------------------------------------------------------------


def pr_box() -> np.ndarray:
    return chsh_rules() * 0.5


def perfect_box(rules: np.ndarray) -> np.ndarray:
    """p(a,b|x,y) = win / nA for a predicate that pairs each answer of one
    side with exactly one winning answer of the other, on every question
    pair: uniform marginals, so no-signalling, and it always wins."""
    nA, nB = rules.shape[2:]
    expect(nA == nB and np.all(rules.sum(axis=3) == 1) and np.all(rules.sum(axis=2) == 1),
           "predicate is not a bijection of answers on every question pair")
    return rules / nA


def product_correlation(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    s1, s2 = p1.shape, p2.shape
    return np.einsum("xyab,XYAB->xXyYaAbB", p1, p2).reshape(
        tuple(u * v for u, v in zip(s1, s2)))


def ns_defect(p: np.ndarray) -> float:
    """Worst spread of Alice's marginal over y and of Bob's over x."""
    alice = p.sum(axis=3)   # (x, y, a)
    bob = p.sum(axis=2)     # (x, y, b)
    return max(float((alice.max(axis=1) - alice.min(axis=1)).max(initial=0.0)),
               float((bob.max(axis=0) - bob.min(axis=0)).max(initial=0.0)))


def check_correlation(p: np.ndarray, shape) -> None:
    expect(p.shape == tuple(shape), f"correlation shape {p.shape} != {tuple(shape)}")
    expect(float(p.min()) >= -1e-12, f"negative probability {float(p.min())!r}")
    norm = float(np.abs(p.sum(axis=(2, 3)) - 1.0).max())
    expect(norm <= NS_TOL, f"normalization defect {norm!r}")
    defect = ns_defect(p)
    expect(defect <= NS_TOL, f"no-signalling defect {defect!r}")


def section(p: np.ndarray, first: tuple, x2: int, y2: int) -> np.ndarray:
    """Fix the second factor's inputs and sum out its outputs."""
    nX1, nY1, nA1, nB1 = first
    nX, nY, nA, nB = p.shape
    cube = p.reshape(nX1, nX // nX1, nY1, nY // nY1, nA1, nA // nA1, nB1, nB // nB1)
    return cube[:, x2, :, y2].sum(axis=(3, 5))


def chsh_win(p: np.ndarray) -> float:
    return payoff(chsh_rules(), np.full((2, 2), 0.25), p)


def rebuild(weights, shape) -> np.ndarray:
    nX, nY, nA, nB = shape
    p = np.zeros(shape)
    for f, g, w in weights:
        p[np.arange(nX)[:, None], np.arange(nY)[None, :],
          np.asarray(f)[:, None], np.asarray(g)[None, :]] += w
    return p


def check_local_pass(p: np.ndarray, verdict: bool, gap: float, weights, tol: float) -> None:
    expect(verdict, f"local mixture judged non-local (gap {gap!r})")
    expect(0.0 <= gap <= tol, f"gap {gap!r} outside [0, {tol}]")
    expect(len(weights) > 0, "no decomposition returned")
    w = np.array([entry[2] for entry in weights])
    expect(float(w.min()) >= 0.0, f"negative weight {float(w.min())!r}")
    expect(abs(float(w.sum()) - 1.0) <= tol, f"weights sum to {float(w.sum())!r}")
    miss = float(np.abs(rebuild(weights, p.shape) - p).max())
    expect(miss <= tol, f"weights rebuild p only within {miss!r}")


def check_local_fail(verdict: bool, gap: float, tol: float, chsh_section: np.ndarray) -> None:
    expect(not verdict, "non-local correlation judged local")
    expect(gap > tol, f"gap {gap!r} not above tol {tol}")
    win = chsh_win(chsh_section)
    expect(win > 0.75, f"CHSH section wins only {win!r}")


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def ns_value_lp(rules: np.ndarray, dist: np.ndarray) -> float:
    """No-signalling value from a sparse LP solved by HiGHS."""
    nX, nY, nA, nB = rules.shape
    idx = np.arange(rules.size).reshape(rules.shape)
    rows, cols, vals = [], [], []
    r = 0

    def add(plus, minus=None):
        nonlocal r
        plus = np.ravel(plus)
        rows.extend([r] * plus.size)
        cols.extend(plus.tolist())
        vals.extend([1.0] * plus.size)
        if minus is not None:
            minus = np.ravel(minus)
            rows.extend([r] * minus.size)
            cols.extend(minus.tolist())
            vals.extend([-1.0] * minus.size)
        r += 1

    for x in range(nX):
        for y in range(nY):
            add(idx[x, y])
    n_norm = r
    for x in range(nX):
        for a in range(nA):
            for y in range(1, nY):
                add(idx[x, y, a, :], idx[x, 0, a, :])
    for y in range(nY):
        for b in range(nB):
            for x in range(1, nX):
                add(idx[x, y, :, b], idx[0, y, :, b])
    a_eq = sparse.csr_matrix((vals, (rows, cols)), shape=(r, rules.size))
    b_eq = np.zeros(r)
    b_eq[:n_norm] = 1.0
    c = -(dist[:, :, None, None] * rules).reshape(-1)
    result = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    expect(result.status == 0, f"reference LP failed: {result.message}")
    return float(-result.fun)


def check_loc(rules: np.ndarray, value: float, f, g) -> None:
    """With uniform questions, the pair (f, g) wins value x (question pairs)
    pairs on the benchmark's own predicate, and that is an integer."""
    pairs = rules.shape[0] * rules.shape[1]
    expect(abs(value * pairs - round(value * pairs)) <= VALUE_TOL,
           f"value {value!r} times {pairs} question pairs is not an integer")
    scored = pair_wins(rules, f, g) / pairs
    expect(abs(scored - value) <= VALUE_TOL, f"certificate scores {scored!r}, reported {value!r}")


def check_ns(rules: np.ndarray, dist: np.ndarray, value: float, p: np.ndarray | None,
             lp_value: float) -> None:
    if p is not None:
        check_correlation(p, rules.shape)
        scored = payoff(rules, dist, p)
        expect(abs(scored - value) <= VALUE_TOL,
               f"certificate scores {scored!r}, reported {value!r}")
    expect(abs(lp_value - value) <= LP_TOL,
           f"reported ns value {value!r}, reference LP {lp_value!r}")


def check_order(loc: float, qs: float, ns: float) -> None:
    expect(loc <= qs + VALUE_TOL, f"qs lower bound {qs!r} below loc {loc!r}")
    expect(qs <= ns + VALUE_TOL, f"qs lower bound {qs!r} above ns {ns!r}")


def check_tsirelson(qs: float) -> None:
    expect(qs <= TSIRELSON + 1e-12, f"CHSH qs {qs!r} exceeds Tsirelson's bound")
    expect(qs >= TSIRELSON - 1e-6, f"CHSH qs {qs!r} short of Tsirelson's bound")


def check_sequence(entries, running: bool, exact_raw=None) -> None:
    """Rows (n, raw, normalized[, running max]) of a value sequence.

    ``exact_raw`` gives independently computed raw values by n.
    """
    expect(len(entries) > 0, "empty sequence")
    best = -1.0
    for i, row in enumerate(entries):
        n, raw, normalized = int(row[0]), row[1], row[2]
        expect(n == i + 1, f"sequence rows out of order at {n}")
        if i:
            expect(raw <= entries[i - 1][1] + VALUE_TOL, f"raw value rises at n={n}")
        want = raw ** (1.0 / n) if raw > 0.0 else 0.0
        expect(abs(normalized - want) <= 1e-12, f"normalized {normalized!r} != raw^(1/{n})")
        best = max(best, normalized)
        if running:
            expect(abs(row[3] - best) <= 1e-12, f"running max {row[3]!r} != {best!r}")
        if exact_raw is not None:
            expect(abs(raw - exact_raw[n]) <= LP_TOL,
                   f"raw value {raw!r} at n={n}, reference {exact_raw[n]!r}")


# ---------------------------------------------------------------------------
# Dilations
# ---------------------------------------------------------------------------


def parse_povms(text: str) -> list[np.ndarray]:
    """Every 'povm dim=d outcomes=k' block of a report, as (k, d, d) arrays."""
    lines = [line.strip() for line in text.splitlines()]
    out = []
    i = 0
    while i < len(lines):
        if lines[i].startswith("povm "):
            fields = dict(tok.split("=") for tok in lines[i].split()[1:])
            d, k = int(fields["dim"]), int(fields["outcomes"])
            rows = lines[i + 1:i + 1 + d * k]
            entries = [[complex(float.fromhex(t.split(",")[0]), float.fromhex(t.split(",")[1]))
                        for t in row.split()] for row in rows]
            out.append(np.array(entries).reshape(k, d, d))
            i += 1 + d * k
        else:
            i += 1
    return out


def parse_residuals(text: str) -> dict[str, float]:
    return {line.split()[1]: float(line.split()[2])
            for line in text.splitlines() if line.startswith("residual ")}


def _max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max(initial=0.0))


def check_pvm(effects: np.ndarray) -> None:
    k, d, _ = effects.shape
    for a in range(k):
        e = effects[a]
        expect(_max_abs(e - e.conj().T) <= PVM_TOL, f"effect {a} not Hermitian")
        expect(_max_abs(e @ e - e) <= PVM_TOL, f"effect {a} not projective")
        for b in range(a + 1, k):
            expect(_max_abs(e @ effects[b]) <= PVM_TOL, f"effects {a},{b} not orthogonal")
    expect(_max_abs(effects.sum(axis=0) - np.eye(d)) <= PVM_TOL, "effects do not sum to I")


def check_commute(p: np.ndarray, q: np.ndarray) -> None:
    for a in range(p.shape[0]):
        for b in range(q.shape[0]):
            expect(_max_abs(p[a] @ q[b] - q[b] @ p[a]) <= PVM_TOL,
                   f"P_{a} and Q_{b} do not commute")


def check_dilation(text: str, joint: bool, expected_pvms: int) -> None:
    residuals = parse_residuals(text)
    expect(len(residuals) >= 4, "residual lines missing")
    for name, value in residuals.items():
        expect(value <= PVM_TOL, f"residual {name} = {value!r}")
    pvms = parse_povms(text)
    expect(len(pvms) == expected_pvms, f"{len(pvms)} PVMs printed, expected {expected_pvms}")
    for effects in pvms:
        check_pvm(effects)
    if joint:
        check_commute(pvms[0], pvms[1])
