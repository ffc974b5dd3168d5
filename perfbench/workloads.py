"""The four workloads: seeded inputs, the operations of one round, a warm-up
call and the independent checks of a round's answers.

A workload is a :class:`Plan`.  Its ``ops`` are timed as one round and
repeated whole; ``check`` receives one round's answers in ``ops`` order and
raises :class:`checks.CheckError` on a wrong one.  A failed operation's
answer is its exception, which ``check`` skips.  Inputs depend only on the
seed, and the program only ever sees the generated games, correlations and
files.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from checks import expect

import nsgames as ng
from nsgames import cli

# One value for every --threads flag; numeric libraries get theirs from the
# environment that run.py sets before numpy is imported.
THREADS = str(min(2, os.cpu_count() or 1))
LOCAL_TOL = 1e-8
UNIFORM2 = np.full((2, 2), 0.25)


@dataclass
class Plan:
    ops: list[tuple[str, Callable[[], object]]]
    warmup: Callable[[], object]
    check: Callable[[list], None]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def local_mixture(rng: np.random.Generator, shape, parts: int) -> np.ndarray:
    """sum_i w_i q_i(a|x) r_i(b|y) with Dirichlet weights and rows."""
    nX, nY, nA, nB = shape
    w = rng.dirichlet(np.ones(parts))
    p = np.zeros(shape)
    for i in range(parts):
        q = rng.dirichlet(np.ones(nA), size=nX)
        r = rng.dirichlet(np.ones(nB), size=nY)
        p += w[i] * np.einsum("xa,yb->xyab", q, r)
    return p


def noisy_pr(visibility: float) -> np.ndarray:
    return visibility * checks.pr_box() + (1.0 - visibility) * 0.25


# ---------------------------------------------------------------------------
# loc-memory: the enumeration kernel
# ---------------------------------------------------------------------------


def loc_memory(seed: int, workdir: str) -> Plan:
    """Exact loc values of memory-game iterates with uniform questions.

    memory(chsh)^2 scans 8^8 Alice maps; the seeded random predicate enters
    at n = 1.
    """
    bases = {"chsh": checks.chsh_rules(), "rand": _rng(seed, 1).random((2, 2, 2, 2)) < 0.5}
    games = {name: ng.FiniteGame(rules, UNIFORM2, name=name) for name, rules in bases.items()}
    cases = [("chsh", 1), ("rand", 1), ("chsh", 2)]

    def op(name, n):
        return lambda: ng.value(ng.iterate(ng.memory_game(games[name]), n), "loc")

    def check(reports):
        raw = {}
        for (name, n), report in zip(cases, reports):
            if isinstance(report, Exception):
                continue
            expect(report.kind == "loc" and report.exact, f"report kind {report.kind!r}")
            rules = checks.memory_predicate(bases[name], n)
            f, g = report.certificate
            checks.check_loc(rules, report.value, f, g)
            if n == 1:
                uniform = np.full(rules.shape[:2], 1.0 / (rules.shape[0] * rules.shape[1]))
                brute = checks.brute_force_loc(rules, uniform)
                expect(abs(brute - report.value) <= checks.VALUE_TOL,
                       f"memory({name})^{n}: brute force {brute!r}, reported {report.value!r}")
            raw[name, n] = report.value
        if ("chsh", 1) in raw and ("chsh", 2) in raw:
            expect(raw["chsh", 2] <= raw["chsh", 1] + checks.VALUE_TOL, "loc rises from n=1 to n=2")

    return Plan([(f"loc memory({name})^{n}", op(name, n)) for name, n in cases],
                lambda: ng.value(games["chsh"], "loc"), check)


# ---------------------------------------------------------------------------
# ns-memory: the NS LP build and the dense simplex
# ---------------------------------------------------------------------------


def failing_game() -> tuple[np.ndarray, np.ndarray]:
    """A fixed 6^4 game, win probability 0.3 per entry, on which the dense
    simplex loses primal feasibility (residual 0.256).

    It is the random game an earlier ns-memory drew at seed 8 (stream 2,
    after the 2x2x2x2 predicate).  Random 6^4 games cannot be seeded here:
    some make the simplex fail and some make it run for >64,000 pivots.
    """
    rng = _rng(8, 2)
    rng.random((2, 2, 2, 2))
    rules = rng.random((6, 6, 6, 6)) < 0.3
    dist = rng.random((6, 6)) + 0.1
    return rules, dist / dist.sum()


def chained_rules(n: int) -> np.ndarray:
    """n questions per side, binary answers: a xor b = [x = y = n - 1]."""
    x, y, a, b = np.indices((n, n, 2, 2))
    return (a ^ b) == ((x == n - 1) & (y == n - 1))


def ternary_rules() -> np.ndarray:
    """Binary questions, ternary answers: a - b = x y (mod 3)."""
    x, y, a, b = np.indices((2, 2, 3, 3))
    return (a - b) % 3 == x * y


def ns_memory(seed: int, workdir: str) -> Plan:
    """Exact ns values of memory iterates at n = 1 (degenerate LPs) and of
    the fixed 6^4 game of :func:`failing_game` (non-degenerate).

    memory(chained3)^1 (9x9x4x4, 744 pivots) and memory(ternary)^1 (4x4x9x9)
    are fixed; the seed draws the 2x2x2x2 predicate R.  Every base but R has
    a perfect no-signalling box, so its iterates have ns value 1.  The 6^4
    operation fails in every run and counts in ``failed``; its time still
    covers both simplex phases.  Should it succeed, it is checked like the
    others.
    """
    bases = {"chsh": checks.chsh_rules(), "rand": _rng(seed, 2).random((2, 2, 2, 2)) < 0.5,
             "chained3": chained_rules(3), "ternary": ternary_rules()}
    dists = {name: np.full(rules.shape[:2], 1.0 / (rules.shape[0] * rules.shape[1]))
             for name, rules in bases.items()}
    big_rules, big_dist = failing_game()
    games = {name: ng.FiniteGame(rules, dists[name], name=name) for name, rules in bases.items()}
    cases = [("chsh", 1), ("rand", 1), ("chained3", 1), ("ternary", 1), ("fixed 6^4", None)]
    big = ng.FiniteGame(big_rules, big_dist)

    def op(name, n):
        if n is None:
            return lambda: ng.value(big, "ns")
        return lambda: ng.value(ng.iterate(ng.memory_game(games[name]), n), "ns")

    def check(reports):
        for (name, n), report in zip(cases, reports):
            if isinstance(report, Exception):
                continue
            expect(report.kind == "ns" and report.exact, f"report kind {report.kind!r}")
            if n is None:
                rules, dist = big_rules, big_dist
            else:
                rules = checks.memory_predicate(bases[name], n)
                dist = checks.product_dist(dists[name], n + 1)
            checks.check_ns(rules, dist, report.value, np.asarray(report.certificate.p),
                            checks.ns_value_lp(rules, dist))
            if name != "rand" and n is not None:
                expect(abs(report.value - 1.0) <= checks.VALUE_TOL,
                       f"ns(memory({name})^{n}) = {report.value!r}, not 1")
                base = checks.perfect_box(bases[name])
                box = base
                for _ in range(n):
                    box = checks.product_correlation(box, base)
                won = checks.payoff(rules, dist, box)
                expect(abs(won - 1.0) <= 1e-12, f"perfect boxes win memory({name})^{n} with {won!r}")

    return Plan([(f"ns {name}" + (f"^{n}" if n else ""), op(name, n)) for name, n in cases],
                lambda: ng.value(games["chsh"], "ns"), check)


# ---------------------------------------------------------------------------
# local-check: is_local on the direct path and by column generation
# ---------------------------------------------------------------------------

# Direct path: seeded local mixtures (label, shape, parts) under the entry
# budget, 20,736 vertex columns each.
DIRECT_CASES = (("direct 4x4x3x4 a", (4, 4, 3, 4), 3),
                ("direct 4x4x3x4 b", (4, 4, 3, 4), 3),
                ("direct 4x4x4x3", (4, 4, 4, 3), 3))
# Column generation: the number of master LPs swings by a factor of three
# between random instances, so these inputs are fixed instances (from
# BASE_SEED) whose questions and answers the seed relabels.
GENERATED_CASES = (("generated 4x13x2x2", (4, 13, 2, 2)), ("generated 2x16x2x2", (2, 16, 2, 2)))
# Non-local input: a PR box at visibility 0.75 times a local factor of this
# shape; the product (2x10x2x4, 4 x 4^10 vertices) needs column generation.
FACTOR_SHAPE = (1, 5, 1, 2)
PR_VISIBILITY = 0.75
BASE_SEED = 20240917


def relabel(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Permute questions, and answers separately for each question."""
    nX, nY, nA, nB = p.shape
    p = p[rng.permutation(nX)][:, rng.permutation(nY)]
    pa = np.array([rng.permutation(nA) for _ in range(nX)])
    pb = np.array([rng.permutation(nB) for _ in range(nY)])
    return p[np.arange(nX)[:, None, None, None], np.arange(nY)[None, :, None, None],
             pa[:, None, :, None], pb[None, :, None, :]]


def local_check(seed: int, workdir: str) -> Plan:
    rng, base = _rng(seed, 3), np.random.default_rng(BASE_SEED)
    mixtures = [local_mixture(rng, shape, parts) for _, shape, parts in DIRECT_CASES]
    mixtures += [relabel(local_mixture(base, shape, 3), rng) for _, shape in GENERATED_CASES]
    # Only the factor is relabeled, so the PR box stays the first factor and
    # its CHSH section can be read off at any (x2, y2).
    factor = relabel(local_mixture(base, FACTOR_SHAPE, 2), rng)
    nonlocal_p = checks.product_correlation(noisy_pr(PR_VISIBILITY), factor)
    x2, y2 = int(rng.integers(FACTOR_SHAPE[0])), int(rng.integers(FACTOR_SHAPE[1]))
    inputs = [ng.Correlation(p) for p in mixtures + [nonlocal_p]]
    labels = [case[0] for case in DIRECT_CASES + GENERATED_CASES] + ["non-local PR x local"]
    tiny = ng.Correlation(local_mixture(rng, (2, 2, 2, 2), 2))

    def op(corr):
        return lambda: ng.is_local(corr, tol=LOCAL_TOL)

    def check(answers):
        for p, answer in zip(mixtures, answers):
            if not isinstance(answer, Exception):
                checks.check_local_pass(p, answer[0], answer[1].gap, answer[1].weights, LOCAL_TOL)
        if not isinstance(answers[-1], Exception):
            verdict, report = answers[-1]
            checks.check_local_fail(verdict, report.gap, LOCAL_TOL,
                                    checks.section(nonlocal_p, (2, 2, 2, 2), x2, y2))

    return Plan([(f"is_local {label}", op(c)) for label, c in zip(labels, inputs)],
                lambda: ng.is_local(tiny, tol=LOCAL_TOL), check)


# ---------------------------------------------------------------------------
# small-games: many small calls through the command-line front end
# ---------------------------------------------------------------------------

# Random games: (shape, win probability), GAME_COPIES draws of each.  Low
# win probabilities keep loc < ns, so the qs lower bound has room between
# them.  Pivot and sweep counts differ by up to 2x between draws, so several
# draws per shape keep the seed from setting the round time.
SMALL_GAMES = (((2, 2, 2, 2), 0.35), ((3, 3, 2, 2), 0.3), ((2, 2, 3, 3), 0.25),
               ((3, 3, 3, 3), 0.2))
GAME_COPIES = 3
SEESAW = ["--seeds", "6", "--sweeps", "40"]


# The input files are written here, not by nsgames' dump functions, so the
# program's parsers read files that the program did not write.
def write_game(path: str, rules: np.ndarray, dist: np.ndarray) -> None:
    lines = ["game " + " ".join(str(n) for n in rules.shape),
             "dist " + " ".join(repr(float(v)) for v in dist.reshape(-1))]
    lines += ["win " + " ".join(str(int(i)) for i in q) for q in np.argwhere(rules)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_corr(path: str, p: np.ndarray) -> None:
    lines = ["corr " + " ".join(str(n) for n in p.shape)]
    lines += [" ".join(repr(float(v)) for v in p[x, y].reshape(-1))
              for x in range(p.shape[0]) for y in range(p.shape[1])]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_povm(path: str, effects: np.ndarray) -> None:
    k, d, _ = effects.shape
    lines = [f"povm dim={d} outcomes={k}"]
    lines += [" ".join(f"{float(v.real).hex()},{float(v.imag).hex()}" for v in effects[a, i])
              for a in range(k) for i in range(d)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def trine(angle: float) -> np.ndarray:
    kets = [np.array([math.cos(t / 2), math.sin(t / 2)])
            for t in (angle, angle + 2 * math.pi / 3, angle + 4 * math.pi / 3)]
    return np.stack([(2.0 / 3.0) * np.outer(k, k) for k in kets]).astype(complex)


def commuting_pair(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Two POVMs diagonal in one random basis, so every pair of effects commutes."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(z)

    def povm(outcomes):
        weights = rng.dirichlet(np.ones(outcomes), size=dim).T  # (outcomes, dim)
        effects = np.stack([u @ np.diag(w) @ u.conj().T for w in weights])
        return (effects + effects.conj().transpose(0, 2, 1)) / 2

    return povm(2), povm(3)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def small_games(seed: int, workdir: str) -> Plan:
    rng = _rng(seed, 4)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    games = {"chsh": (checks.chsh_rules(), UNIFORM2)}
    for i, (shape, prob) in enumerate(SMALL_GAMES * GAME_COPIES):
        dist = rng.random(shape[:2]) + 0.1
        games[f"g{i}"] = (rng.random(shape) < prob, dist / dist.sum())
    for name, (rules, dist) in games.items():
        write_game(path(f"{name}.game"), rules, dist)
    corrs = {"mix": local_mixture(rng, (3, 3, 2, 2), 3),
             "mix3": local_mixture(rng, (2, 2, 3, 3), 2),
             "pr": noisy_pr(float(rng.uniform(0.6, 0.9)))}
    signalling = local_mixture(rng, (2, 2, 2, 2), 2)
    signalling[0, :] = 0.0
    signalling[0, 0, 1, 0] = signalling[0, 1, 0, 0] = 1.0  # Alice's a at x=0 copies y
    corrs["signal"] = signalling
    for name, p in corrs.items():
        write_corr(path(f"{name}.corr"), p)
    pair = commuting_pair(rng, 3)
    write_povm(path("trine.povm"), trine(float(rng.uniform(0, 2 * math.pi))))
    write_povm(path("e.povm"), pair[0])
    write_povm(path("f.povm"), pair[1])

    common = ["--format", "machine", "--threads", THREADS]
    calls: list[tuple[tuple, list[str]]] = []
    for name in games:
        for kind in ("loc", "ns"):
            calls.append((("value", name, kind), ["value", path(f"{name}.game"), "--type", kind]))
        for d in ("2", "3"):
            calls.append((("value", name, "qs"),
                          ["value", path(f"{name}.game"), "--type", "qs", "--d", d] + SEESAW))
    binary = [name for name, (rules, _) in games.items() if rules.shape == (2, 2, 2, 2)]
    for name in binary:
        for mode, n_max in (("iid", "2"), ("memory", "1")):
            for kind in ("loc", "ns"):
                calls.append((("sequence", name, mode, kind),
                              ["sequence", path(f"{name}.game"), "--mode", mode, "--type", kind,
                               "--n-max", n_max]))
    for name in ("mix", "pr", "signal"):
        calls.append((("check", name, "ns"), ["check", path(f"{name}.corr"), "--test", "ns",
                                              "--tol", repr(LOCAL_TOL)]))
    for name in ("mix", "mix3", "pr"):
        calls.append((("check", name, "local"), ["check", path(f"{name}.corr"), "--test", "local",
                                                 "--tol", repr(LOCAL_TOL)]))
    calls.append((("dilate", "trine"), ["dilate", path("trine.povm")]))
    calls.append((("dilate", "joint"), ["dilate", path("e.povm"), "--joint", path("f.povm")]))

    def op(argv):
        def call():
            code, text = run_cli(argv + common)
            if code != 0:
                raise RuntimeError(f"exit {code}: {text.strip()}")
            return text

        return call

    def check(answers):
        values: dict[tuple, list[float]] = {}
        for (key, _), text in zip(calls, answers):
            if isinstance(text, Exception):
                continue
            if key[0] == "value":
                values.setdefault(key[1:], []).append(float(text.split()[2]))
            elif key[0] == "sequence":
                _check_sequence(games[key[1]], key[2], key[3], text)
            elif key[0] == "check":
                _check_corr(corrs[key[1]], key[2], text)
            else:
                checks.check_dilation(text, joint=key[1] == "joint",
                                      expected_pvms=2 if key[1] == "joint" else 1)
        for name, (rules, dist) in games.items():
            if not {(name, "loc"), (name, "ns")} <= values.keys():
                continue
            (loc,), (ns,), qs = values[name, "loc"], values[name, "ns"], values.get((name, "qs"), [])
            brute = checks.brute_force_loc(rules, dist)
            expect(abs(loc - brute) <= checks.VALUE_TOL, f"{name}: loc {loc!r}, brute force {brute!r}")
            checks.check_ns(rules, dist, ns, None, checks.ns_value_lp(rules, dist))
            for bound in qs:
                checks.check_order(loc, bound, ns)
                if name == "chsh":
                    checks.check_tsirelson(bound)

    return Plan([(" ".join(key), op(argv)) for key, argv in calls],
                lambda: run_cli(["value", path("chsh.game"), "--type", "loc"] + common), check)


def _check_sequence(game, mode: str, kind: str, text: str) -> None:
    rules, dist = game
    lines = text.split("\n")
    expect("truncated 1" not in lines, f"sequence {mode} {kind} truncated")
    rows = [[float(t) for t in line.split()[1:]] for line in lines if line.startswith("entry ")]
    exact = {}
    for row in rows:
        n = int(row[0])
        pred = (checks.product_predicate(rules, n) if mode == "iid"
                else checks.memory_predicate(rules, n))
        width = n if mode == "iid" else n + 1
        pdist = checks.product_dist(dist, width)
        exact[n] = (checks.brute_force_loc(pred, pdist) if kind == "loc"
                    else checks.ns_value_lp(pred, pdist))
    checks.check_sequence(rows, running=mode != "iid", exact_raw=exact)


def _check_corr(p: np.ndarray, test: str, text: str) -> None:
    head = text.split("\n")[0].split()
    verdict, number = head[2] == "pass", float(head[3])
    if test == "ns":
        defect = checks.ns_defect(p)
        expect(verdict == (defect <= LOCAL_TOL), f"ns verdict {head[2]} with defect {defect!r}")
        expect(abs(number - defect) <= 1e-12, f"printed defect {number!r}, own {defect!r}")
        return
    if verdict:
        weights = []
        for line in text.split("\n")[1:]:
            if line.startswith("weight "):
                fields = dict(tok.split("=") for tok in line.split()[1:])
                weights.append((tuple(int(v) for v in fields["f"].split(",")),
                                tuple(int(v) for v in fields["g"].split(",")), float(fields["w"])))
        checks.check_local_pass(p, verdict, number, weights, LOCAL_TOL)
    else:
        checks.check_local_fail(verdict, number, LOCAL_TOL, p)


WORKLOADS = {"loc-memory": loc_memory, "ns-memory": ns_memory,
             "local-check": local_check, "small-games": small_games}
