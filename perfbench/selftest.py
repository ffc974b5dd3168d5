"""Tests of the benchmark's own checkers: each must accept the program's
answer and reject a deliberately wrong one.

    python3 -m pytest perfbench/selftest.py -q

``test_loc_memory_reference`` remakes the n = 2 reference of loc-memory by
enumerating Bob's maps with Alice's best reply (the transpose of the
program's method); with the program's own answers it takes about 20 s.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

import nsgames as ng  # noqa: E402


def _rejects(fn, *args, **kwargs):
    with pytest.raises(CheckError):
        fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Independent computations agree with the program on small cases
# ---------------------------------------------------------------------------


def test_predicates_match_program_iterates():
    rng = np.random.default_rng(5)
    rules = rng.random((2, 3, 2, 2)) < 0.5
    base = ng.FiniteGame(rules, np.full((2, 3), 1 / 6))
    for n in (1, 2):
        assert np.array_equal(checks.memory_predicate(rules, n),
                              ng.iterate(ng.memory_game(base), n).win)
        assert np.array_equal(checks.product_predicate(rules, n),
                              ng.iterate(ng.embed(base), n).win)


def test_bob_side_enumeration_matches_brute_force():
    rng = np.random.default_rng(6)
    for shape in ((2, 2, 2, 2), (3, 2, 2, 3), (2, 4, 3, 2)):
        rules = rng.random(shape) < 0.4
        dist = np.full(shape[:2], 1.0 / (shape[0] * shape[1]))
        wins = checks.bob_side_loc_wins(rules)
        assert wins / (shape[0] * shape[1]) == pytest.approx(checks.brute_force_loc(rules, dist),
                                                              abs=1e-12)


# ---------------------------------------------------------------------------
# Each checker rejects a wrong answer
# ---------------------------------------------------------------------------


def test_check_loc():
    rules = checks.memory_predicate(checks.chsh_rules(), 1)
    report = ng.value(ng.FiniteGame(rules, np.full((4, 4), 1 / 16)), "loc")
    f, g = report.certificate
    checks.check_loc(rules, report.value, f, g)
    _rejects(checks.check_loc, rules, report.value - 1 / 16, f, g)
    _rejects(checks.check_loc, rules, report.value + 1e-6, f, g)
    worse = next(tuple(a ^ (i == k) for i, a in enumerate(f)) for k in range(len(f))
                 if checks.pair_wins(rules, tuple(a ^ (i == k) for i, a in enumerate(f)), g)
                 != checks.pair_wins(rules, f, g))
    _rejects(checks.check_loc, rules, report.value, worse, g)


def test_check_ns():
    rng = np.random.default_rng(7)
    rules = rng.random((3, 3, 2, 2)) < 0.3
    dist = rng.random((3, 3)) + 0.1
    dist /= dist.sum()
    report = ng.value(ng.FiniteGame(rules, dist), "ns")
    p = np.asarray(report.certificate.p)
    lp = checks.ns_value_lp(rules, dist)
    checks.check_ns(rules, dist, report.value, p, lp)
    _rejects(checks.check_ns, rules, dist, report.value - 1e-4, p, lp)
    _rejects(checks.check_ns, rules, dist, report.value, p, lp + 1e-5)
    signalling = p.copy()
    signalling[0, 0] = 0.0
    signalling[0, 0, 0, 0] = 1.0
    _rejects(checks.check_correlation, signalling, rules.shape)
    _rejects(checks.check_correlation, p * 1.01, rules.shape)
    negative = p.copy()
    negative[0, 0, 0, 0] = -1e-6
    _rejects(checks.check_correlation, negative, rules.shape)


def test_check_order_and_tsirelson():
    checks.check_order(0.75, 0.85, 1.0)
    _rejects(checks.check_order, 0.75, 0.7, 1.0)
    _rejects(checks.check_order, 0.75, 1.01, 1.0)
    checks.check_tsirelson(checks.TSIRELSON)
    _rejects(checks.check_tsirelson, checks.TSIRELSON + 1e-9)
    _rejects(checks.check_tsirelson, 0.85)


def test_check_local():
    rng = np.random.default_rng(8)
    p = workloads.local_mixture(rng, (3, 3, 2, 2), 3)
    verdict, report = ng.is_local(ng.Correlation(p), tol=1e-8)
    checks.check_local_pass(p, verdict, report.gap, report.weights, 1e-8)
    weights = list(report.weights)
    missing = [(f, g, w / (1 - weights[0][2])) for f, g, w in weights[1:]]
    _rejects(checks.check_local_pass, p, verdict, report.gap, missing, 1e-8)
    _rejects(checks.check_local_pass, p, verdict, report.gap,
             weights[:-1] + [(weights[-1][0], weights[-1][1], -weights[-1][2])], 1e-8)
    _rejects(checks.check_local_pass, p, False, report.gap, weights, 1e-8)

    box = workloads.noisy_pr(0.8)
    verdict, report = ng.is_local(ng.Correlation(box), tol=1e-8)
    checks.check_local_fail(verdict, report.gap, 1e-8, box)
    _rejects(checks.check_local_fail, True, report.gap, 1e-8, box)
    _rejects(checks.check_local_fail, verdict, 1e-9, 1e-8, box)
    _rejects(checks.check_local_fail, verdict, report.gap, 1e-8, workloads.noisy_pr(0.4))


def test_check_sequence():
    rows = [[1, 0.75, 0.75, 0.75], [2, 0.5, 0.5 ** 0.5, 0.75]]
    checks.check_sequence(rows, running=True, exact_raw={1: 0.75, 2: 0.5})
    _rejects(checks.check_sequence, [rows[0], [2, 0.8, 0.8 ** 0.5, 0.8 ** 0.5]], running=True)
    _rejects(checks.check_sequence, [rows[0], [2, 0.5, 0.8, 0.8]], running=True)
    _rejects(checks.check_sequence, [rows[0], [2, 0.5, 0.5 ** 0.5, 0.5 ** 0.5]], running=True)
    _rejects(checks.check_sequence, rows, running=True, exact_raw={1: 0.75, 2: 0.4})


def test_check_pvm_and_dilation(tmp_path):
    trine = workloads.trine(0.3)
    _rejects(checks.check_pvm, trine)
    basis = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    checks.check_pvm(basis)
    _rejects(checks.check_pvm, np.stack([basis[0], basis[0]]))
    plus = np.full((2, 2), 0.5, dtype=complex)
    _rejects(checks.check_commute, basis, np.stack([plus, np.eye(2) - plus]))

    path = str(tmp_path / "trine.povm")
    workloads.write_povm(path, trine)
    code, text = workloads.run_cli(["dilate", path, "--format", "machine", "--threads", "1"])
    assert code == 0
    checks.check_dilation(text, joint=False, expected_pvms=1)
    _rejects(checks.check_dilation, text.replace("residual isometry ", "residual isometry 1e-6 "),
             joint=False, expected_pvms=1)
    _rejects(checks.check_dilation, text, joint=False, expected_pvms=2)


# ---------------------------------------------------------------------------
# Each workload's check rejects a wrong answer among real ones
# ---------------------------------------------------------------------------


def _answers(plan, skip=()):
    """One round's answers; a failed operation's answer is its exception."""
    out = []
    for label, op in plan.ops:
        try:
            out.append(None if label in skip else op())
        except Exception as exc:  # noqa: BLE001 - as run.measure records it
            out.append(exc)
    return out


def test_small_games_check(tmp_path):
    plan = workloads.small_games(1, str(tmp_path))
    answers = _answers(plan)
    plan.check(answers)
    labels = [label for label, _ in plan.ops]

    def tampered(label, old, new):
        i = labels.index(label)
        assert old in answers[i]
        return answers[:i] + [answers[i].replace(old, new, 1)] + answers[i + 1:]

    _rejects(plan.check, tampered("value chsh loc", "0.75", "0.76"))
    _rejects(plan.check, tampered("check signal ns", "fail", "pass"))
    _rejects(plan.check, tampered("dilate joint", "residual projectivity ",
                                  "residual projectivity 1e-3 "))
    row = next(line for line in answers[labels.index("sequence chsh iid loc")].split("\n")
               if line.startswith("entry 2 "))
    _rejects(plan.check, tampered("sequence chsh iid loc", row, "entry 2 0.7 " + row.split()[3]))
    weight = next(line for line in answers[labels.index("check mix local")].split("\n")
                  if line.startswith("weight "))
    _rejects(plan.check, tampered("check mix local", weight + "\n", ""))
    # A failed call is skipped, not judged.
    i = labels.index("value g1 ns")
    plan.check(answers[:i] + [RuntimeError("exit 1")] + answers[i + 1:])


def test_local_check_check(tmp_path):
    plan = workloads.local_check(1, str(tmp_path))
    answers = _answers(plan)
    plan.check(answers)
    verdict, report = answers[1]
    dropped = dataclasses.replace(report, weights=report.weights[1:])
    _rejects(plan.check, answers[:1] + [(verdict, dropped)] + answers[2:])
    verdict, report = answers[-1]
    _rejects(plan.check, answers[:-1] + [(True, report)])


def test_ns_memory_check(tmp_path):
    """The program's ns-memory answers pass; a perturbed value, at the fixed
    degenerate iterate and at the first one, is rejected."""
    plan = workloads.ns_memory(1, str(tmp_path))
    answers = _answers(plan)
    plan.check(answers)
    labels = [label for label, _ in plan.ops]
    i = labels.index("ns chained3^1")
    wrong = dataclasses.replace(answers[i], value=0.99)
    _rejects(plan.check, answers[:i] + [wrong] + answers[i + 1:])
    wrong = dataclasses.replace(answers[0], value=answers[0].value - 1e-4)
    _rejects(plan.check, [wrong] + answers[1:])


def test_ns_memory_chsh2_reference():
    """memory(chsh)^2, left out of the timed runs: the benchmark's own LP
    gives ns value 1, which the PR box on every coordinate attains."""
    rules = checks.memory_predicate(checks.chsh_rules(), 2)
    dist = checks.product_dist(workloads.UNIFORM2, 3)
    box = checks.product_correlation(checks.product_correlation(checks.pr_box(), checks.pr_box()),
                                     checks.pr_box())
    lp_value = checks.ns_value_lp(rules, dist)
    checks.check_ns(rules, dist, 1.0, box, lp_value)
    _rejects(checks.check_ns, rules, dist, 0.99, None, lp_value)


def test_loc_memory_reference(tmp_path):
    """The program's loc-memory answers pass, the n = 2 value equals the
    Bob-side enumeration, and a perturbed value is rejected."""
    plan = workloads.loc_memory(1, str(tmp_path))
    answers = _answers(plan)
    plan.check(answers)
    labels = [label for label, _ in plan.ops]
    rules = checks.memory_predicate(checks.chsh_rules(), 2)
    wins = checks.bob_side_loc_wins(rules)
    reported = answers[labels.index("loc memory(chsh)^2")].value
    assert reported == pytest.approx(wins / (rules.shape[0] * rules.shape[1]), abs=1e-12)
    i = labels.index("loc memory(chsh)^2")
    wrong = dataclasses.replace(answers[i], value=reported + 1 / 64)
    _rejects(plan.check, answers[:i] + [wrong] + answers[i + 1:])


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def test_tracer_spans_and_layer_metrics(tmp_path):
    import spans

    path = str(tmp_path / "g.game")
    workloads.write_game(path, checks.chsh_rules(), workloads.UNIFORM2)
    original = ng.games.payoff
    tracer = spans.Tracer()
    tracer.install()
    assert ng.games.payoff is not original and ng.payoff is ng.games.payoff
    try:
        tracer.enabled = True
        for kind in ("loc", "ns"):
            assert workloads.run_cli(["value", path, "--type", kind, "--format", "machine",
                                      "--threads", "1"])[0] == 0
        tracer.enabled = False
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, 2, tracer.missing)
    assert set(metrics) == set(spans.LAYERS)
    assert metrics["cli.calls"] == 1.0 and metrics["simplex.solves"] == 0.5
    assert metrics["strategies.maps"] == 2.0 and metrics["games.load_s"] > 0
    assert 0 < metrics["cli.self_s"] < sum(s.end - s.start for s in tracer.spans
                                           if s.name == "cli.main") / 2
    parents = {s.id: s.name for s in tracer.spans}
    assert all(parents[s.parent] == "cli.main" for s in tracer.spans
               if s.name in ("games.load_game", "simplex.solve"))
    assert ng.games.payoff is original and ng.payoff is original


def test_missing_function_makes_its_metrics_absent(monkeypatch):
    import spans

    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("nsgames.simplex", "no_such_solver", "simplex.solve", None),))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = spans.layer_metrics([], 1, tracer.missing)
    assert "simplex.pivots" not in metrics and "games.iterate_s" in metrics
