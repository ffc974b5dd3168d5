"""Benchmark of nsgames: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload loc-memory --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run spawns fresh interpreters one after another: SETUP_SAMPLES - 1 that
stop after set-up, half of them before and half after the one that also
measures, so that the set-up samples span the same stretch of time as the
rounds.  The measuring process repeats whole rounds of
the workload's operations while another round still fits in ``--seconds``
(always at least one), then checks every round's answers independently.

With ``--trace 0`` the metrics are wall_s (median round time), setup_s
(median set-up time over all processes) and peak_rss_mb (peak resident
memory of the measuring process after its first round).  With
``--trace 1`` layer spans are recorded during the rounds and the metrics are
the per-layer ones; the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
# Numeric libraries run single-threaded so that timings do not depend on
# what else shares the machine; set before numpy loads in each child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("loc-memory", "ns-memory", "local-check", "small-games"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


# ---------------------------------------------------------------------------
# Child process: set up, optionally measure and check
# ---------------------------------------------------------------------------


def measure(plan, seconds: float):
    """Whole rounds while another round of the last one's length still fits.

    Returns the round times, each round's answers, the failure count and the
    peak resident memory in MiB after the first round, so that the peak
    does not depend on how many rounds fit.
    """
    times, answers, failed, peak_mb = [], [], 0, None
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        outs = []
        for label, op in plan.ops:
            try:
                outs.append(op())
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                failed += 1
                outs.append(exc)
                print(f"operation failed: {label}: {exc!r}", file=sys.stderr)
        took = time.perf_counter() - begin
        times.append(took)
        answers.append(outs)
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + took > seconds:
            return times, answers, failed, peak_mb


def child(args) -> int:
    import shutil
    import tempfile

    import scipy.optimize  # noqa: F401 - part of set-up, as for any user
    import nsgames  # noqa: F401

    import workloads

    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"in-{args.workload}-", dir=RESULTS)
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.trace and args.role == "measure":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        plan.warmup()
        setup_s = time.monotonic() - args.t0
        if args.role == "setup":
            emit({"setup_s": setup_s})
            return 0
        if tracer is not None:
            tracer.enabled = True
        times, answers, failed, peak_mb = measure(plan, args.seconds)
        if tracer is not None:
            tracer.enabled = False
        problems, checked = [], set()
        for outs in answers:
            key = pickle.dumps(outs)  # a round that repeats a checked answer needs no check
            if key in checked:
                continue
            checked.add(key)
            try:
                plan.check(outs)
            except Exception as exc:  # noqa: BLE001 - unreadable output is a wrong answer too
                problems.append(f"{type(exc).__name__}: {exc}")
        for text in sorted(set(problems)):
            print(f"check failed: {text}", file=sys.stderr)
        out = {"setup_s": setup_s, "wall_s": statistics.median(times), "round_s": times,
               "peak_rss_mb": peak_mb, "attempted": len(times) * len(plan.ops),
               "failed": failed, "correct": not problems}
        if tracer is not None:
            from spans import layer_metrics

            out["layers"] = layer_metrics(tracer.spans, len(times), tracer.missing)
            out["absent"] = sorted(tracer.missing)
            spans_path = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json")
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump({"workload": args.workload, "seed": args.seed, "rounds": len(times),
                           "round_s": times, "wall_s": out["wall_s"],
                           "ops": [label for label, _ in plan.ops],
                           "spans": [s.as_list() for s in tracer.spans]}, handle)
        emit(out)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Parent process
# ---------------------------------------------------------------------------


def spawn(args, role: str, deadline: float) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--role", role]
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role:
        return child(args)
    if not os.path.isfile(os.path.join(SRC, "nsgames", "__init__.py")):
        print(f"error: no nsgames package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        before = (SETUP_SAMPLES - 1) // 2
        setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(before)]
        run = spawn(args, "measure", deadline)
        setups += [spawn(args, "setup", deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES - 1 - before)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    if args.trace:
        from spans import LAYERS

        metrics = {name: {"value": value, "unit": LAYERS[name][0]}
                   for name, value in run["layers"].items()}
        if run["absent"]:
            print(f"absent layers: {', '.join(run['absent'])}", file=sys.stderr)
    else:
        metrics = {"wall_s": {"value": run["wall_s"], "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"}}
    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(dict(result, setups_s=setups, round_s=run["round_s"]), handle)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
