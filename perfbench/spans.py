"""Layer spans for nsgames, recorded from outside the package.

:class:`Tracer` replaces chosen public functions with wrappers that record a
span (name, start, end, parent, counts) per call.  A function is replaced in
every ``nsgames`` module that holds it, so ``from .x import f`` bindings are
traced too.  Spans live in memory until :func:`layer_metrics` turns them into
the per-layer metrics; self time is a span's duration minus the union of its
children's intervals.  A wrapped function that no longer exists makes the
metrics that depend on it absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time


def _nbytes(matrix) -> int:
    if matrix is None:
        return 0
    if hasattr(matrix, "data") and hasattr(matrix, "indices"):  # scipy sparse
        return sum(int(getattr(matrix, k).nbytes) for k in ("data", "indices", "indptr")
                   if hasattr(matrix, k))
    return int(getattr(matrix, "nbytes", 0))


def _scan_counts(args, kwargs, result):
    tensor = args[0]
    return {"maps": int(tensor.shape[1]) ** int(tensor.shape[0])}


def _lp_counts(args, kwargs, result):
    a_eq = result.a_eq
    nnz = int(a_eq.count_nonzero() if hasattr(a_eq, "count_nonzero") else (a_eq != 0).sum())
    return {"rows": int(a_eq.shape[0]), "cols": int(a_eq.shape[1]), "nnz": nnz,
            "bytes": _nbytes(a_eq)}


def _simplex_counts(args, kwargs, result):
    return {"pivots": int(result.iterations)}


def _seesaw_counts(args, kwargs, result):
    return {"sweeps": sum(len(h) - 1 for h in result.all_histories)}


def _linprog_counts(args, kwargs, result):
    cost = args[0] if args else kwargs["c"]
    return {"cols": len(cost), "bytes": _nbytes(kwargs.get("A_ub")) + _nbytes(kwargs.get("A_eq"))}


# (module, function, span name, counts).  Span names double as layer keys.
TARGETS = (
    ("nsgames.games", "iterate", "games.iterate", None),
    ("nsgames.games", "payoff", "games.payoff", None),
    ("nsgames.games", "load_game", "games.load_game", None),
    ("nsgames.strategies", "argmax_strategy", "strategies.scan", _scan_counts),
    ("nsgames.strategies", "top_strategies", "strategies.scan", _scan_counts),
    ("nsgames.optimize", "ns_value_lp", "optimize.ns_value_lp", _lp_counts),
    ("nsgames.optimize", "qs_seesaw", "optimize.qs_seesaw", _seesaw_counts),
    ("nsgames.optimize", "top_deterministic_strategies", "optimize.seed", None),
    ("nsgames.simplex", "simplex_solve", "simplex.solve", _simplex_counts),
    ("nsgames.correlations", "is_local", "correlations.is_local", None),
    ("nsgames.correlations", "is_no_signalling", "correlations.is_no_signalling", None),
    ("scipy.optimize", "linprog", "scipy.linprog", _linprog_counts),
    ("nsgames.dilation", "naimark", "dilation.naimark", None),
    ("nsgames.dilation", "simultaneous_naimark", "dilation.naimark", None),
    ("nsgames.dilation", "joint_commuting_dilation", "dilation.joint", None),
    ("nsgames.cli", "main", "cli.main", None),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, span_id, parent, name, start):
        self.id, self.parent, self.name, self.start = span_id, parent, name, start
        self.end = start
        self.counts = {}

    def as_list(self):
        return [self.id, self.parent, self.name, self.start, self.end, self.counts]


class Tracer:
    """Wraps the TARGETS and records spans while ``enabled`` is true."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # A worker thread (the CLI's sequence pool) hangs off the span
            # that the main thread has open.
            outer = stack or tracer._main_stack
            span = Span(next(tracer._ids), outer[-1].id if outer else None, name,
                        time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counts in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            wrapper = self._wrap(original, name, counts)
            holders = [module] + [m for key, m in list(sys.modules.items())
                                  if m is not None and (key == "nsgames" or key.startswith("nsgames."))]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


def _union(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


# Metric -> (unit, span names it needs).  A metric is absent when any of
# its spans could not be wrapped.
LAYERS = {
    "games.iterate_s": ("s", ("games.iterate",)),
    "games.check_s": ("s", ("games.payoff",)),
    "games.load_s": ("s", ("games.load_game",)),
    "strategies.scan_s": ("s", ("strategies.scan",)),
    "strategies.maps": ("count", ("strategies.scan",)),
    "strategies.maps_per_s": ("1/s", ("strategies.scan",)),
    "strategies.scans": ("count", ("strategies.scan",)),
    "optimize.ns_lp_build_s": ("s", ("optimize.ns_value_lp",)),
    "optimize.ns_lp_rows": ("count", ("optimize.ns_value_lp",)),
    "optimize.ns_lp_cols": ("count", ("optimize.ns_value_lp",)),
    "optimize.ns_lp_nnz": ("count", ("optimize.ns_value_lp",)),
    "optimize.ns_lp_mb": ("MB", ("optimize.ns_value_lp",)),
    "simplex.solve_s": ("s", ("simplex.solve",)),
    "simplex.pivots": ("count", ("simplex.solve",)),
    "simplex.solves": ("count", ("simplex.solve",)),
    "optimize.seesaw_s": ("s", ("optimize.qs_seesaw",)),
    "optimize.seesaw_sweeps": ("count", ("optimize.qs_seesaw",)),
    "optimize.sweep_ms": ("ms", ("optimize.qs_seesaw",)),
    "optimize.seed_s": ("s", ("optimize.qs_seesaw", "optimize.seed")),
    "correlations.is_local_s": ("s", ("correlations.is_local",)),
    "correlations.lp_s": ("s", ("correlations.is_local", "scipy.linprog")),
    "correlations.lp_solves": ("count", ("correlations.is_local", "scipy.linprog")),
    "correlations.lp_cols": ("count", ("correlations.is_local", "scipy.linprog")),
    "correlations.lp_matrix_mb": ("MB", ("correlations.is_local", "scipy.linprog")),
    "correlations.pricing_s": ("s", ("correlations.is_local", "strategies.scan")),
    "correlations.is_ns_s": ("s", ("correlations.is_no_signalling",)),
    "dilation.naimark_s": ("s", ("dilation.naimark",)),
    "dilation.joint_s": ("s", ("dilation.joint",)),
    "cli.self_s": ("s", ("cli.main",)),
    "cli.calls": ("count", ("cli.main",)),
}

MB = float(1 << 20)


def layer_metrics(spans: list[Span], rounds: int, missing: set[str]) -> dict[str, float]:
    """Per-layer metrics per round of operations (``lp_matrix_mb`` is the
    largest single solve instead)."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def ancestors(span: Span):
        parent = by_id.get(span.parent)
        while parent is not None:
            yield parent
            parent = by_id.get(parent.parent)

    def named(name, ancestor=None):
        return [s for s in spans if s.name == name
                and (ancestor is None or any(a.name == ancestor for a in ancestors(s)))]

    def seconds(items):
        return sum(s.end - s.start for s in items)

    def total(items, key):
        return sum(s.counts.get(key, 0) for s in items)

    scans, lps = named("strategies.scan"), named("optimize.ns_value_lp")
    solves, seesaws = named("simplex.solve"), named("optimize.qs_seesaw")
    local_lps, clis = named("scipy.linprog", "correlations.is_local"), named("cli.main")
    last_lp: dict[int, Span] = {}  # is_local span id -> its last master LP
    for lp in local_lps:
        call = next(a for a in ancestors(lp) if a.name == "correlations.is_local")
        if call.id not in last_lp or lp.end > last_lp[call.id].end:
            last_lp[call.id] = lp
    last_cols = sum(lp.counts.get("cols", 0) for lp in last_lp.values())
    cli_self = sum((c.end - c.start)
                   - _union((max(k.start, c.start), min(k.end, c.end)) for k in children.get(c.id, ()))
                   for c in clis)
    scan_s = seconds(scans)
    seesaw_s, sweeps = seconds(seesaws), total(seesaws, "sweeps")
    raw = {
        "games.iterate_s": seconds(named("games.iterate")),
        "games.check_s": seconds(named("games.payoff")),
        "games.load_s": seconds(named("games.load_game")),
        "strategies.scan_s": scan_s,
        "strategies.maps": total(scans, "maps"),
        "strategies.scans": len(scans),
        "optimize.ns_lp_build_s": seconds(lps),
        "optimize.ns_lp_rows": total(lps, "rows"),
        "optimize.ns_lp_cols": total(lps, "cols"),
        "optimize.ns_lp_nnz": total(lps, "nnz"),
        "optimize.ns_lp_mb": total(lps, "bytes") / MB,
        "simplex.solve_s": seconds(solves),
        "simplex.pivots": total(solves, "pivots"),
        "simplex.solves": len(solves),
        "optimize.seesaw_s": seesaw_s,
        "optimize.seesaw_sweeps": sweeps,
        "optimize.seed_s": seconds(named("optimize.seed", "optimize.qs_seesaw")),
        "correlations.is_local_s": seconds(named("correlations.is_local")),
        "correlations.lp_s": seconds(local_lps),
        "correlations.lp_solves": len(local_lps),
        "correlations.lp_cols": last_cols,
        "correlations.pricing_s": seconds(named("strategies.scan", "correlations.is_local")),
        "correlations.is_ns_s": seconds(named("correlations.is_no_signalling")),
        "dilation.naimark_s": seconds(named("dilation.naimark")),
        "dilation.joint_s": seconds(named("dilation.joint")),
        "cli.self_s": cli_self,
        "cli.calls": len(clis),
    }
    out = {key: float(value) / rounds for key, value in raw.items()}
    out["strategies.maps_per_s"] = float(raw["strategies.maps"]) / scan_s if scan_s > 0 else 0.0
    out["optimize.sweep_ms"] = 1000.0 * seesaw_s / sweeps if sweeps else 0.0
    out["correlations.lp_matrix_mb"] = max((s.counts.get("bytes", 0) for s in local_lps),
                                           default=0) / MB
    return {key: out[key] for key, (_, deps) in LAYERS.items()
            if not any(dep in missing for dep in deps)}

