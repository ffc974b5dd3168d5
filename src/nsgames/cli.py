"""Command-line front end.

Subcommands: ``value`` (game values), ``sequence`` (asymptotic / inner value
sequences), ``dilate`` (Naimark and joint commuting dilations), ``check``
(no-signalling and locality tests on correlation dumps).

Exit codes: 0 success, 2 parse error (an unreadable file, or file content
that breaks an invariant), 3 over a size budget, 4 precondition violation,
1 internal error.  Machine-format output is line oriented and stable across
runs for fixed flags and rng seed; floats are printed with Python's shortest
round-trip representation (at most 17 significant digits).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import dilation as dilation_mod
from . import games as games_mod
from .channels import dump_povm, load_channel, load_povm
from .correlations import is_local, is_no_signalling, load_correlation
from .errors import SYMMETRIZE_TOL, ParseError, PreconditionError, TooLargeError
from .linalg import projection_defects

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_TOO_LARGE = 3
EXIT_PRECONDITION = 4
_EXIT_CODES = {ParseError: EXIT_PARSE, TooLargeError: EXIT_TOO_LARGE,
               PreconditionError: EXIT_PRECONDITION}


def _fmt(value: float) -> str:
    return repr(float(value))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _load_finite_game(path: str) -> games_mod.FiniteGame:
    game = games_mod.load_game(_read(path))
    if isinstance(game, games_mod.CylinderGame):
        raise ParseError(f"{path}: expected a finite game, found 'window' header")
    return game


def _seesaw_options(args) -> dict:
    """The see-saw keywords of ``games.value``, which the exact kinds ignore."""
    return dict(dim=args.d, seeds=args.seeds, max_sweeps=args.sweeps, rng_seed=args.rng_seed)


def cmd_value(args) -> int:
    game = _load_finite_game(args.game)
    report = games_mod.value(game, args.type, **_seesaw_options(args))
    if args.format == "machine":
        print(f"value {report.kind} {_fmt(report.value)}")
        return EXIT_OK
    nX, nY, nA, nB = game.shape
    print(f"game: {args.game} ({nX}x{nY}x{nA}x{nB})")
    if report.kind == "qs-lb":
        print(f"type: qs (lower bound, dimension {args.d}, "
              f"{args.seeds} seeds, {args.sweeps} sweeps)")
        if nA > 2 or nB > 2:
            print("note: measurement updates beyond two outcomes use a "
                  "greedy ascent heuristic")
    else:
        print(f"type: {report.kind} (exact)")
    print(f"value: {report.value:.6f}")
    if report.kind == "loc":
        f, g = report.certificate
        print(f"certificate: deterministic strategies f={f} g={g}")
    elif report.kind == "ns":
        print("certificate: optimal no-signalling correlation")
    else:
        print(f"certificate: see-saw strategy on C^{args.d} x C^{args.d}")
    return EXIT_OK


def cmd_sequence(args) -> int:
    if args.mode == "inner":
        loaded = games_mod.load_game(_read(args.game))
        cylinder = (loaded if isinstance(loaded, games_mod.CylinderGame)
                    else games_mod.embed(loaded))
    else:
        game = _load_finite_game(args.game)
        cylinder = (games_mod.embed if args.mode == "iid" else games_mod.memory_game)(game)
    with_running = args.mode != "iid"

    entries, truncated = games_mod.inner_value_sequence(cylinder, args.type, args.n_max,
                                                        **_seesaw_options(args))
    if args.format == "machine":
        for e in entries:
            running = f" {_fmt(e.running_max)}" if with_running else ""
            print(f"entry {e.n} {_fmt(e.value)} {_fmt(e.normalized)}{running}")
        if truncated:
            print("truncated 1")
        return EXIT_OK
    tag = "qs lower bound" if args.type == "qs" else args.type
    header = f"{'n':>3}  {'value':>12}  {'value^(1/n)':>12}"
    if with_running:
        header += f"  {'running max':>12}"
    print(f"sequence mode={args.mode} type={tag}")
    if args.type == "qs":
        print("note: entries are see-saw lower bounds; measurement "
              "updates beyond two outcomes use a greedy ascent heuristic")
    print(header)
    for e in entries:
        row = f"{e.n:>3}  {e.value:>12.6f}  {e.normalized:>12.6f}"
        if with_running:
            row += f"  {e.running_max:>12.6f}"
        print(row)
    if truncated:
        print("(truncated: size budget reached)")
    return EXIT_OK


def cmd_dilate(args) -> int:
    if args.joint is not None:
        povm_e = load_povm(_read(args.povm))
        result = dilation_mod.joint_commuting_dilation(povm_e, load_povm(_read(args.joint)))
        label, title, pvms = "joint", "joint commuting", [result.pvm_p, result.pvm_q]
        extra = [("cross-commutation", result.cross_residual)]
    else:
        channel = load_channel(_read(args.povm))
        if channel.inputs == 1:
            result = dilation_mod.naimark(channel.povms[0])
            label, pvms = "naimark", [result.dilated]
        else:
            result = dilation_mod.simultaneous_naimark(channel.padded())
            label, pvms = "simultaneous", list(result.dilated)
        title, extra = label, []
    defects = [projection_defects(pvm.effects) for pvm in pvms]
    rows = [("isometry", result.isometry_residual),
            ("projectivity", max(float(proj.max()) for proj, _ in defects)),
            ("orthogonality", max(float(cross.max()) for _, cross in defects)),
            ("reconstruction", result.residual)] + extra
    dilation_dim, dim = result.isometry.shape
    if args.format == "machine":
        print(f"dilation {label} K={dilation_dim} dim={dim}")
        for name, value in rows:
            print(f"residual {name} {_fmt(value)}")
        for pvm in pvms:
            print(dump_povm(pvm).rstrip("\n"))
    else:
        print(f"{title} dilation: K = C^{dilation_dim}")
        width = max(len(name) for name, _ in rows) + len(" residual:")
        for name, value in rows:
            print(f"  {name + ' residual:':<{width}} {value:.3e}")
    return EXIT_OK


def cmd_check(args) -> int:
    corr = load_correlation(_read(args.corr))
    if args.test == "ns":
        ok, cert = is_no_signalling(corr, tol=args.tol)
        verdict = "pass" if ok else "fail"
        if args.format == "machine":
            print(f"check ns {verdict} {_fmt(cert.worst)}")
        else:
            print(f"no-signalling: {verdict}")
            print(f"  worst Alice defect: {cert.max_alice:.3e}"
                  + (f" at (x,a,y,y')={cert.witness_alice}" if cert.witness_alice else ""))
            print(f"  worst Bob defect:   {cert.max_bob:.3e}"
                  + (f" at (y,b,x,x')={cert.witness_bob}" if cert.witness_bob else ""))
        return EXIT_OK
    local, report = is_local(corr, tol=args.tol)
    verdict = "pass" if local else "fail"
    if args.format == "machine":
        print(f"check local {verdict} {_fmt(report.gap)}")
        for f, g, w in report.weights:
            f_str = ",".join(str(d) for d in f)
            g_str = ",".join(str(d) for d in g)
            print(f"weight f={f_str} g={g_str} w={_fmt(w)}")
    else:
        if local:
            print(f"local: pass (max deviation {report.gap:.3e})")
            print(f"  decomposition over {len(report.weights)} deterministic vertices:")
            for f, g, w in report.weights:
                print(f"    f={f} g={g} weight={w:.6f}")
        else:
            print(f"local: fail (infeasibility gap {report.gap:.6f})")
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """argparse type: a finite float no smaller than 0."""
    value = float(text)
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be >= 0 and finite, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="nsgames",
        description="Game values, correlation checks, and POVM dilations.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "machine"), default="table",
                        help="output style (default: table)")
    common.add_argument("--threads", type=_int_at_least(1), default=1,
                        help="accepted and checked (>= 1); nsgames starts no worker threads")
    sub = parser.add_subparsers(dest="command", required=True)

    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--type", choices=("loc", "ns", "qs"), required=True,
                        help="value type: local, no-signalling, or quantum-spatial")
    engine.add_argument("--d", type=_int_at_least(1), default=2,
                        help="see-saw local dimension")
    engine.add_argument("--seeds", type=_int_at_least(1), default=20, help="see-saw seeds S: "
                        "the loc optimum and random restarts S//2..S-1, or S random ones")
    engine.add_argument("--sweeps", type=_int_at_least(0), default=200,
                        help="see-saw sweeps per restart")
    engine.add_argument("--rng-seed", type=int, default=0, help="64-bit RNG seed")

    p_value = sub.add_parser("value", parents=[common, engine],
                             help="compute one game value")
    p_value.add_argument("game", help="game file")
    p_value.set_defaults(func=cmd_value)

    p_seq = sub.add_parser("sequence", parents=[common, engine],
                           help="value sequences over parallel repetition")
    p_seq.add_argument("game", help="game file")
    p_seq.add_argument("--mode", choices=("iid", "inner", "memory"), required=True)
    p_seq.add_argument("--n-max", type=_int_at_least(0), default=2, dest="n_max")
    p_seq.set_defaults(func=cmd_sequence)

    p_dil = sub.add_parser("dilate", parents=[common],
                           help="Naimark / joint commuting dilation reports")
    p_dil.add_argument("povm", help="POVM or channel file")
    p_dil.add_argument("--joint", default=None,
                       help="second POVM file for the joint commuting dilation")
    p_dil.set_defaults(func=cmd_dilate)

    p_chk = sub.add_parser("check", parents=[common],
                           help="test a correlation dump")
    p_chk.add_argument("corr", help="correlation dump file")
    p_chk.add_argument("--test", choices=("ns", "local"), required=True)
    p_chk.add_argument("--tol", type=_tolerance, default=SYMMETRIZE_TOL,
                       help="verdict tolerance (default: errors.SYMMETRIZE_TOL, %(default)g)")
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        code = next((code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)), None)
        print(f"error: {exc}" if code else f"internal error: {exc}", file=sys.stderr)
        return code or EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
