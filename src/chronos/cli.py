"""Command-line frontend.

Subcommands::

    chronos analyze  --system S.json --t0 A --t1 B
    chronos simulate --system S.json --control C.json [--t-end T] [--output F]
    chronos exp      --system S.json --t0 A --t1 B
    chronos gram     --system S.json --t0 A --t1 B [--M "1,3"] [--S "1:[0,1)|[2,3)"]
    chronos reach    --system S.json --t0 A --t1 B [--target e1]
    chronos --examples

``--system`` accepts a JSON descriptor path or one of the built-in demo
names (``integer``, ``hybrid``, ``irregular``).  Exit codes: 0 when the
command succeeds and its headline property holds, 1 when the property is
false, 2 on any error.  ``CHRONOS_TOL`` overrides the default tolerance.
"""

import argparse
import functools
import os
import re
import sys

import numpy as np

from . import demo, descriptors, reach, system
from .errors import ChronosError, ParseError
from .matrices import DEFAULT_TOL, is_monomial
from .timescale import DeltaSet

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _default_tol() -> float:
    raw = os.environ.get("CHRONOS_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"CHRONOS_TOL = {raw!r} is not a number") from exc


#: The built-in demo table, built on first use and shared by later calls.
_demo_systems = functools.cache(demo.demo_systems)


def _load_system(arg: str) -> system.LinearSystem:
    builtins = _demo_systems()
    if arg in builtins:
        return builtins[arg].system
    return descriptors.system_from_obj(descriptors.load_json(arg))


def _parse_columns(raw: str, m: int) -> list:
    try:
        cols = sorted({int(tok) for tok in raw.split(",") if tok.strip()})
    except ValueError as exc:
        raise ParseError(f"--M {raw!r} is not a comma-separated index list") from exc
    if not cols or cols[0] < 1 or cols[-1] > m:
        raise ParseError(f"--M {raw!r} must select 1-based columns within 1..{m}")
    return [c - 1 for c in cols]


_PIECE_RE = re.compile(r"\[\s*([^,\[\)]+)\s*,\s*([^,\[\)]+)\s*\)")


def _parse_sets(raw: str, sys_: system.LinearSystem, window: tuple) -> reach.GramSpec:
    sets = {}
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, body = part.partition(":")
        try:
            k = int(key)
        except ValueError as exc:
            raise ParseError(f"--S entry {part!r} lacks a column index") from exc
        if not 1 <= k <= sys_.m:
            raise ParseError(f"--S column {k} outside 1..{sys_.m}")
        pieces = _PIECE_RE.findall(body)
        if not pieces:
            raise ParseError(f"--S entry {part!r} has no [a,b) pieces")
        try:
            parsed = tuple((float(a), float(b)) for a, b in pieces)
        except ValueError as exc:
            raise ParseError(f"--S entry {part!r} has non-numeric bounds") from exc
        sets[k - 1] = DeltaSet(sys_.scale, parsed)
    if not sets:
        raise ParseError("--S selected no columns")
    return reach.GramSpec(window, sets)


def _parse_targets(raws: list, n: int) -> list:
    targets = []
    for raw in raws:
        raw = raw.strip()
        if re.fullmatch(r"[eE]\d+", raw):
            i = int(raw[1:])
            if not 1 <= i <= n:
                raise ParseError(f"--target {raw!r} outside e1..e{n}")
            vec = np.zeros(n)
            vec[i - 1] = 1.0
            targets.append((raw.lower(), vec))
        else:
            try:
                vec = np.array([float(tok) for tok in raw.split(",")], dtype=float)
            except ValueError as exc:
                raise ParseError(f"--target {raw!r} is neither e<i> nor a vector") from exc
            if vec.shape[0] != n:
                raise ParseError(f"--target {raw!r} has dimension {vec.shape[0]}, expected {n}")
            targets.append((raw, vec))
    return targets


def _emit(obj) -> None:
    print(descriptors.jdumps(obj))


def _emit_matrix_csv(M) -> None:
    for row in descriptors.matrix_to_obj(M):
        print(",".join(format(v, ".17g") for v in row))


# -- subcommands ---------------------------------------------------------------


def _cmd_analyze(args) -> int:
    sys_ = _load_system(args.system)
    rep = reach.analyze_system(sys_, (args.t0, args.t1), tol=args.tol)
    _emit(descriptors.analysis_to_obj(sys_, rep))
    if rep.reach is not None and rep.reach.reachable:
        return EXIT_TRUE
    return EXIT_FALSE


def _cmd_simulate(args) -> int:
    sys_ = _load_system(args.system)
    u = descriptors.control_from_obj(descriptors.load_json(args.control))
    t_end = args.t_end if args.t_end is not None else u.t1
    x0 = np.zeros(sys_.n)
    if args.x0 is not None:
        x0 = np.array([float(tok) for tok in args.x0.split(",")], dtype=float)
    traj = system.simulate(sys_, x0, u, t_end)
    summary = {
        "system": descriptors.system_to_obj(sys_),
        "t_end": float(sys_.scale.snap(t_end)),
        "samples": int(traj.times.shape[0]),
        "final_state": [float(v) for v in traj.final],
    }
    if args.output and args.output != "-":
        with open(args.output, "w", newline="") as fh:
            descriptors.write_trajectory_csv(traj, fh)
        _emit(summary)
    else:
        descriptors.write_trajectory_csv(traj, sys.stdout)
        print(descriptors.jdumps(summary), file=sys.stderr)
    return EXIT_TRUE


def _cmd_exp(args) -> int:
    from .exponential import exp_path

    sys_ = _load_system(args.system)
    path = exp_path(sys_.A, sys_.scale, args.t1, args.t0)
    factors = []
    for f in path.factors:
        entry = {
            "kind": f.kind,
            "start": f.start,
            "end": f.end,
            "matrix": descriptors.matrix_to_obj(f.matrix),
        }
        entry["mu" if f.kind == "discrete" else "length"] = f.length
        factors.append(entry)
    if args.format == "csv":
        _emit_matrix_csv(path.value)
        return EXIT_TRUE
    _emit(
        {
            "system": descriptors.system_to_obj(sys_),
            "t0": path.t_start,
            "t1": path.t_end,
            "value": descriptors.matrix_to_obj(path.value),
            "factors": factors,
        }
    )
    return EXIT_TRUE


def _cmd_gram(args) -> int:
    sys_ = _load_system(args.system)
    t0, t1 = sys_.scale.snap(args.t0), sys_.scale.snap(args.t1)
    window = (t0, t1)
    if args.S is not None:
        spec = _parse_sets(args.S, sys_, window)
        if args.M is not None:
            wanted = set(_parse_columns(args.M, sys_.m))
            if wanted != set(spec.M):
                raise ParseError("--M and --S select different columns")
        mode = "custom_spec"
        W = reach.gram(sys_, spec)
        spec_obj = descriptors.gram_spec_to_obj(spec)
    elif args.M is not None:
        cols = _parse_columns(args.M, sys_.m)
        mode = "column_gram" if len(cols) < sys_.m else "full_gram"
        W = reach.gram_columns(sys_, window, cols)
        spec_obj = {
            "t0": t0,
            "t1": t1,
            "M": [k + 1 for k in cols],
            "sets": {str(k + 1): [[t0, t1]] for k in cols},
        }
    else:
        mode = "full_gram"
        W = reach.gram_full(sys_, window)
        spec_obj = {
            "t0": t0,
            "t1": t1,
            "M": list(range(1, sys_.m + 1)),
            "sets": {str(k): [[t0, t1]] for k in range(1, sys_.m + 1)},
        }
    monomial = is_monomial(W, args.tol)
    if args.format == "csv":
        _emit_matrix_csv(W)
    else:
        _emit(
            {
                "system": descriptors.system_to_obj(sys_),
                "mode": mode,
                "spec": spec_obj,
                "W": descriptors.matrix_to_obj(W),
                "monomial": monomial,
            }
        )
    return EXIT_TRUE if monomial else EXIT_FALSE


def _cmd_reach(args) -> int:
    sys_ = _load_system(args.system)
    rep = reach.decide_positive_reachability(sys_, (args.t0, args.t1), tol=args.tol)
    out = {"system": descriptors.system_to_obj(sys_)}
    out.update(descriptors.reach_report_to_obj(rep))
    if args.target and rep.reachable:
        extra = []
        for label, vec in _parse_targets(args.target, sys_.n):
            u = reach.synthesize_control(sys_, rep.spec, vec, tol=args.tol)
            endpoint = system.simulate(sys_, np.zeros(sys_.n), u, rep.window[1], dense_samples=0).final
            extra.append(
                {
                    "target": label,
                    "residual": float(np.max(np.abs(endpoint - vec))),
                    "endpoint": [float(v) for v in endpoint],
                    "control": descriptors.control_to_obj(u),
                }
            )
        out["requested_targets"] = extra
    _emit(out)
    return EXIT_TRUE if rep.reachable else EXIT_FALSE


def _print_examples() -> int:
    out = {}
    for name, d in _demo_systems().items():
        out[name] = {
            "description": d.description,
            "window": {"t0": d.window[0], "t1": d.window[1]},
            "system": descriptors.system_to_obj(d.system),
        }
    _emit(out)
    return EXIT_TRUE


# -- argument plumbing ------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronos",
        description="Linear control systems on time scales: simulation, "
        "positivity and positive-reachability analysis.",
    )
    parser.add_argument(
        "--examples",
        action="store_true",
        help="print the built-in demo system descriptors and exit",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, window=True):
        p.add_argument("--system", required=True, help="descriptor path or built-in name")
        p.add_argument("--tol", type=float, default=None, help="decision tolerance")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if window:
            p.add_argument("--t0", type=float, required=True)
            p.add_argument("--t1", type=float, required=True)

    p = sub.add_parser("analyze", help="positivity, accessibility and reachability report")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="simulate a control file; emit trajectory CSV")
    common(p, window=False)
    p.add_argument("--control", required=True, help="control descriptor path")
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--x0", default=None, help="comma-separated initial state (default 0)")
    p.add_argument("--output", default="-", help="CSV path ('-' for stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("exp", help="evaluate the transition matrix and its factors")
    common(p)
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("gram", help="Gram matrix of a window / column selection / custom sets")
    common(p)
    p.add_argument("--M", default=None, help='1-based column selection, e.g. "1,3"')
    p.add_argument("--S", default=None, help='per-column delta sets, e.g. "1:[0,1)|[2,3)"')
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("reach", help="decide positive reachability on a window")
    common(p)
    p.add_argument("--target", action="append", default=[], help='extra target, e.g. "e1"')
    p.set_defaults(func=_cmd_reach)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.examples:
            return _print_examples()
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_ERROR
        if args.tol is None:
            args.tol = _default_tol()
        return args.func(args)
    except ChronosError as exc:
        print(f"chronos: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"chronos: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    raise SystemExit(main())
