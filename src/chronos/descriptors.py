"""JSON descriptors and report serialisation.

Wire formats:

* time scale: ``{"tag": "custom"|"real_line"|"h_grid"|"q_grid",
  "h": number?, "q": number?, "components": [[a, b], ...]}``
* system: ``{"timescale": {...}, "A": [[...]], "B": [[...]]}``
* control: ``{"t0": .., "t1": .., "segments": [{"t": .., "u": [..]}, ...]}``
* trajectory CSV: header ``t,x1,...,xn`` then one row per sample.

All numbers are serialised with 17 significant digits so reports diff
exactly across runs; ``inf`` is emitted as the string ``"inf"`` because
JSON has no infinity literal.  Column selections (M) and basis-target
labels are 1-based on the wire, matching the CLI flags, while the Python
API is 0-based throughout.
"""

import json
import math

import numpy as np

from .errors import ParseError
from .reach import AnalysisReport, GramSpec, ReachReport
from .system import ControlSignal, LinearSystem, PositivityReport, Trajectory
from .timescale import TimeScale


# -- parsing -------------------------------------------------------------------


def timescale_from_obj(obj) -> TimeScale:
    if not isinstance(obj, dict):
        raise ParseError("time-scale descriptor must be an object")
    tag = obj.get("tag", "custom")
    comps = obj.get("components")
    if not isinstance(comps, list) or not comps:
        raise ParseError("time-scale descriptor needs a nonempty components list")
    try:
        pairs = tuple((float(c[0]), float(c[1])) for c in comps)
        kw = {}
        if obj.get("h") is not None:
            kw["h"] = float(obj["h"])
        if obj.get("q") is not None:
            kw["q"] = float(obj["q"])
        return TimeScale(pairs, tag=tag, **kw)
    except ParseError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"bad time-scale descriptor: {exc}") from exc


def timescale_to_obj(ts: TimeScale) -> dict:
    out = {"tag": ts.tag, "components": [[a, b] for a, b in ts.components]}
    if ts.h is not None:
        out["h"] = ts.h
    if ts.q is not None:
        out["q"] = ts.q
    return out


def _matrix_from_obj(obj, what: str) -> np.ndarray:
    try:
        M = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what} is not a numeric matrix") from exc
    if M.ndim != 2:
        raise ParseError(f"{what} must be a nested (row-major) array")
    return M


def system_from_obj(obj) -> LinearSystem:
    if not isinstance(obj, dict):
        raise ParseError("system descriptor must be an object")
    for key in ("timescale", "A", "B"):
        if key not in obj:
            raise ParseError(f"system descriptor is missing {key!r}")
    ts = timescale_from_obj(obj["timescale"])
    A = _matrix_from_obj(obj["A"], "A")
    B = _matrix_from_obj(obj["B"], "B")
    try:
        return LinearSystem(ts, A, B)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def system_to_obj(sys: LinearSystem) -> dict:
    return {
        "timescale": timescale_to_obj(sys.scale),
        "A": matrix_to_obj(sys.A),
        "B": matrix_to_obj(sys.B),
    }


def control_from_obj(obj) -> ControlSignal:
    if not isinstance(obj, dict):
        raise ParseError("control descriptor must be an object")
    try:
        t0, t1 = float(obj["t0"]), float(obj["t1"])
        segments = [(float(s["t"]), [float(v) for v in s["u"]]) for s in obj["segments"]]
        return ControlSignal.from_segments(t0, t1, segments)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad control descriptor: {exc}") from exc


def control_to_obj(u: ControlSignal) -> dict:
    return {
        "t0": u.t0,
        "t1": u.t1,
        "segments": [{"t": t, "u": list(map(float, v))} for t, v in zip(u.times, u.values)],
    }


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


# -- report building -------------------------------------------------------------


def matrix_to_obj(M) -> list:
    return [[float(x) for x in row] for row in np.atleast_2d(np.asarray(M, dtype=float))]


def positivity_to_obj(rep: PositivityReport) -> dict:
    return {
        "positive": rep.positive,
        "A_T": matrix_to_obj(rep.shifted),
        "violations": [
            {"matrix": which, "row": i + 1, "col": j + 1, "value": val}
            for which, i, j, val in rep.violations
        ],
    }


def gram_spec_to_obj(spec: GramSpec) -> dict:
    return {
        "t0": spec.window[0],
        "t1": spec.window[1],
        "M": [k + 1 for k in spec.M],
        "sets": {str(k + 1): [[c, d] for c, d in spec.sets[k].pieces] for k in spec.M},
    }


def reach_report_to_obj(rep: ReachReport) -> dict:
    out = {
        "decision": rep.decision.value,
        "reachable": rep.reachable,
        "window": {"t0": rep.window[0], "t1": rep.window[1]},
        "kalman_rank": rep.kalman_rank,
        "diagnostics": {
            str(i + 1): [
                {"column": c.column + 1, "kind": c.kind, "piece": [c.piece[0], c.piece[1]]}
                for c in cands
            ]
            for i, cands in rep.diagnostics.items()
        },
    }
    if rep.spec is not None:
        out["spec"] = gram_spec_to_obj(rep.spec)
        out["gram"] = matrix_to_obj(rep.gram)
        out["targets"] = [
            {
                "target": f"e{t.target + 1}",
                "residual": t.residual,
                "endpoint": [float(x) for x in t.endpoint],
                "control": control_to_obj(t.control),
            }
            for t in rep.targets
        ]
    return out


def analysis_to_obj(sys: LinearSystem, rep: AnalysisReport) -> dict:
    out = {
        "system": system_to_obj(sys),
        "window": {"t0": rep.window[0], "t1": rep.window[1]},
        "positivity": positivity_to_obj(rep.positivity),
        "accessibility": {"accessible": rep.accessible, "kalman_rank": rep.kalman_rank},
        "reachability": reach_report_to_obj(rep.reach) if rep.reach is not None else None,
        "decision": rep.decision.value if rep.decision is not None else None,
    }
    if rep.reach is None:
        out["note"] = "system is not positive; positive-reachability analysis skipped"
    return out


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    n = traj.states.shape[1]
    # "%.17g" spells -0, inf, -inf and nan exactly as _fmt_float does
    row = ",".join(["%.17g"] * (n + 1)) + "\n"
    data = np.column_stack((traj.times, traj.states)).tolist()
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)]) + "\n"
    fh.write(header + "".join([row % tuple(r) for r in data]))


# -- deterministic JSON ------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


def _write_json(obj, parts: list, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            parts.append(f"{pad_in}{json.dumps(str(key))}: ")
            _write_json(val, parts, indent, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            parts.append("[]")
            return
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in seq)
        if flat:
            parts.append("[" + ", ".join(_scalar_json(v) for v in seq) + "]")
            return
        parts.append("[\n")
        for i, val in enumerate(seq):
            parts.append(pad_in)
            _write_json(val, parts, indent, level + 1)
            parts.append(",\n" if i < len(seq) - 1 else "\n")
        parts.append(pad + "]")
    else:
        parts.append(_scalar_json(obj))


def _scalar_json(v) -> str:
    if isinstance(v, bool) or v is None:
        return json.dumps(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return _fmt_float(v)
        return json.dumps(_fmt_float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return json.dumps(v)


def jdumps(obj, indent: int = 2) -> str:
    """JSON text with floats at 17 significant digits (reproducible diffs)."""
    parts: list = []
    _write_json(obj, parts, indent, 0)
    return "".join(parts)
