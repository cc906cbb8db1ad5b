"""Per-request references that share no decision code with ``chronos``.

* ``cone_reachable`` sweeps the window backward and collects the generator
  directions e_A(t1, sigma(tau)) b_k.  It rescales the accumulated product
  by its max-norm after every step, which keeps each direction's monomial
  pattern and avoids overflow, and stops once the product is zero.  The
  monomial test is scale-invariant: one positive entry, every other entry
  at most ``TOL`` times the largest.
* ``endpoint`` replays a control with the exact one-step law at atoms and
  the zero-order-hold closed form on dense stretches.
* ``check_analyze`` / ``check_simulate`` apply the failure rule to one
  request and return ``None`` or the reason it failed.
"""

import csv
import io
import json
import math
from bisect import bisect_right

import numpy as np
from scipy.linalg import expm  # bound here, so tracing scipy.linalg.expm skips it

TOL = 1e-9
RESIDUAL_TOL = 1e-6
TRAJECTORY_FLOOR = -1e-9
#: Relative agreement required between a trajectory's last row and ``endpoint``.
ENDPOINT_RTOL = 1e-7
#: Interior samples per dense segment in the cone sweep.
DENSE_NODES = (0.25, 0.5, 0.75)


def events(components):
    """Atoms ("atom", t, sigma(t)) and segments ("dense", a, b) of the whole scale, in order."""
    out = []
    for j, (a, b) in enumerate(components):
        if b > a:
            out.append(("dense", a, b))
        if j + 1 < len(components):
            out.append(("atom", b, components[j + 1][0]))
    return out


def monomial(v):
    scale = float(np.max(np.abs(v)))
    if not scale > 0.0:
        return None
    big = np.flatnonzero(np.abs(v) > TOL * scale)
    if big.size != 1 or v[big[0]] <= 0.0:
        return None
    return int(big[0])


def _matrices(obj):
    return np.array(obj["A"], dtype=float), np.array(obj["B"], dtype=float)


def cone_reachable(obj):
    """True when every coordinate owns a monomial generator direction."""
    A, B = _matrices(obj)
    n = A.shape[0]
    covered = set()
    acc = np.eye(n)  # e_A(t1, end of the current event), up to a positive factor
    for kind, a, b in reversed(events(obj["timescale"]["components"])):
        if kind == "atom":
            covered.update(monomial(acc @ B[:, k]) for k in range(B.shape[1]))
            step = np.eye(n) + (b - a) * A
        else:
            for k in range(B.shape[1]):
                idx = {monomial(acc @ expm(A * ((b - a) * (1 - f))) @ B[:, k]) for f in DENSE_NODES}
                if len(idx) == 1:
                    covered.update(idx)
            step = expm(A * (b - a))
        acc = acc @ step
        top = float(np.max(np.abs(acc)))
        if top == 0.0:
            break
        acc /= top
    return all(i in covered for i in range(n))


def endpoint(obj, control):
    """State at the control's t1 reached from 0."""
    A, B = _matrices(obj)
    n = A.shape[0]
    times = [s["t"] for s in control["segments"]]
    values = [np.array(s["u"], dtype=float) for s in control["segments"]]

    def u_at(t):
        return values[bisect_right(times, t) - 1]

    def zoh(x, u, d):
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = A
        aug[:n, n] = B @ u
        E = expm(aug * d)
        return E[:n, :n] @ x + E[:n, n]

    x = np.zeros(n)
    for kind, a, b in events(obj["timescale"]["components"]):
        if kind == "atom":
            x = x + (b - a) * (A @ x + B @ u_at(a))
        else:
            cuts = [a] + [t for t in times if a < t < b] + [b]
            for c, d in zip(cuts, cuts[1:]):
                x = zoh(x, u_at(c), d - c)
    return x


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_analyze(code, stdout, expected):
    """Failure reason for one ``analyze`` request that exited 0 or 1, or None.

    ``expected`` is the reference decision (True/False).
    """
    rep = json.loads(stdout)["reachability"]
    if rep is None:
        return "no reachability report"
    if rep["reachable"] != (code == 0):
        return "exit code disagrees with the report"
    if rep["reachable"] != expected:
        return f"decision {rep['reachable']} differs from reference {expected}"
    if rep["reachable"]:
        if not _finite([v for row in rep["gram"] for v in row]):
            return "non-finite Gram matrix"
        for t in rep["targets"]:
            controls = [v for seg in t["control"]["segments"] for v in seg["u"]]
            if not _finite(t["endpoint"] + controls + [t["residual"]]):
                return f"non-finite certificate for {t['target']}"
            if t["residual"] > RESIDUAL_TOL:
                return f"residual {t['residual']:.3e} for {t['target']}"
    return None


def check_simulate(code, stdout, reference):
    """Failure reason for one ``simulate`` request, or None.

    ``reference`` is ``endpoint`` for the request's system and control.
    """
    if code != 0:
        return f"exit {code}"
    rows = list(csv.reader(io.StringIO(stdout)))[1:]
    states = np.array([[float(v) for v in row[1:]] for row in rows])
    if not np.all(np.isfinite(states)):
        return "non-finite trajectory"
    if states.min() < TRAJECTORY_FLOOR:
        return f"trajectory entry {states.min():.3e} below {TRAJECTORY_FLOOR}"
    if not np.all(np.isfinite(reference)):
        return "reference endpoint is not finite"
    gap = float(np.max(np.abs(states[-1] - reference)))
    if gap > ENDPOINT_RTOL * max(1.0, float(np.max(np.abs(reference)))):
        return f"endpoint differs from reference by {gap:.3e}"
    return None
