"""Linear control systems x^Delta = A x + B u on a time scale.

Covers the positivity criterion (nonnegativity of the shifted matrix
A + I/mu_bar together with B >= 0), a sampling cross-check that the
transition matrix stays entrywise nonnegative exactly when that criterion
holds, and forward simulation under piecewise-constant controls.  Simulation is exact: the one-step law at
right-scattered points and the closed-form zero-order-hold update over
continuous segments.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import matrices
from .errors import DomainMismatch, NonFiniteState, NotPositiveSystem
from .exponential import ts_exp
from .matrices import DEFAULT_TOL
from .timescale import Atom, Segment, TimeScale


def _readonly(M: np.ndarray) -> np.ndarray:
    M = np.array(M, dtype=float)
    M.flags.writeable = False
    return M


@dataclass(frozen=True)
class LinearSystem:
    """System matrices (A, B) attached to a time scale.

    The scale must contain at least n + 1 elements, where n is the state
    dimension.
    """

    scale: TimeScale
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = matrices.as_matrix(self.A)
        B = matrices.as_matrix(self.B)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B has {B.shape[0]} rows but A is {A.shape[0]} x {A.shape[0]}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValueError("system matrices must be finite")
        if self.scale.element_count() < A.shape[0] + 1:
            raise ValueError(
                f"time scale has fewer than n + 1 = {A.shape[0] + 1} elements"
            )
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "B", _readonly(B))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant, right-continuous input on [t0, t1).

    ``times`` are the segment start times (the first one equals t0) and
    ``values`` the constant input vectors held from each start time until
    the next one.
    """

    t0: float
    t1: float
    times: tuple
    values: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(_readonly(np.atleast_1d(np.asarray(v, dtype=float))) for v in self.values)
        if len(times) != len(values) or not times:
            raise ValueError("need one value per segment start time")
        if times[0] != self.t0:
            raise ValueError("first segment must start at t0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("segment start times must be strictly increasing")
        if times[-1] >= self.t1:
            raise ValueError("segment start times must lie inside [t0, t1)")
        dims = {v.shape for v in values}
        if len(dims) != 1:
            raise ValueError("all segment values must share one dimension")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def zero(cls, t0: float, t1: float, m: int) -> "ControlSignal":
        return cls(t0, t1, (t0,), (np.zeros(m),))

    @classmethod
    def from_segments(cls, t0: float, t1: float, segments: Iterable) -> "ControlSignal":
        pairs = sorted(
            ((float(t), np.asarray(u, dtype=float)) for t, u in segments),
            key=lambda p: p[0],
        )
        return cls(t0, t1, tuple(t for t, _ in pairs), tuple(u for _, u in pairs))

    @property
    def m(self) -> int:
        return self.values[0].shape[0]

    def value_at(self, t: float) -> np.ndarray:
        i = bisect_right(self.times, t) - 1
        if i < 0:
            raise DomainMismatch(f"control is not defined at t = {t}")
        return self.values[i]

    def min_value(self) -> float:
        return min(float(v.min()) for v in self.values)


@dataclass(frozen=True)
class Trajectory:
    """Sampled state evolution; samples include every right-scattered point."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def min_entry(self) -> float:
        return float(self.states.min())


# -- positivity ------------------------------------------------------------


def positivity_matrix(sys: LinearSystem) -> np.ndarray:
    """A + I/mu_bar with the extended-real conventions.

    1/inf is 0 (geometric grids leave A untouched) and 1/0 puts +inf on the
    diagonal (dense scales constrain only the off-diagonal part of A).
    """
    mu_bar = sys.scale.max_graininess()
    out = np.array(sys.A, dtype=float)
    if mu_bar == math.inf:
        return out
    if mu_bar == 0.0:
        np.fill_diagonal(out, math.inf)
        return out
    return out + np.eye(sys.n) / mu_bar


@dataclass(frozen=True)
class PositivityReport:
    positive: bool
    shifted: np.ndarray  # the positivity matrix A + I/mu_bar
    #: offending entries as ("A_T" | "B", row, col, value)
    violations: tuple

    def __bool__(self) -> bool:
        return self.positive


def is_positive(sys: LinearSystem, tol: float = DEFAULT_TOL) -> PositivityReport:
    """Algebraic positivity test: A + I/mu_bar >= 0 and B >= 0."""
    shifted = positivity_matrix(sys)
    bad = []
    for i, j in zip(*np.where(shifted < -tol)):
        bad.append(("A_T", int(i), int(j), float(shifted[i, j])))
    for i, j in zip(*np.where(sys.B < -tol)):
        bad.append(("B", int(i), int(j), float(sys.B[i, j])))
    return PositivityReport(not bad, shifted, tuple(bad))


class ExpWitness(NamedTuple):
    """A sampled pair t >= t0 where the exponential has a negative entry."""

    t: float
    t0: float
    entry: tuple
    value: float


def _window_sample_points(ts: TimeScale, t0: float, t1: float) -> list:
    pts = {t0, t1}
    for ev in ts.partition(t0, t1):
        if isinstance(ev, Atom):
            pts.add(ev.t)
            pts.add(ev.end)
        else:
            # geometric ladder of offsets so that arbitrarily short dense
            # gaps (where sign defects of A surface first) get sampled
            length = ev.length
            frac = 1.0
            while frac >= 1.0 / 256.0:
                pts.add(ev.start + frac * length)
                frac /= 4.0
            pts.add(ev.start)
    return sorted(pts)


def exp_nonneg_witness(
    sys: LinearSystem,
    window: tuple,
    samples: int = 400,
    tol: float = DEFAULT_TOL,
) -> ExpWitness | None:
    """Sampling cross-check of exponential nonnegativity on a window.

    Evaluates e_A(t, s) on up to ``samples`` pairs drawn from the window
    (adjacent pairs first, then wider spans) and returns the first entry
    below -tol.  A test oracle, not a decision procedure.
    """
    t0, t1 = window
    pts = _window_sample_points(sys.scale, sys.scale.snap(t0), sys.scale.snap(t1))
    pairs = list(zip(pts, pts[1:]))
    for span in range(2, len(pts)):
        pairs.extend((pts[i], pts[i + span]) for i in range(len(pts) - span))
    for s, t in pairs[:samples]:
        E = ts_exp(sys.A, sys.scale, t, s)
        if E.min() < -tol:
            i, j = np.unravel_index(int(np.argmin(E)), E.shape)
            return ExpWitness(t, s, (int(i), int(j)), float(E[i, j]))
    return None


# -- simulation --------------------------------------------------------------


class _StepCache:
    """Zero-order-hold update matrices keyed by the exact step length."""

    def __init__(self, A: np.ndarray, B: np.ndarray):
        self.A, self.B = A, B
        self._data: dict = {}

    def get(self, dt: float):
        hit = self._data.get(dt)
        if hit is None:
            E = matrices.expm(self.A, dt)
            GB = matrices.expm_integral(self.A, dt) @ self.B
            hit = self._data[dt] = (E, GB)
        return hit


def simulate(
    sys: LinearSystem,
    x0,
    u: ControlSignal,
    t_end: float,
    dense_samples: int = 32,
) -> Trajectory:
    """Forward solution from x(t0) = x0 under the control u, up to t_end.

    Right-scattered points use the exact one-step law
    x(sigma(t)) = x(t) + mu(t) (A x(t) + B u(t)); continuous stretches with
    constant input use the closed-form update
    x(c + d) = e^(A d) x(c) + (int_0^d e^(A s) ds) B u.
    ``dense_samples`` bounds the reporting resolution per continuous
    segment (0 records only step boundaries); it never affects endpoints.
    Finiteness is checked once over the recorded samples; a non-finite
    sample raises ``NonFiniteState`` naming the first such sample time.
    """
    ts = sys.scale
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != sys.n:
        raise DomainMismatch(f"x0 has dimension {x.shape[0]}, expected {sys.n}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteState("initial state is not finite")
    if u.m != sys.m:
        raise DomainMismatch(f"control has {u.m} channels, system expects {sys.m}")
    t0 = ts.snap(u.t0)
    tend = ts.snap(t_end)
    if not (t0 <= tend <= u.t1 + 1e-12):
        raise DomainMismatch(f"t_end = {t_end} outside the control domain [{u.t0}, {u.t1}]")
    for t in u.times:
        if t not in ts:
            raise DomainMismatch(f"control switch time {t} is not in the time scale")

    rec_t = [t0]
    rec_x = [x]
    cache = _StepCache(sys.A, sys.B)

    events = ts.partition(t0, tend) if tend > t0 else []
    # An overflow is reported once, as NonFiniteState, after the window is done.
    with np.errstate(over="ignore", invalid="ignore"):
        for ev in events:
            if isinstance(ev, Atom):
                x = x + ev.mu * (sys.A @ x + sys.B @ u.value_at(ev.t))
                rec_t.append(ev.end)
                rec_x.append(x)
            else:
                res = ev.length / dense_samples if dense_samples > 0 else math.inf
                switches = u.times[bisect_right(u.times, ev.start) : bisect_left(u.times, ev.end)]
                bounds = [ev.start, *switches, ev.end]
                for a, b in zip(bounds, bounds[1:]):
                    if b <= a:
                        continue
                    n_sub = 1
                    if res < (b - a):
                        n_sub = min(int(math.ceil((b - a) / res - 1e-9)), 4096)
                    h = (b - a) / n_sub
                    E, GB = cache.get(h)
                    GBu = GB @ u.value_at(a)
                    for j in range(1, n_sub + 1):
                        x = E @ x + GBu
                        rec_t.append(b if j == n_sub else a + j * h)
                        rec_x.append(x)

    states = np.array(rec_x)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise NonFiniteState(f"state became non-finite at t = {rec_t[int(np.argmin(finite))]}")
    return Trajectory(np.asarray(rec_t), states)


# -- reachable-set sampling ---------------------------------------------------


def random_nonneg_controls(
    sys: LinearSystem,
    window: tuple,
    n_controls: int,
    seed: int,
    u_max: float = 1.0,
    dense_switches: int = 4,
) -> list:
    """Random nonnegative piecewise-constant controls on the window.

    Control 0 is identically zero.  Controls switch at every right-scattered
    point plus ``dense_switches`` equispaced interior points per continuous
    segment; each control draws from its own stream seeded by (seed, index).
    """
    ts = sys.scale
    t0, t1 = ts.snap(window[0]), ts.snap(window[1])
    times = {t0}
    for ev in ts.partition(t0, t1):
        if isinstance(ev, Atom):
            times.add(ev.t)
        else:
            for j in range(1, dense_switches + 1):
                times.add(ev.start + ev.length * j / (dense_switches + 1))
            times.add(ev.start)
    times = tuple(sorted(times))
    controls = [ControlSignal.zero(t0, t1, sys.m)]
    for idx in range(1, n_controls):
        rng = np.random.default_rng([seed, idx])
        vals = rng.uniform(0.0, u_max, size=(len(times), sys.m))
        controls.append(ControlSignal(t0, t1, times, tuple(vals)))
    return controls


def sample_positive_reachable(
    sys: LinearSystem,
    window: tuple,
    n_controls: int,
    rng_seed: int,
    u_max: float = 1.0,
) -> np.ndarray:
    """Window endpoints reached from 0 under random nonnegative controls.

    Requires a positive system; every returned point is entrywise
    nonnegative and the sampling is deterministic in the seed.
    """
    if not is_positive(sys):
        raise NotPositiveSystem("reachable-set sampling requires a positive system")
    t1 = sys.scale.snap(window[1])
    x0 = np.zeros(sys.n)
    controls = random_nonneg_controls(sys, window, n_controls, rng_seed, u_max)
    return np.asarray([simulate(sys, x0, u, t1, dense_samples=0).final for u in controls])
