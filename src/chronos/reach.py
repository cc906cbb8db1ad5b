"""Positive accessibility and positive reachability.

Accessibility reduces to the Kalman rank test and is window-independent.
Positive reachability on a window [t0, t1] is characterised by the
existence of a monomial Gram matrix

    W = sum_k  int_{S_k} v_k(tau) v_k(tau)^T  Delta tau,
    v_k(tau) = e_A(t1, sigma(tau)) b_k,

taken over a column selection M and per-column integration sets S_k.  The
decision procedure scans, for every target coordinate i, for times where
some v_k is i-monomial, assembles the S_k sets from one witness piece per
coordinate, and then proves its own answer: the resulting W must be
monomial and the synthesised controls must steer 0 to every basis vector.
The controls come from the same Gram formula on the zero-order-hold-sampled
system, so they are constant on each certificate piece and land on their
target exactly up to rounding.  Specialised criteria for dense scales and
for (non)homogeneous discrete grids are provided alongside for
cross-checking.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import matrices
from .errors import (
    CertificateCheckFailed,
    DenseWindow,
    EmptyM,
    EmptyWindow,
    NegativeTarget,
    NotMonomialGram,
    NotPositiveSystem,
    SpecOutsideWindow,
    WindowTooSmall,
    WrongScaleTag,
)
from .exponential import ts_exp
from .matrices import DEFAULT_TOL
from .system import ControlSignal, LinearSystem, PositivityReport, is_positive, simulate
from .timescale import TAG_H_GRID, TAG_REAL_LINE, Atom, DeltaSet

#: Chebyshev sample count used to classify a dense segment as i-monomial.
DENSE_SCAN_NODES = 9
#: Convergence target for the panel-doubling Gram quadrature.
GRAM_AGREE_TOL = 1e-10
#: Endpoint residual accepted for a synthesised control.
SYNTH_RESIDUAL_TOL = 1e-6

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


class Decision(str, Enum):
    POSITIVELY_REACHABLE = "positively_reachable"
    NOT_POSITIVELY_REACHABLE = "not_positively_reachable"
    ACCESSIBLE_ONLY = "accessible_only"
    INACCESSIBLE = "inaccessible"


@dataclass(frozen=True)
class GramSpec:
    """Column selection and integration sets defining a Gram matrix.

    ``sets`` maps a (0-based) input column k to the DeltaSet S_k over which
    that column is integrated; all pieces must lie inside [t0, t1).
    """

    window: tuple
    sets: dict

    def __post_init__(self):
        t0, t1 = float(self.window[0]), float(self.window[1])
        if t0 >= t1:
            raise EmptyWindow(f"window [{t0}, {t1}] is empty")
        object.__setattr__(self, "window", (t0, t1))
        for k, S in self.sets.items():
            if not isinstance(S, DeltaSet):
                raise TypeError(f"S_{k} must be a DeltaSet")
            if not S.is_within(t0, t1):
                raise SpecOutsideWindow(
                    f"S_{k} has pieces outside the window [{t0}, {t1})"
                )

    @property
    def M(self) -> tuple:
        return tuple(sorted(self.sets))


@dataclass(frozen=True)
class Candidate:
    """One place where column k produces an i-monomial direction."""

    target: int
    column: int
    kind: str  # "atom" | "dense"
    piece: tuple  # [start, end)


@dataclass(frozen=True)
class TargetCertificate:
    """Synthesised control steering 0 to one basis vector."""

    target: int
    control: ControlSignal
    endpoint: np.ndarray
    residual: float


@dataclass(frozen=True)
class ReachReport:
    decision: Decision
    window: tuple
    kalman_rank: int
    diagnostics: dict  # target index -> tuple of Candidate
    spec: GramSpec | None = None
    gram: np.ndarray | None = None
    targets: tuple | None = None
    positivity: PositivityReport | None = None

    @property
    def reachable(self) -> bool:
        return self.decision == Decision.POSITIVELY_REACHABLE

    @property
    def dense_substeps(self) -> int | None:
        """Constant-input steps per dense certificate piece: one, when there is a certificate."""
        return 1 if self.targets is not None else None


# -- accessibility ------------------------------------------------------------


def kalman_matrix(sys: LinearSystem) -> np.ndarray:
    """Horizontal stack [B, AB, ..., A^(n-1) B]."""
    blocks = [np.array(sys.B)]
    for _ in range(sys.n - 1):
        blocks.append(sys.A @ blocks[-1])
    return np.hstack(blocks)


def is_positively_accessible(sys: LinearSystem, window: tuple, tol: float = DEFAULT_TOL) -> bool:
    """Kalman rank test; decides accessibility on the window and globally.

    The window must contain at least n + 1 scale elements for the
    equivalence with window-level accessibility to hold.
    """
    t0, t1 = window
    if sys.scale.element_count(t0, t1) < sys.n + 1:
        raise WindowTooSmall(
            f"window [{t0}, {t1}] has fewer than n + 1 = {sys.n + 1} elements"
        )
    return matrices.rank(kalman_matrix(sys), tol) == sys.n


# -- Gram matrices -------------------------------------------------------------


def _dense_gram_piece(
    sys: LinearSystem, t1: float, start: float, end: float, b: np.ndarray, agree_tol: float
) -> np.ndarray:
    """Quadrature of v(tau) v(tau)^T over a right-dense stretch [start, end).

    Composite 8-point Gauss-Legendre with panel doubling until two
    successive refinements agree entrywise.
    """
    E_end = ts_exp(sys.A, sys.scale, t1, end)

    def value(panels: int) -> np.ndarray:
        total = np.zeros((sys.n, sys.n))
        width = (end - start) / panels
        for p in range(panels):
            mid = start + (p + 0.5) * width
            for x, w in zip(_GL_NODES, _GL_WEIGHTS):
                tau = mid + 0.5 * width * x
                v = E_end @ matrices.expm(sys.A, end - tau) @ b
                total += (w * 0.5 * width) * np.outer(v, v)
        return total

    prev = value(1)
    panels = 2
    while True:
        cur = value(panels)
        gap = float(np.max(np.abs(cur - prev)))
        if gap <= agree_tol * max(1.0, float(np.max(np.abs(cur)))) or panels >= 256:
            return cur
        prev = cur
        panels *= 2


def gram(sys: LinearSystem, spec: GramSpec, agree_tol: float = GRAM_AGREE_TOL) -> np.ndarray:
    """Gram matrix of the spec: exact atom sums plus dense quadrature."""
    t0, t1 = spec.window
    t1 = sys.scale.snap(t1)
    W = np.zeros((sys.n, sys.n))
    for k in spec.M:
        if not 0 <= k < sys.m:
            raise ValueError(f"column index {k} out of range for m = {sys.m}")
        b = sys.B[:, k]
        for ev in spec.sets[k].events():
            if isinstance(ev, Atom):
                v = ts_exp(sys.A, sys.scale, t1, ev.end) @ b
                W += ev.mu * np.outer(v, v)
            else:
                W += _dense_gram_piece(sys, t1, ev.start, ev.end, b, agree_tol)
    return (W + W.T) / 2.0


def gram_full(sys: LinearSystem, window: tuple, agree_tol: float = GRAM_AGREE_TOL) -> np.ndarray:
    """Ordinary Gram matrix: every column integrated over the whole window."""
    return gram_columns(sys, window, range(sys.m), agree_tol)


def gram_columns(
    sys: LinearSystem, window: tuple, M, agree_tol: float = GRAM_AGREE_TOL
) -> np.ndarray:
    """Gram matrix with the selected columns integrated over the whole window."""
    M = sorted(set(int(k) for k in M))
    if not M:
        raise EmptyM("column selection M must be nonempty")
    t0, t1 = sys.scale.snap(window[0]), sys.scale.snap(window[1])
    whole = DeltaSet.window(sys.scale, t0, t1)
    return gram(sys, GramSpec((t0, t1), {k: whole for k in M}), agree_tol)


# -- decision procedure ---------------------------------------------------------


def _cheb_nodes(start: float, end: float, count: int) -> list:
    mid, half = (start + end) / 2.0, (end - start) / 2.0
    return [
        mid + half * math.cos(math.pi * (2 * j + 1) / (2 * count))
        for j in range(count)
    ]


def _candidate_scan(sys: LinearSystem, t0: float, t1: float, tol: float) -> dict:
    """All (column, piece) witnesses per target coordinate.

    An atom at tau is an i-witness when e_A(t1, sigma(tau)) b_k is
    i-monomial; a dense segment is one when the vector is i-monomial at
    nine interior Chebyshev nodes.  On a positive system the sampled
    vectors are nonnegative and real-analytic per segment, so the pattern
    holds identically or almost nowhere; the Gram/synthesis verification
    backstops the sampling.
    """
    found: dict = {i: [] for i in range(sys.n)}
    events = sys.scale.partition(t0, t1)
    for k in range(sys.m):
        b = sys.B[:, k]
        for ev in events:
            if isinstance(ev, Atom):
                v = ts_exp(sys.A, sys.scale, t1, ev.end) @ b
                i = matrices.monomial_index(v, tol)
                if i is not None:
                    found[i].append(Candidate(i, k, "atom", (ev.t, ev.end)))
            else:
                E_end = ts_exp(sys.A, sys.scale, t1, ev.end)
                idx = {
                    matrices.monomial_index(
                        E_end @ matrices.expm(sys.A, ev.end - tau) @ b, tol
                    )
                    for tau in _cheb_nodes(ev.start, ev.end, DENSE_SCAN_NODES)
                }
                if len(idx) == 1:
                    i = idx.pop()
                    if i is not None:
                        found[i].append(Candidate(i, k, "dense", (ev.start, ev.end)))
    return found


def _candidate_key(c: Candidate) -> tuple:
    return (0 if c.kind == "atom" else 1, c.column, c.piece[0])


def decide_positive_reachability(
    sys: LinearSystem, window: tuple, tol: float = DEFAULT_TOL
) -> ReachReport:
    """Decide positive reachability of a positive system on [t0, t1].

    On success the report embeds a verified certificate: the Gram spec, its
    monomial Gram matrix, and one nonnegative control per basis vector that
    simulates from 0 to that vector within ``SYNTH_RESIDUAL_TOL``.  Witness
    selection prefers scattered atoms over dense segments, then lower
    column indices, then earlier times, so certificates are deterministic.

    Raises ``NotPositiveSystem`` for non-positive systems and
    ``CertificateCheckFailed`` if the scan and the verification disagree
    (never silently passed).
    """
    pos = is_positive(sys, tol)
    if not pos:
        raise NotPositiveSystem(
            f"positive-reachability decision requires a positive system; {pos.violations}"
        )
    t0, t1 = sys.scale.snap(window[0]), sys.scale.snap(window[1])
    if t0 >= t1:
        raise EmptyWindow(f"window [{window[0]}, {window[1]}] is empty")
    krank = matrices.rank(kalman_matrix(sys), tol)
    found = _candidate_scan(sys, t0, t1, tol)
    diagnostics = {i: tuple(sorted(cands, key=_candidate_key)) for i, cands in found.items()}

    if any(not found[i] for i in range(sys.n)):
        return ReachReport(
            Decision.NOT_POSITIVELY_REACHABLE, (t0, t1), krank, diagnostics,
            positivity=pos,
        )

    chosen = {i: min(found[i], key=_candidate_key) for i in range(sys.n)}
    pieces: dict = {}
    for cand in chosen.values():
        pieces.setdefault(cand.column, []).append(cand.piece)
    spec = GramSpec(
        (t0, t1), {k: DeltaSet(sys.scale, tuple(ps)) for k, ps in pieces.items()}
    )
    W = gram(sys, spec)
    if not matrices.is_monomial(W, tol):
        raise CertificateCheckFailed(
            f"candidate scan produced a non-monomial Gram matrix: {W.tolist()}"
        )

    targets = []
    for i in range(sys.n):
        e_i = np.zeros(sys.n)
        e_i[i] = 1.0
        u = synthesize_control(sys, spec, e_i, tol=tol)
        endpoint = simulate(sys, np.zeros(sys.n), u, t1, dense_samples=0).final
        residual = float(np.max(np.abs(endpoint - e_i)))
        if residual > SYNTH_RESIDUAL_TOL:
            raise CertificateCheckFailed(
                f"synthesis residual {residual:.3e} for e{i + 1} above {SYNTH_RESIDUAL_TOL:.1e}"
            )
        targets.append(TargetCertificate(i, u, endpoint, residual))

    return ReachReport(
        Decision.POSITIVELY_REACHABLE, (t0, t1), krank, diagnostics,
        spec=spec, gram=W, targets=tuple(targets), positivity=pos,
    )


# -- control synthesis -----------------------------------------------------------


def synthesize_control(
    sys: LinearSystem, spec: GramSpec, target, tol: float = DEFAULT_TOL
) -> ControlSignal:
    """Nonnegative control, constant on each event of the spec, steering 0 to x.

    This is the Gram formula u = b_k^T e_A(t1, sigma(tau))^T W^{-1} x on the
    zero-order-hold-sampled system.  Each event of S_k contributes the
    generator g = mu e_A(t1, sigma(tau)) b_k at an atom, or
    g = e_A(t1, end) (int_0^len e^(A s) ds) b_k on a dense piece, and the
    constant input g^T c / h on it (h = mu or len), where W_h c = x and
    W_h = sum g g^T / h.  The forced response is sum g u = W_h c = x, exact
    up to rounding.  W_h must be monomial (``NotMonomialGram`` otherwise)
    and x entrywise nonnegative (``NegativeTarget``); then c and every
    input are nonnegative.
    """
    x_bar = np.asarray(target, dtype=float).reshape(-1)
    if x_bar.shape[0] != sys.n:
        raise ValueError(f"target has dimension {x_bar.shape[0]}, expected {sys.n}")
    if x_bar.min() < 0:
        raise NegativeTarget(f"target {x_bar.tolist()} has negative entries")
    t0, t1 = spec.window
    t1 = sys.scale.snap(t1)

    # (start, end, column, generator g, hold length h); per column disjoint
    pieces = []
    for k in spec.M:
        b = sys.B[:, k]
        for ev in spec.sets[k].events():
            if isinstance(ev, Atom):
                g = ev.mu * (ts_exp(sys.A, sys.scale, t1, ev.end) @ b)
                pieces.append((ev.t, ev.end, k, g, ev.mu))
            else:
                E_end = ts_exp(sys.A, sys.scale, t1, ev.end)
                g = E_end @ matrices.expm_integral(sys.A, ev.length) @ b
                pieces.append((ev.start, ev.end, k, g, ev.length))
    W_h = sum((np.outer(g, g) / h for *_, g, h in pieces), np.zeros((sys.n, sys.n)))
    if not matrices.is_monomial(W_h, tol):
        raise NotMonomialGram(
            f"synthesis requires a monomial sampled Gram matrix: {W_h.tolist()}"
        )
    c = np.linalg.solve(W_h, x_bar)

    times = sorted({t0, *(p[0] for p in pieces), *(p[1] for p in pieces)} - {t1})
    values = [np.zeros(sys.m) for _ in times]
    for start, end, k, g, h in pieces:
        u = max(float(g @ c) / h, 0.0)
        for j in range(bisect_left(times, start), bisect_left(times, end)):
            values[j][k] = u
    return ControlSignal(t0, t1, tuple(times), tuple(values))


# -- specialised criteria ----------------------------------------------------------


def homogeneous_block_matrix(A, B, step: float, blocks: int) -> np.ndarray:
    """[B, (I + step*A) B, ..., (I + step*A)^(blocks-1) B]."""
    A, B = matrices.as_matrix(A), matrices.as_matrix(B)
    P = np.eye(A.shape[0]) + step * A
    out = [np.array(B)]
    for _ in range(blocks - 1):
        out.append(P @ out[-1])
    return np.hstack(out)


def nonhomogeneous_block_matrix(sys: LinearSystem, t0: float, steps: int) -> np.ndarray:
    """Forward-accumulated blocks for a purely scattered window of ``steps`` jumps.

    Block j is the cumulative product (I + mu(sigma^j(t0)) A) ... (I +
    mu(sigma(t0)) A) applied to B; the graininess at t0 itself never enters.
    """
    ts = sys.scale
    t = ts.snap(t0)
    chain = [t]
    for _ in range(steps):
        nxt = ts.sigma(chain[-1])
        if nxt == chain[-1]:
            if chain[-1] == ts.t_max:
                raise WindowTooSmall(
                    f"scale ends before {steps} jumps from t0 = {t0}"
                )
            raise DenseWindow(f"point {chain[-1]} is right-dense")
        chain.append(nxt)
    blocks = [np.array(sys.B)]
    acc = np.eye(sys.n)
    for j in range(1, steps):
        mu_j = chain[j + 1] - chain[j]
        acc = (np.eye(sys.n) + mu_j * sys.A) @ acc
        blocks.append(acc @ sys.B)
    return np.hstack(blocks)


def check_pr_real_line(sys: LinearSystem, tol: float = DEFAULT_TOL) -> bool:
    """Dense-scale criterion: A diagonal and B containing a monomial submatrix.

    Window-independent: on an interval scale the answer is the same for
    every window.
    """
    if sys.scale.tag != TAG_REAL_LINE:
        raise WrongScaleTag("criterion applies to real_line-tagged scales")
    off = sys.A - np.diag(np.diag(sys.A))
    if np.max(np.abs(off), initial=0.0) > tol:
        return False
    return matrices.has_monomial_submatrix(sys.B, tol).found


def check_pr_discrete_homogeneous(
    sys: LinearSystem, t0: float, k: int, tol: float = DEFAULT_TOL
) -> bool:
    """Uniform-grid criterion over k steps; powers above n - 1 are redundant."""
    if sys.scale.tag != TAG_H_GRID:
        raise WrongScaleTag("criterion applies to h_grid-tagged scales")
    if k < 1:
        raise EmptyWindow("need at least one step")
    sys.scale.snap(t0)
    sys.scale.snap(t0 + k * sys.scale.h)
    blocks = min(k, sys.n)
    M = homogeneous_block_matrix(sys.A, sys.B, sys.scale.h, blocks)
    return matrices.has_monomial_submatrix(M, tol).found


def check_pr_discrete_nonhomogeneous(
    sys: LinearSystem, t0: float, k: int, tol: float = DEFAULT_TOL
) -> bool:
    """Scattered-window criterion over k jumps with the actual graininess.

    Unlike the uniform case the block count cannot be truncated at n:
    monomial directions may only appear after more than n jumps.

    Caveat: the blocks accumulate the one-step factors forward from t0,
    whereas the reachability cone is generated by the end-anchored products
    e_A(t1, sigma(tau)) b_k.  The two give the same answer unless a factor
    at an atom realising the maximal graininess has an exact zero on its
    diagonal (a_ii == -1/mu_bar); on such degenerate windows
    ``decide_positive_reachability`` is the exact procedure.
    """
    if k < 1:
        raise EmptyWindow("need at least one jump")
    M = nonhomogeneous_block_matrix(sys, t0, k)
    return matrices.has_monomial_submatrix(M, tol).found


# -- composite analysis --------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    window: tuple
    positivity: PositivityReport
    kalman_rank: int
    accessible: bool
    reach: ReachReport | None
    decision: Decision | None


def analyze_system(sys: LinearSystem, window: tuple, tol: float = DEFAULT_TOL) -> AnalysisReport:
    """Positivity, accessibility and (for positive systems) reachability.

    The combined decision refines a failed reachability scan using the
    Kalman rank: full rank means the system is accessible but not
    positively reachable on the window, rank deficiency means it is not
    even accessible.
    """
    pos = is_positive(sys, tol)
    accessible = is_positively_accessible(sys, window, tol)
    krank = matrices.rank(kalman_matrix(sys), tol)
    reach_report = None
    decision = None
    if pos:
        reach_report = decide_positive_reachability(sys, window, tol)
        if reach_report.reachable:
            decision = Decision.POSITIVELY_REACHABLE
        elif accessible:
            decision = Decision.ACCESSIBLE_ONLY
        else:
            decision = Decision.INACCESSIBLE
    return AnalysisReport((sys.scale.snap(window[0]), sys.scale.snap(window[1])),
                          pos, krank, accessible, reach_report, decision)
