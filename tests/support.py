"""Shared generators and independent oracles for the test suite."""

import math

import numpy as np

import chronos as ch


def member_points(ts: ch.TimeScale, interior: int = 2) -> list:
    """Deterministic list of scale members: endpoints plus interior samples."""
    pts = set()
    for a, b in ts.components:
        pts.add(a)
        pts.add(b)
        for j in range(1, interior + 1):
            if b > a:
                pts.add(a + (b - a) * j / (interior + 1))
    return sorted(pts)


def random_scattered_scale(rng, steps: int, gap_range=(0.3, 2.0)) -> ch.TimeScale:
    gaps = rng.uniform(*gap_range, size=steps)
    pts = np.concatenate([[0.0], np.cumsum(gaps)])
    return ch.TimeScale.points(pts)


def random_mixed_scale(rng) -> ch.TimeScale:
    """Random scale mixing isolated points and intervals."""
    comps = []
    t = 0.0
    for _ in range(rng.integers(2, 5)):
        width = float(rng.choice([0.0, rng.uniform(0.4, 1.5)]))
        comps.append((t, t + width))
        t += width + rng.uniform(0.4, 1.5)
    return ch.TimeScale(tuple(comps))


def sparse_nonneg(rng, rows: int, cols: int, density: float = 0.45, lo=0.1, hi=1.5):
    M = rng.uniform(lo, hi, size=(rows, cols))
    M[rng.random((rows, cols)) > density] = 0.0
    return M


def random_positive_system(rng, scale: ch.TimeScale, n: int, m: int) -> ch.LinearSystem:
    """Positive system on the scale: A = N - I/mu_bar with N >= 0.

    Sparse N puts diagonal entries right on the positivity boundary
    (a_ii = -1/mu_bar), so one-step factors at maximal-graininess atoms can
    have exact zeros; use ``interior_positive_system`` where that
    degeneracy must be excluded.
    """
    mu_bar = scale.max_graininess()
    N = sparse_nonneg(rng, n, n)
    if mu_bar == 0.0:
        A = N - np.diag(rng.uniform(0.0, 1.5, size=n))  # Metzler
    elif math.isinf(mu_bar):
        A = N
    else:
        A = N - np.eye(n) / mu_bar
    B = sparse_nonneg(rng, n, m)
    while not B.any():
        B = sparse_nonneg(rng, n, m)
    return ch.LinearSystem(scale, A, B)


def interior_positive_system(rng, scale: ch.TimeScale, n: int, m: int) -> ch.LinearSystem:
    """Positive system with strictly positive shifted diagonal.

    Every one-step factor I + mu(t) A then has a strictly positive diagonal
    and the same zero pattern, which keeps the block-matrix criterion in
    exact agreement with the generator cone.
    """
    sys = random_positive_system(rng, scale, n, m)
    A = np.array(sys.A)
    A[np.diag_indices(n)] += rng.uniform(0.1, 0.8, size=n)
    return ch.LinearSystem(scale, A, sys.B)


def real_line_positive(rng, n: int) -> ch.LinearSystem:
    """Positively reachable system on [0, 1]: diagonal A, B with a monomial n x n part."""
    A = np.diag(rng.uniform(-1.5, 0.5, size=n))
    B = np.zeros((n, n + 1))
    B[rng.permutation(n), np.arange(n)] = rng.uniform(0.2, 2.0, size=n)
    B[:, n] = sparse_nonneg(rng, n, 1)[:, 0]
    return ch.LinearSystem(ch.TimeScale.real_line(0, 1), A, B)


def decisive_random_matrix(rng, n: int, zero_p: float = 0.35, neg_p: float = 0.3):
    """Entries are 0 or decisively signed (|entry| in [0.1, 2]).

    Keeps sampling-based positivity checks away from thresholds that a
    bounded truncation of an unbounded scale cannot resolve.
    """
    mag = rng.uniform(0.1, 2.0, size=(n, n))
    sign = np.where(rng.random((n, n)) < neg_p, -1.0, 1.0)
    M = mag * sign
    M[rng.random((n, n)) < zero_p] = 0.0
    return M


def cone_oracle_reachable(sys: ch.LinearSystem, window, tol: float = 1e-9) -> bool:
    """Brute-force generator enumeration on a purely scattered window.

    Builds every direction mu(tau) * e_A(t1, sigma(tau)) b_k by backward
    accumulation of the one-step factors and checks that each coordinate
    owns a monomial generator.  Independent of the decision procedure.
    """
    ts = sys.scale
    t0, t1 = ts.snap(window[0]), ts.snap(window[1])
    assert not ts.continuous_segments(t0, t1), "oracle needs a scattered window"
    atoms = ts.scattered_points(t0, t1)
    gens = []
    acc = np.eye(sys.n)  # e_A(t1, sigma(tau)) for the latest atom
    for tau, mu in reversed(atoms):
        for k in range(sys.m):
            gens.append(mu * (acc @ sys.B[:, k]))
        acc = acc @ (np.eye(sys.n) + mu * sys.A)
    covered = {ch.monomial_index(g, tol) for g in gens}
    return all(i in covered for i in range(sys.n))


def demo(name: str):
    return ch.demo_systems()[name]
