"""Seeded workload generators, written against the wire format only.

The generators are copies of the test suite's scattered-scale,
random-positive and acceptance-08 generators (same draws in the same
order), so later edits to the tests cannot move the workloads.  They build
plain descriptor dicts and never call into ``chronos``.

Each generated system is a dict with the descriptor (``system``), the
analysis window, the controls its ``simulate`` requests use, and
``label``: the by-construction reachability answer, or ``None`` when the
reference has to decide it (see ``oracle.py``).
"""

import numpy as np

#: Atoms per scattered window.
SCATTERED_ATOMS = 400
#: The tests' default gap range for scattered scales.
GAP_RANGE = (0.3, 2.0)
#: Isolated points after each dense piece of a mixed scale (8 pieces).  The
#: counts are fixed, and only the widths and gaps are drawn, so every mixed
#: system has the same 32 events and a seed cannot shift the cost mix.
ISOLATED_POINTS = (1, 2, 3, 2, 1, 2, 3, 2)
#: Interior control switches per dense piece (as the library's sampler).
DENSE_SWITCHES = 4
#: ``simulate`` requests per mixed-scale system.
MIXED_CONTROLS = 8


def make(workload, seed, index):
    """System ``index`` of a workload.  Each system has its own stream, so a
    prefix of the list does not depend on how many systems are drawn."""
    rng = np.random.default_rng([seed, index])
    if workload == "scattered-400":
        return scattered_system(rng, constructed=index % 3 == 2)
    if workload == "real-line":
        return real_line_system(rng, reachable=index % 4 != 3, n=2 + index // 4 % 2)
    if workload == "mixed-simulate":
        return mixed_system(rng, constructed=index % 4 == 3)
    raise ValueError(f"unknown workload {workload!r}")


def _scale(components, tag="custom"):
    return {"tag": tag, "components": [[float(a), float(b)] for a, b in components]}


def _max_gap(components):
    return max(a2 - b for (_, b), (a2, _) in zip(components, components[1:]))


def _matrix(M):
    return [[float(x) for x in row] for row in np.asarray(M, dtype=float)]


def sparse_nonneg(rng, rows, cols, density=0.45, lo=0.1, hi=1.5):
    M = rng.uniform(lo, hi, size=(rows, cols))
    M[rng.random((rows, cols)) > density] = 0.0
    return M


def random_positive_matrices(rng, mu_bar, n, m):
    """A = N - I/mu_bar with sparse N >= 0 and a nonzero sparse B >= 0."""
    A = sparse_nonneg(rng, n, n) - np.eye(n) / mu_bar
    B = sparse_nonneg(rng, n, m)
    while not B.any():
        B = sparse_nonneg(rng, n, m)
    return A, B


def _control(rng, t0, t1, times, m):
    vals = rng.uniform(0.0, 1.0, size=(len(times), m))
    return {
        "t0": float(t0),
        "t1": float(t1),
        "segments": [{"t": float(t), "u": [float(v) for v in row]} for t, row in zip(times, vals)],
    }


def _system(components, A, B, tag="custom"):
    return {"timescale": _scale(components, tag), "A": _matrix(A), "B": _matrix(B)}


# -- scattered-400 ----------------------------------------------------------------


def scattered_system(rng, constructed, n=3, m=2):
    """A random positive system on a purely scattered window of 400 atoms.

    ``constructed`` appends n monomial columns to B, which makes the system
    reachable through the last atom, where e_A(t1, sigma(tau)) = I.
    """
    gaps = rng.uniform(*GAP_RANGE, size=SCATTERED_ATOMS)
    pts = np.concatenate([[0.0], np.cumsum(gaps)])
    comps = [(p, p) for p in pts]
    A, B = random_positive_matrices(rng, _max_gap(comps), n, m)
    if constructed:
        B = np.hstack([B, np.diag(rng.uniform(0.2, 2.0, size=n))])
    t1 = float(pts[-1])
    control = _control(rng, 0.0, t1, pts[:-1], B.shape[1])
    return {
        "system": _system(comps, A, B),
        "window": (0.0, t1),
        "controls": [control],
        "label": True if constructed else None,
    }


# -- real-line (acceptance 08) -----------------------------------------------------


def real_line_positive(rng, n):
    A = np.diag(rng.uniform(-1.5, 0.5, size=n))
    B = np.zeros((n, n + 1))
    B[rng.permutation(n), np.arange(n)] = rng.uniform(0.2, 2.0, size=n)
    B[:, n] = sparse_nonneg(rng, n, 1)[:, 0]
    return A, B


def real_line_negative(rng, n):
    if rng.random() < 0.5:
        # Metzler with a decisive off-diagonal coupling
        A = np.diag(rng.uniform(-1.5, 0.5, size=n))
        i, j = rng.choice(n, size=2, replace=False)
        A[i, j] = rng.uniform(0.1, 1.0)
        B = np.zeros((n, n))
        B[rng.permutation(n), np.arange(n)] = rng.uniform(0.2, 2.0, size=n)
    else:
        # diagonal A but every column of B mixes two coordinates
        A = np.diag(rng.uniform(-1.5, 0.5, size=n))
        B = np.zeros((n, n))
        for col in range(n):
            i, j = rng.choice(n, size=2, replace=False)
            B[i, col] = rng.uniform(0.2, 1.5)
            B[j, col] = rng.uniform(0.2, 1.5)
    return A, B


def real_line_system(rng, reachable, n):
    A, B = (real_line_positive if reachable else real_line_negative)(rng, n)
    times = [j / (DENSE_SWITCHES + 1) for j in range(DENSE_SWITCHES + 1)]
    return {
        "system": _system([(0.0, 1.0)], A, B, tag="real_line"),
        "window": (0.0, 1.0),
        "controls": [_control(rng, 0.0, 1.0, times, B.shape[1])],
        "label": reachable,
    }


# -- mixed-simulate -----------------------------------------------------------------


def mixed_components(rng):
    """8 dense pieces, each followed by ``ISOLATED_POINTS`` isolated points."""
    comps = []
    t = 0.0
    for points in ISOLATED_POINTS:
        width = float(rng.uniform(0.5, 1.5))
        comps.append((t, t + width))
        t += width
        for _ in range(points):
            t += float(rng.uniform(*GAP_RANGE))
            comps.append((t, t))
    return comps


def _switch_times(comps):
    """Every right-scattered point plus 4 interior points per dense piece."""
    times = set()
    for a, b in comps[:-1]:
        if b > a:
            times.add(a)
            times.update(a + (b - a) * k / (DENSE_SWITCHES + 1) for k in range(1, DENSE_SWITCHES + 1))
        times.add(b)
    return sorted(times)


def mixed_system(rng, constructed, n=3, m=2):
    """Random positive system, or diagonal A with monomial B (reachable)."""
    comps = mixed_components(rng)
    mu_bar = _max_gap(comps)
    if constructed:
        A = np.diag(rng.uniform(-0.9 / mu_bar, 0.5, size=n))
        B = np.zeros((n, n))
        B[rng.permutation(n), np.arange(n)] = rng.uniform(0.2, 2.0, size=n)
    else:
        A, B = random_positive_matrices(rng, mu_bar, n, m)
    t1 = comps[-1][1]
    times = _switch_times(comps)
    controls = [_control(rng, 0.0, t1, times, B.shape[1]) for _ in range(MIXED_CONTROLS)]
    return {
        "system": _system(comps, A, B),
        "window": (0.0, t1),
        "controls": controls,
        "label": True if constructed else None,
    }
