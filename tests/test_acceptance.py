"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line (see conftest) and asserts its stated
runtime bound.  Criterion 2 contains one reference value (the off-diagonal
of the full-window Gram matrix on the spliced scale) that is inconsistent
with the forward-jump semantics used everywhere else in the suite; the
assertion is kept as stated and fails, rather than bending the integrator
to reproduce an inconsistent value.  See the failing message for the
computed value.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import chronos as ch
from chronos import Decision, DeltaSet, GramSpec, LinearSystem, TimeScale

import support

INTEGER = support.demo("integer").system
SPLICED = support.demo("hybrid").system
IRREGULAR = support.demo("irregular").system


class timer:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.bound, f"runtime {self.elapsed:.2f}s over {self.bound}s"


def test_acceptance_01_integer_grid_gram_reproduction():
    with timer(1.0):
        spec = GramSpec((0, 2), {0: DeltaSet.window(INTEGER.scale, 0, 2)})
        W = ch.gram(INTEGER, spec)
        np.testing.assert_allclose(W, np.eye(2), atol=1e-12)
        W_full = ch.gram_full(INTEGER, (0, 2))
        np.testing.assert_allclose(W_full, [[3.0, 3.0], [3.0, 6.0]], atol=1e-12)
        rep = ch.decide_positive_reachability(INTEGER, (0, 2))
        assert rep.decision is Decision.POSITIVELY_REACHABLE


def test_acceptance_02_spliced_scale_gram_reproduction():
    with timer(1.0):
        spec = GramSpec((0, 3), {0: DeltaSet(SPLICED.scale, ((0, 1), (2, 3)))})
        W = ch.gram(SPLICED, spec)
        np.testing.assert_allclose(W, np.diag([1.0, math.exp(-2)]), atol=1e-9)

        rep = ch.decide_positive_reachability(SPLICED, (0, 3))
        assert rep.decision is Decision.POSITIVELY_REACHABLE

        W_col = ch.gram_columns(SPLICED, (0, 3), [0])
        stated, _ = quad(lambda tau: (3 - tau) * math.exp(-2 * (3 - tau)), 1.0, 2.0)
        assert abs(W_col[0, 1] - stated) <= 1e-8, (
            f"full-window Gram off-diagonal is {W_col[0, 1]:.17g}, stated "
            f"reference {stated:.17g}; the reference corresponds to "
            f"e^(A (3 - tau)) on [1, 2), i.e. it ignores the jump factor "
            f"(I + A) at t = 2, which annihilates the first coordinate"
        )
        assert not ch.is_monomial(W_col)


def test_acceptance_03_irregular_grid_block_criterion():
    with timer(1.0):
        M3 = ch.nonhomogeneous_block_matrix(IRREGULAR, 0, 3)
        assert ch.has_monomial_submatrix(M3).found
        assert ch.check_pr_discrete_nonhomogeneous(IRREGULAR, 0, 3) is True
        assert ch.check_pr_discrete_nonhomogeneous(IRREGULAR, 0, 2) is False
        np.testing.assert_allclose(M3[:, 1], [0.5, 1.0], atol=0)
        # third column computed from the graininess sequence, then checked
        # for 2-monomiality (not for a particular printed entry)
        assert ch.monomial_index(M3[:, 2]) == 1
        M2 = ch.nonhomogeneous_block_matrix(IRREGULAR, 0, 2)
        assert not ch.has_monomial_submatrix(M2).found


def _criterion_scales():
    return [
        TimeScale.real_line(0.0, 1.0),
        TimeScale.h_grid(1.0, 0.0, 6),
        TimeScale.points([0.0, 1.0, 2.0, 4.0]),
        TimeScale.q_grid(2.0, 1, 5),
    ]


def test_acceptance_04_positivity_theorem_cross_check():
    with timer(30.0):
        rng = np.random.default_rng(404)
        scales = _criterion_scales()
        for trial in range(200):
            ts = scales[trial % len(scales)]
            n = min(int(rng.integers(1, 5)), int(min(ts.element_count(), 9)) - 1)
            A = support.decisive_random_matrix(rng, n)
            B = support.sparse_nonneg(rng, n, int(rng.integers(1, 3)))
            sys = LinearSystem(ts, A, B)
            algebraic = bool(ch.is_positive(sys, tol=1e-9))
            witness = ch.exp_nonneg_witness(sys, (ts.t_min, ts.t_max), tol=1e-9)
            assert algebraic == (witness is None), (
                f"trial {trial}: A_T test says {algebraic}, "
                f"sampling witness {witness}"
            )


def test_acceptance_05_semigroup_property():
    with timer(10.0):
        rng = np.random.default_rng(505)
        scales = _criterion_scales() + [SPLICED.scale]
        for trial in range(100):
            ts = scales[trial % len(scales)]
            n = int(rng.integers(1, 5))
            A = rng.uniform(-1.2, 1.2, size=(n, n))
            pts = support.member_points(ts)
            r, s, t = sorted(rng.choice(pts, size=3, replace=True))
            lhs = ch.ts_exp(A, ts, t, s) @ ch.ts_exp(A, ts, s, r)
            rhs = ch.ts_exp(A, ts, t, r)
            err = np.max(np.abs(lhs - rhs))
            assert err <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def _random_reachable_discrete(rng, count):
    found = []
    while len(found) < count:
        n = int(rng.integers(2, 5))
        k = int(rng.integers(n, 7))
        ts = support.random_scattered_scale(rng, k)
        sys = support.random_positive_system(rng, ts, n, m=int(rng.integers(1, 3)))
        rep = ch.decide_positive_reachability(sys, (ts.t_min, ts.t_max))
        if rep.reachable:
            found.append((sys, rep))
    return found


def test_acceptance_06_synthesis_round_trip():
    with timer(30.0):
        rng = np.random.default_rng(606)
        positives = [
            ch.decide_positive_reachability(INTEGER, (0, 2)),
            ch.decide_positive_reachability(SPLICED, (0, 3)),
            ch.decide_positive_reachability(IRREGULAR, (0, 4)),
        ]
        cases = [(INTEGER, positives[0]), (SPLICED, positives[1]), (IRREGULAR, positives[2])]
        cases += _random_reachable_discrete(rng, 50)
        for sys, rep in cases:
            assert rep.reachable
            for cert in rep.targets:
                assert cert.control.min_value() >= 0.0
                target = np.zeros(sys.n)
                target[cert.target] = 1.0
                endpoint = ch.simulate(
                    sys, np.zeros(sys.n), cert.control, rep.window[1], dense_samples=0
                ).final
                assert np.max(np.abs(endpoint - target)) <= 1e-6


def test_acceptance_07_discrete_cone_oracle_equivalence():
    with timer(30.0):
        rng = np.random.default_rng(707)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(n, 7))
            ts = support.random_scattered_scale(rng, k)
            sys = support.random_positive_system(rng, ts, n, m=int(rng.integers(1, 3)))
            window = (ts.t_min, ts.t_max)
            rep = ch.decide_positive_reachability(sys, window)
            oracle = support.cone_oracle_reachable(sys, window)
            assert rep.reachable == oracle, f"trial {trial}: decide != oracle"


def _real_line_negative(rng, n):
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
    return LinearSystem(TimeScale.real_line(0, 1), A, B)


def test_acceptance_08_real_line_criterion_equivalence():
    with timer(60.0):
        rng = np.random.default_rng(808)
        for trial in range(100):
            sys = support.real_line_positive(rng, int(rng.integers(2, 4)))
            rep = ch.decide_positive_reachability(sys, (0, 1))
            assert ch.check_pr_real_line(sys) is True
            assert rep.reachable, f"positive trial {trial} not reachable"
        for trial in range(100):
            sys = _real_line_negative(rng, int(rng.integers(2, 4)))
            rep = ch.decide_positive_reachability(sys, (0, 1))
            assert ch.check_pr_real_line(sys) is False
            assert not rep.reachable, f"negative trial {trial} reachable"


def test_acceptance_09_uniform_grid_power_truncation():
    with timer(10.0):
        rng = np.random.default_rng(909)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(n, n + 4))
            h = float(rng.choice([0.5, 1.0, 2.0]))
            ts = TimeScale.h_grid(h, 0.0, k)
            sys = support.random_positive_system(rng, ts, n, m=int(rng.integers(1, 3)))
            k_blocks = ch.has_monomial_submatrix(
                ch.homogeneous_block_matrix(sys.A, sys.B, h, k)
            ).found
            n_blocks = ch.has_monomial_submatrix(
                ch.homogeneous_block_matrix(sys.A, sys.B, h, n)
            ).found
            assert k_blocks == n_blocks, f"trial {trial}: truncation changed the answer"


def test_acceptance_10_positive_invariance():
    with timer(20.0):
        rng = np.random.default_rng(1010)
        scales = _criterion_scales() + [SPLICED.scale]
        for trial in range(100):
            ts = scales[trial % len(scales)]
            n = min(int(rng.integers(2, 5)), int(min(ts.element_count(), 9)) - 1)
            sys = support.random_positive_system(rng, ts, n, m=int(rng.integers(1, 3)))
            x0 = rng.uniform(0, 1, size=n)
            u = ch.random_nonneg_controls(sys, (ts.t_min, ts.t_max), 2, seed=trial)[1]
            traj = ch.simulate(sys, x0, u, ts.t_max)
            assert traj.min_entry() >= -1e-9, f"trial {trial}: min {traj.min_entry()}"
