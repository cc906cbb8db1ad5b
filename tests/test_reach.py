import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

import chronos as ch
from chronos import Decision, DeltaSet, GramSpec, LinearSystem, TimeScale
from chronos.errors import (
    DenseWindow,
    EmptyM,
    NegativeTarget,
    NotMonomialGram,
    NotPositiveSystem,
    SpecOutsideWindow,
    WindowTooSmall,
    WrongScaleTag,
)

import support

INTEGER = support.demo("integer").system
SPLICED = support.demo("hybrid").system
IRREGULAR = support.demo("irregular").system


# -- Kalman test -----------------------------------------------------------------


def test_kalman_matrix_examples():
    # [B, AB] with AB = [[-1, 0], [1, 1]] by hand multiplication
    expected = np.array([[1.0, 1.0, -1.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
    np.testing.assert_allclose(ch.kalman_matrix(INTEGER), expected, atol=0)

    a_zero = LinearSystem(TimeScale.h_grid(1.0, 0.0, 3), np.zeros((2, 2)), np.eye(2))
    np.testing.assert_allclose(
        ch.kalman_matrix(a_zero), np.hstack([np.eye(2), np.zeros((2, 2))]), atol=0
    )

    b_zero = LinearSystem(TimeScale.h_grid(1.0, 0.0, 3), np.eye(2), np.zeros((2, 2)))
    assert not ch.kalman_matrix(b_zero).any()


def test_accessibility_examples():
    assert ch.is_positively_accessible(INTEGER, (0, 2))
    assert ch.is_positively_accessible(SPLICED, (0, 3))  # [B, AB] = [[1,-1],[0,1]]
    b_zero = LinearSystem(TimeScale.h_grid(1.0, 0.0, 3), np.eye(2), np.zeros((2, 1)))
    assert not ch.is_positively_accessible(b_zero, (0, 3))
    with pytest.raises(WindowTooSmall):
        ch.is_positively_accessible(INTEGER, (0, 1))


# -- Gram matrices -----------------------------------------------------------------


def test_gram_single_column_on_integer_grid_is_identity():
    spec = GramSpec((0, 2), {0: DeltaSet.window(INTEGER.scale, 0, 2)})
    np.testing.assert_allclose(ch.gram(INTEGER, spec), np.eye(2), atol=1e-12)


def test_gram_full_integer_grid():
    np.testing.assert_allclose(
        ch.gram_full(INTEGER, (0, 2)), [[3.0, 3.0], [3.0, 6.0]], atol=1e-12
    )


def test_gram_empty_sets_vanish():
    spec = GramSpec((0, 2), {0: DeltaSet.empty(INTEGER.scale)})
    assert not ch.gram(INTEGER, spec).any()
    b_zero = LinearSystem(TimeScale.h_grid(1.0, 0.0, 3), np.eye(2), np.zeros((2, 1)))
    assert not ch.gram_full(b_zero, (0, 3)).any()


def test_gram_atoms_only_certificate_on_spliced_scale():
    spec = GramSpec((0, 3), {0: DeltaSet(SPLICED.scale, ((0, 1), (2, 3)))})
    W = ch.gram(SPLICED, spec)
    np.testing.assert_allclose(W, np.diag([1.0, math.exp(-2)]), atol=1e-12)


def _spliced_dense_oracle():
    """Entrywise quadrature oracle for the [1,2) contribution on the spliced scale.

    The transition from tau in [1, 2) to 3 is the jump factor at 2 applied
    after the continuous stretch, so the integrand uses
    (I + A) e^{A (2 - tau)} b.
    """
    A, b = SPLICED.A, SPLICED.B[:, 0]
    jump = np.eye(2) + A

    def entry(i, j):
        def f(tau):
            v = jump @ ch.expm(A, 2.0 - tau) @ b
            return v[i] * v[j]

        return quad(f, 1.0, 2.0, epsabs=1e-13, epsrel=1e-13)[0]

    return np.array([[entry(i, j) for j in range(2)] for i in range(2)])


def test_gram_full_window_on_spliced_scale_against_quadrature():
    dense = _spliced_dense_oracle()
    # the jump factor annihilates the first coordinate on the dense stretch,
    # so the middle contribution is diagonal: diag(0, (1 - e^{-2})/2)
    np.testing.assert_allclose(
        dense, np.diag([0.0, (1 - math.exp(-2)) / 2]), atol=1e-12
    )
    expected = np.diag([1.0, math.exp(-2)]) + dense
    W = ch.gram_columns(SPLICED, (0, 3), [0])
    np.testing.assert_allclose(W, expected, atol=1e-9)


def test_gram_columns_all_matches_full():
    np.testing.assert_allclose(
        ch.gram_columns(INTEGER, (0, 2), [0, 1]), ch.gram_full(INTEGER, (0, 2)), atol=0
    )
    with pytest.raises(EmptyM):
        ch.gram_columns(INTEGER, (0, 2), [])


def test_gram_columns_diagonal_system_is_diagonal_positive():
    ts = TimeScale.real_line(0, 1)
    sys = LinearSystem(ts, np.diag([-1.0, -2.0]), np.array([[1.0, 0.0], [0.0, 3.0]]))
    W = ch.gram_columns(sys, (0, 1), [0, 1])
    assert ch.is_monomial(W)
    assert W[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert W[0, 0] > 0 and W[1, 1] > 0


def test_gram_spec_window_validation():
    with pytest.raises(SpecOutsideWindow):
        GramSpec((0, 1), {0: DeltaSet(INTEGER.scale, ((1, 2),))})


# -- decision procedure -----------------------------------------------------------


def test_decide_integer_grid_certificate():
    rep = ch.decide_positive_reachability(INTEGER, (0, 2))
    assert rep.decision is Decision.POSITIVELY_REACHABLE
    assert rep.spec.M == (0,)
    assert rep.spec.sets[0].pieces == ((0.0, 2.0),)
    np.testing.assert_allclose(rep.gram, np.eye(2), atol=1e-12)
    assert all(t.residual <= 1e-6 for t in rep.targets)
    assert all(t.control.min_value() >= 0.0 for t in rep.targets)


def test_decide_spliced_scale_drops_the_dense_stretch():
    rep = ch.decide_positive_reachability(SPLICED, (0, 3))
    assert rep.reachable
    assert rep.spec.sets[0].pieces == ((0.0, 1.0), (2.0, 3.0))
    np.testing.assert_allclose(rep.gram, np.diag([1.0, math.exp(-2)]), atol=1e-12)
    # the dense stretch is also a valid witness for coordinate 2 and shows
    # up in the diagnostics, but atoms win the tie-break
    kinds = {c.kind for c in rep.diagnostics[1]}
    assert kinds == {"atom", "dense"}


def test_decide_irregular_grid_short_window_fails():
    rep = ch.decide_positive_reachability(IRREGULAR, (0, 2))
    assert rep.decision is Decision.NOT_POSITIVELY_REACHABLE
    assert rep.spec is None
    assert rep.diagnostics[1] == ()


def test_decide_irregular_grid_full_window_succeeds():
    rep = ch.decide_positive_reachability(IRREGULAR, (0, 4))
    assert rep.reachable
    np.testing.assert_allclose(rep.gram, np.diag([2.0, 1.0]), atol=1e-12)


def test_decide_requires_positive_system():
    bad = LinearSystem(
        TimeScale.h_grid(1.0, 0.0, 3), np.array([[-2.0, 0.0], [0.0, 0.0]]), np.eye(2)
    )
    with pytest.raises(NotPositiveSystem):
        ch.decide_positive_reachability(bad, (0, 3))


# -- synthesis ----------------------------------------------------------------------


def test_synthesize_integer_grid_basis_target():
    rep = ch.decide_positive_reachability(INTEGER, (0, 2))
    u = ch.synthesize_control(INTEGER, rep.spec, [0.0, 1.0])
    assert u.value_at(0).tolist() == [1.0, 0.0]
    assert u.value_at(1).tolist() == [0.0, 0.0]
    final = ch.simulate(INTEGER, np.zeros(2), u, 2).final
    np.testing.assert_allclose(final, [0.0, 1.0], atol=0)


def test_synthesize_zero_target_gives_zero_control():
    rep = ch.decide_positive_reachability(INTEGER, (0, 2))
    u = ch.synthesize_control(INTEGER, rep.spec, [0.0, 0.0])
    assert u.min_value() == 0.0 and max(v.max() for v in u.values) == 0.0


def test_synthesize_spliced_scale_routes_through_the_late_atom():
    rep = ch.decide_positive_reachability(SPLICED, (0, 3))
    u = ch.synthesize_control(SPLICED, rep.spec, [1.0, 0.0])
    assert u.value_at(0).tolist() == [0.0]
    assert u.value_at(1.5).tolist() == [0.0]
    assert u.value_at(2)[0] == pytest.approx(1.0)
    final = ch.simulate(SPLICED, np.zeros(2), u, 3).final
    np.testing.assert_allclose(final, [1.0, 0.0], atol=1e-12)


def test_synthesized_certificates_are_exact_on_the_real_line():
    # the real-line systems of acceptance criterion 8: every certificate
    # holds one constant input per spec event and lands on its target
    rng = np.random.default_rng(808)
    for trial in range(100):
        sys = support.real_line_positive(rng, int(rng.integers(2, 4)))
        rep = ch.decide_positive_reachability(sys, (0, 1))
        events = {ev for k in rep.spec.M for ev in rep.spec.sets[k].events()}
        for cert in rep.targets:
            assert len(cert.control.times) == len(events), f"trial {trial}"
            endpoint = ch.simulate(sys, np.zeros(sys.n), cert.control, 1, dense_samples=0).final
            target = np.zeros(sys.n)
            target[cert.target] = 1.0
            assert np.max(np.abs(endpoint - target)) <= 1e-12, f"trial {trial}"


def test_synthesize_rejects_bad_inputs():
    rep = ch.decide_positive_reachability(INTEGER, (0, 2))
    with pytest.raises(NegativeTarget):
        ch.synthesize_control(INTEGER, rep.spec, [-1.0, 0.0])
    # both columns over [0, 2): the sampled Gram matrix is [[3, 3], [3, 6]]
    both = GramSpec((0.0, 2.0), {k: DeltaSet.window(INTEGER.scale, 0.0, 2.0) for k in (0, 1)})
    with pytest.raises(NotMonomialGram):
        ch.synthesize_control(INTEGER, both, [1.0, 0.0])


# -- specialised criteria --------------------------------------------------------------


def test_real_line_criterion_examples():
    ts = TimeScale.real_line(0, 1)
    good = LinearSystem(ts, np.diag([-1.0, -2.0]), np.array([[1.0, 0.0], [0.0, 3.0]]))
    assert ch.check_pr_real_line(good)

    coupled = LinearSystem(ts, np.array([[-1.0, 0.0], [1.0, -1.0]]), np.array([[1.0], [0.0]]))
    assert not ch.check_pr_real_line(coupled)

    mixed_b = LinearSystem(ts, np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]))
    assert not ch.check_pr_real_line(mixed_b)

    with pytest.raises(WrongScaleTag):
        ch.check_pr_real_line(INTEGER)


def test_homogeneous_criterion_examples():
    assert ch.check_pr_discrete_homogeneous(INTEGER, 0, 2)
    # zero row of B preserved by diagonal A: the first coordinate is stuck
    stuck = LinearSystem(
        TimeScale.h_grid(1.0, 0.0, 4), np.diag([-0.5, -0.5]), np.array([[0.0], [1.0]])
    )
    assert not ch.check_pr_discrete_homogeneous(stuck, 0, 4)
    with pytest.raises(WrongScaleTag):
        ch.check_pr_discrete_homogeneous(SPLICED, 0, 2)


def test_homogeneous_power_truncation_agrees():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        h = float(rng.choice([0.5, 1.0]))
        k = int(rng.integers(n, n + 4))
        ts = TimeScale.h_grid(h, 0.0, k)
        sys = support.random_positive_system(rng, ts, n, m=int(rng.integers(1, 3)))
        full = ch.matrices.has_monomial_submatrix(
            ch.homogeneous_block_matrix(sys.A, sys.B, h, k)
        ).found
        truncated = ch.matrices.has_monomial_submatrix(
            ch.homogeneous_block_matrix(sys.A, sys.B, h, n)
        ).found
        assert full == truncated


def test_nonhomogeneous_criterion_on_the_irregular_grid():
    M3 = ch.nonhomogeneous_block_matrix(IRREGULAR, 0, 3)
    np.testing.assert_allclose(M3[:, 1], [0.5, 1.0], atol=0)  # (I + mu(1) A) b
    # third column computed, not copied: must be monomial at coordinate 2
    assert ch.monomial_index(M3[:, 2]) == 1
    assert ch.check_pr_discrete_nonhomogeneous(IRREGULAR, 0, 3)
    assert not ch.check_pr_discrete_nonhomogeneous(IRREGULAR, 0, 2)
    with pytest.raises(DenseWindow):
        ch.nonhomogeneous_block_matrix(SPLICED, 0, 3)


def test_forward_blocks_can_miss_boundary_reachability():
    # a_11 sits exactly at -1/mu_bar, so the one-step factor at the
    # maximal-graininess atom has an exact zero: the end-anchored products
    # contain a monomial direction ((I + 2A) b = (0, 2)) that the
    # forward-accumulated blocks never form
    ts = TimeScale.points([0.0, 1.0, 2.0, 4.0])
    sys = LinearSystem(ts, np.array([[-0.5, 0.5], [1.0, 0.0]]), np.array([[1.0], [0.0]]))
    assert ch.is_positive(sys)
    rep = ch.decide_positive_reachability(sys, (0, 4))
    assert rep.reachable
    assert support.cone_oracle_reachable(sys, (0, 4))
    assert all(t.residual == 0.0 for t in rep.targets)  # atoms only: exact
    assert not ch.check_pr_discrete_nonhomogeneous(sys, 0, 3)


def test_nonhomogeneous_needs_more_than_n_jumps_here():
    # truncating the irregular-grid block matrix at n blocks flips the answer,
    # unlike the uniform-grid case
    assert ch.check_pr_discrete_nonhomogeneous(IRREGULAR, 0, 3)
    M2 = ch.nonhomogeneous_block_matrix(IRREGULAR, 0, 2)
    assert not ch.matrices.has_monomial_submatrix(M2).found


# -- criterion agreement ----------------------------------------------------------------


def test_decide_agrees_with_homogeneous_criterion():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        h = float(rng.choice([0.5, 1.0]))
        k = int(rng.integers(1, 6))
        ts = TimeScale.h_grid(h, 0.0, k)
        if k + 1 < n + 1:
            continue
        sys = support.random_positive_system(rng, ts, n, m=int(rng.integers(1, 3)))
        rep = ch.decide_positive_reachability(sys, (0.0, k * h))
        assert rep.reachable == ch.check_pr_discrete_homogeneous(sys, 0.0, k)


def test_decide_agrees_with_nonhomogeneous_criterion():
    # diagonals kept off the positivity boundary: at a_ii == -1/mu_bar the
    # forward-product blocks can miss directions the end-anchored transition
    # products create (see the check_pr_discrete_nonhomogeneous caveat)
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(max(2, n), 7))
        ts = support.random_scattered_scale(rng, k)
        sys = support.interior_positive_system(rng, ts, n, m=int(rng.integers(1, 3)))
        rep = ch.decide_positive_reachability(sys, (ts.t_min, ts.t_max))
        assert rep.reachable == ch.check_pr_discrete_nonhomogeneous(sys, ts.t_min, k)


def test_decide_agrees_with_cone_oracle():
    rng = np.random.default_rng(24)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(n, 7))
        ts = support.random_scattered_scale(rng, k)
        sys = support.random_positive_system(rng, ts, n, m=int(rng.integers(1, 3)))
        window = (ts.t_min, ts.t_max)
        rep = ch.decide_positive_reachability(sys, window)
        assert rep.reachable == support.cone_oracle_reachable(sys, window)


def test_decide_agrees_with_real_line_criterion():
    rng = np.random.default_rng(25)
    ts = TimeScale.real_line(0, 1)
    for trial in range(20):
        n = int(rng.integers(2, 4))
        if trial % 2 == 0:
            A = np.diag(rng.uniform(-1.5, 0.5, size=n))
            B = np.zeros((n, n))
            B[rng.permutation(n), np.arange(n)] = rng.uniform(0.2, 2.0, size=n)
        else:
            A = np.diag(rng.uniform(-1.5, 0.5, size=n))
            i, j = rng.choice(n, size=2, replace=False)
            A[i, j] = rng.uniform(0.1, 1.0)
            B = np.zeros((n, n))
            B[rng.permutation(n), np.arange(n)] = rng.uniform(0.2, 2.0, size=n)
        sys = LinearSystem(ts, A, B)
        rep = ch.decide_positive_reachability(sys, (0, 1))
        assert rep.reachable == ch.check_pr_real_line(sys)


# -- structural invariants ----------------------------------------------------------------


def test_sufficiency_ordering_forward():
    rng = np.random.default_rng(26)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(n, 6))
        ts = support.random_scattered_scale(rng, k)
        sys = support.random_positive_system(rng, ts, n, m=int(rng.integers(1, 3)))
        window = (ts.t_min, ts.t_max)
        rep = ch.decide_positive_reachability(sys, window)
        if ch.is_monomial(ch.gram_full(sys, window)):
            assert rep.reachable
        for r in range(1, sys.m + 1):
            for M in itertools.combinations(range(sys.m), r):
                if ch.is_monomial(ch.gram_columns(sys, window, M)):
                    assert rep.reachable


def test_full_gram_monomiality_is_not_necessary():
    # reachable on [0, 2] although the ordinary Gram matrix is not monomial
    rep = ch.decide_positive_reachability(INTEGER, (0, 2))
    assert rep.reachable
    assert not ch.is_monomial(ch.gram_full(INTEGER, (0, 2)))


def test_column_subset_gram_monomiality_is_not_necessary():
    # three integer steps: the late generator (I+A)^2 b_1 is mixed, so every
    # whole-window column Gram picks up off-diagonal mass, yet the window
    # remains positively reachable via time-selective sets
    ts = TimeScale.h_grid(1.0, 0.0, 3)
    sys = LinearSystem(ts, INTEGER.A, INTEGER.B)
    rep = ch.decide_positive_reachability(sys, (0, 3))
    assert rep.reachable
    for r in range(1, sys.m + 1):
        for M in itertools.combinations(range(sys.m), r):
            assert not ch.is_monomial(ch.gram_columns(sys, (0, 3), M))


def test_reachability_implies_accessibility():
    rng = np.random.default_rng(27)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(n, 7))
        ts = support.random_scattered_scale(rng, k)
        sys = support.random_positive_system(rng, ts, n, m=int(rng.integers(1, 3)))
        rep = ch.decide_positive_reachability(sys, (ts.t_min, ts.t_max))
        if rep.reachable:
            assert ch.is_positively_accessible(sys, (ts.t_min, ts.t_max))


def test_certificate_soundness_on_positive_decisions():
    rng = np.random.default_rng(28)
    checked = 0
    trials = 0
    while checked < 10 and trials < 200:
        trials += 1
        n = int(rng.integers(2, 4))
        k = int(rng.integers(n, 7))
        ts = support.random_scattered_scale(rng, k)
        sys = support.random_positive_system(rng, ts, n, m=int(rng.integers(1, 3)))
        rep = ch.decide_positive_reachability(sys, (ts.t_min, ts.t_max))
        if not rep.reachable:
            continue
        checked += 1
        assert ch.is_monomial(rep.gram)
        for cert in rep.targets:
            assert cert.control.min_value() >= 0.0
            assert cert.residual <= 1e-6
            target = np.zeros(n)
            target[cert.target] = 1.0
            endpoint = ch.simulate(sys, np.zeros(n), cert.control, rep.window[1]).final
            assert np.max(np.abs(endpoint - target)) <= 1e-6
    assert checked == 10


# -- composite analysis -------------------------------------------------------------------


def test_analyze_refines_the_decision():
    rep = ch.analyze_system(INTEGER, (0, 2))
    assert rep.decision is Decision.POSITIVELY_REACHABLE
    assert rep.accessible and rep.positivity.positive

    short = ch.analyze_system(IRREGULAR, (0, 2))
    assert short.decision is Decision.ACCESSIBLE_ONLY
    assert short.reach.decision is Decision.NOT_POSITIVELY_REACHABLE

    b_zero = LinearSystem(TimeScale.h_grid(1.0, 0.0, 3), np.zeros((2, 2)), np.zeros((2, 1)))
    dead = ch.analyze_system(b_zero, (0, 3))
    assert dead.decision is Decision.INACCESSIBLE
    assert not dead.accessible
