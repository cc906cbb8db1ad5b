import math
import warnings

import numpy as np
import pytest

from chronos import (
    ControlSignal,
    LinearSystem,
    TimeScale,
    exp_nonneg_witness,
    is_positive,
    matrices,
    positivity_matrix,
    random_nonneg_controls,
    sample_positive_reachable,
    simulate,
    ts_exp,
)
from chronos.errors import DomainMismatch, NonFiniteState, NotPositiveSystem

import support

INTEGER = support.demo("integer").system
SPLICED = support.demo("hybrid").system


def test_positivity_matrix_dense_scale_puts_inf_on_diagonal():
    ts = TimeScale.real_line(0, 1)
    A = np.array([[-5.0, 2.0], [0.0, -1.0]])
    sys = LinearSystem(ts, A, np.eye(2))
    shifted = positivity_matrix(sys)
    assert shifted[0, 0] == math.inf and shifted[1, 1] == math.inf
    assert shifted[0, 1] == 2.0 and shifted[1, 0] == 0.0


def test_positivity_matrix_integer_grid_adds_identity():
    np.testing.assert_allclose(
        positivity_matrix(INTEGER), INTEGER.A + np.eye(2), atol=0
    )


def test_positivity_matrix_geometric_grid_is_a_itself():
    ts = TimeScale.q_grid(2.0, 0, 3)
    A = np.array([[-1.0, 0.5], [0.25, 0.0]])
    sys = LinearSystem(ts, A, np.ones((2, 1)))
    np.testing.assert_allclose(positivity_matrix(sys), A, atol=0)


def test_is_positive_examples():
    ts = TimeScale.real_line(0, 1)
    metzler = LinearSystem(ts, np.array([[-5.0, 2.0], [0.0, -1.0]]), np.eye(2))
    assert is_positive(metzler)

    assert is_positive(INTEGER)

    bad = LinearSystem(
        TimeScale.h_grid(1.0, 0.0, 3), np.array([[-2.0, 0.0], [0.0, 0.0]]), np.eye(2)
    )
    rep = is_positive(bad)
    assert not rep
    assert ("A_T", 0, 0, -1.0) in rep.violations

    neg_b = LinearSystem(ts, np.diag([-1.0, -1.0]), np.array([[1.0], [-0.5]]))
    rep2 = is_positive(neg_b)
    assert not rep2 and rep2.violations[0][0] == "B"


def test_exp_nonneg_witness_examples():
    assert exp_nonneg_witness(INTEGER, (0, 2)) is None

    ts = TimeScale.real_line(0, 1)
    nilp = LinearSystem(ts, np.array([[0.0, -1.0], [0.0, 0.0]]), np.eye(2))
    w = exp_nonneg_witness(nilp, (0, 1))
    assert w is not None and w.entry == (0, 1) and w.value < 0

    step = LinearSystem(
        TimeScale.h_grid(1.0, 0.0, 3), np.array([[-2.0, 0.0], [0.0, 0.0]]), np.eye(2)
    )
    w2 = exp_nonneg_witness(step, (0, 3))
    assert w2 is not None and w2.entry == (0, 0) and w2.value == pytest.approx(-1.0)


def test_simulate_homogeneous_matches_exponential():
    rng = np.random.default_rng(0)
    for sys in (INTEGER, SPLICED):
        x0 = rng.uniform(0, 1, size=sys.n)
        t1 = sys.scale.t_max
        u = ControlSignal.zero(sys.scale.t_min, t1, sys.m)
        traj = simulate(sys, x0, u, t1)
        expected = ts_exp(sys.A, sys.scale, t1, sys.scale.t_min) @ x0
        np.testing.assert_allclose(traj.final, expected, atol=1e-12)


def test_simulate_two_step_pulse_examples():
    u1 = ControlSignal.from_segments(0, 2, [(0, [1.0, 0.0]), (1, [0.0, 0.0])])
    traj = simulate(INTEGER, np.zeros(2), u1, 2)
    np.testing.assert_allclose(traj.final, [0.0, 1.0], atol=0)

    u2 = ControlSignal.from_segments(0, 2, [(0, [0.0, 0.0]), (1, [1.0, 0.0])])
    traj2 = simulate(INTEGER, np.zeros(2), u2, 2)
    np.testing.assert_allclose(traj2.final, [1.0, 0.0], atol=0)


def test_simulate_records_one_step_law():
    u = ControlSignal.from_segments(0, 4, [(0, [0.3]), (2, [0.8])])
    sys = support.demo("irregular").system
    traj = simulate(sys, np.array([0.5, 0.25]), u, 4)
    ts = sys.scale
    by_time = dict(zip(traj.times, traj.states))
    for t, mu in ts.scattered_points(0, 4):
        x = by_time[t]
        expected = x + mu * (sys.A @ x + sys.B @ u.value_at(t))
        np.testing.assert_allclose(by_time[ts.sigma(t)], expected, atol=0)


def test_simulate_dimension_checks():
    u = ControlSignal.zero(0, 2, 1)  # wrong m
    with pytest.raises(DomainMismatch):
        simulate(INTEGER, np.zeros(2), u, 2)
    u2 = ControlSignal.zero(0, 2, 2)
    with pytest.raises(DomainMismatch):
        simulate(INTEGER, np.zeros(3), u2, 2)
    with pytest.raises(NonFiniteState):
        simulate(INTEGER, np.array([np.nan, 0.0]), u2, 2)
    with pytest.raises(DomainMismatch):
        u3 = ControlSignal.from_segments(0, 2, [(0, [0.0, 0.0]), (0.5, [1.0, 1.0])])
        simulate(INTEGER, np.zeros(2), u3, 2)  # switch time off the scale


def test_simulate_names_first_non_finite_sample():
    atoms = LinearSystem(TimeScale.h_grid(1.0, 0.0, 3), np.array([[10.0]]), np.zeros((1, 1)))
    # 32 samples of length 5/32 on [0, 5]: the 16th one overflows, mid-segment
    dense = LinearSystem(
        TimeScale.real_line(0, 5), np.array([[300.0, 0.0], [1.0, -1.0]]), np.zeros((2, 1))
    )
    cases = ((atoms, [1e306], 3, r"3\.0"), (dense, [1.0, 0.0], 5, r"2\.5"))
    for sys, x0, t1, t in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning besides the error
            with pytest.raises(NonFiniteState, match=rf"at t = {t}$"):
                simulate(sys, np.array(x0), ControlSignal.zero(0, t1, 1), t1)


def test_simulate_holds_each_input_for_its_exact_step():
    sys = LinearSystem(
        TimeScale.real_line(0, 1),
        np.array([[-1.0, 0.5], [2.0, -3.0]]),
        np.array([[1.0], [0.5]]),
    )
    u = ControlSignal.from_segments(0, 1, [(0, [1.0]), (1 / 3, [0.25]), (2 / 3, [2.0])])
    x0 = np.array([1.0, 0.5])
    x = x0
    for a, b in zip(u.times, u.times[1:] + (1.0,)):
        GB = matrices.expm_integral(sys.A, b - a) @ sys.B
        x = matrices.expm(sys.A, b - a) @ x + GB @ u.value_at(a)
    endpoint = simulate(sys, x0, u, 1, dense_samples=0).final
    assert np.max(np.abs(endpoint - x)) <= 1e-15 * np.max(np.abs(x))


def test_superposition():
    rng = np.random.default_rng(5)
    for sys in (INTEGER, SPLICED):
        t0, t1 = sys.scale.t_min, sys.scale.t_max
        u = random_nonneg_controls(sys, (t0, t1), 2, seed=42)[1]
        x0 = rng.uniform(0, 1, size=sys.n)
        full = simulate(sys, x0, u, t1).final
        drift = simulate(sys, x0, ControlSignal.zero(t0, t1, sys.m), t1).final
        forced = simulate(sys, np.zeros(sys.n), u, t1).final
        np.testing.assert_allclose(full, drift + forced, atol=1e-9)


def test_discrete_consistency_exact():
    rng = np.random.default_rng(6)
    ts = TimeScale.points([0.0, 0.7, 1.5, 3.1, 3.4])
    A = rng.uniform(-0.8, 0.8, size=(2, 2))
    sys = LinearSystem(ts, A, rng.uniform(0, 1, size=(2, 1)))
    times = [0.0, 0.7, 1.5, 3.1]
    u = ControlSignal(0.0, 3.4, tuple(times), tuple(rng.uniform(0, 1, (4, 1))))
    traj = simulate(sys, np.array([1.0, 2.0]), u, 3.4)
    x = np.array([1.0, 2.0])
    states = [x]
    for t, mu in ts.scattered_points(0, 3.4):
        x = x + mu * (A @ x + sys.B @ u.value_at(t))
        states.append(x)
    np.testing.assert_allclose(traj.states, states, atol=0)


def test_positive_invariance():
    rng = np.random.default_rng(12)
    scales = [
        TimeScale.real_line(0, 1.5),
        TimeScale.h_grid(1.0, 0.0, 4),
        TimeScale(((0.0, 0.0), (1.0, 2.0), (3.0, 3.0))),
    ]
    for trial in range(30):
        ts = scales[trial % len(scales)]
        sys = support.random_positive_system(rng, ts, n=3, m=2)
        x0 = rng.uniform(0, 1, size=3)
        u = random_nonneg_controls(sys, (ts.t_min, ts.t_max), 2, seed=trial)[1]
        traj = simulate(sys, x0, u, ts.t_max)
        assert traj.min_entry() >= -1e-9


def test_monotone_window_inclusion_exact():
    sys = support.demo("irregular").system
    ts = sys.scale
    u = random_nonneg_controls(sys, (1.0, 4.0), 3, seed=9)[2]
    endpoint = simulate(sys, np.zeros(2), u, 4.0).final
    padded = ControlSignal(0.0, u.t1, (0.0,) + u.times, (np.zeros(sys.m),) + u.values)
    endpoint_padded = simulate(sys, np.zeros(2), padded, 4.0).final
    assert np.array_equal(endpoint, endpoint_padded)


def test_sample_positive_reachable():
    pts = sample_positive_reachable(INTEGER, (0, 2), 8, rng_seed=3)
    assert np.array_equal(pts[0], np.zeros(2))  # zero control included
    assert np.all(pts >= 0)
    again = sample_positive_reachable(INTEGER, (0, 2), 8, rng_seed=3)
    assert np.array_equal(pts, again)
    different = sample_positive_reachable(INTEGER, (0, 2), 8, rng_seed=4)
    assert not np.array_equal(pts, different)

    bad = LinearSystem(
        TimeScale.h_grid(1.0, 0.0, 3), np.array([[-2.0, 0.0], [0.0, 0.0]]), np.eye(2)
    )
    with pytest.raises(NotPositiveSystem):
        sample_positive_reachable(bad, (0, 3), 4, rng_seed=0)


def test_scale_must_have_enough_elements():
    with pytest.raises(ValueError):
        LinearSystem(TimeScale.points([0.0, 1.0]), np.eye(2), np.eye(2))
