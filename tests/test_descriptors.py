import csv
import io
import json
import math

import numpy as np
import pytest

import chronos as ch
from chronos import descriptors as d
from chronos.errors import ParseError

import support


def test_timescale_round_trip():
    for name in ("integer", "hybrid", "irregular"):
        ts = support.demo(name).system.scale
        obj = d.timescale_to_obj(ts)
        again = d.timescale_from_obj(obj)
        assert again == ts


def test_system_round_trip():
    sys = support.demo("integer").system
    again = d.system_from_obj(d.system_to_obj(sys))
    assert again.scale == sys.scale
    np.testing.assert_allclose(again.A, sys.A, atol=0)
    np.testing.assert_allclose(again.B, sys.B, atol=0)


def test_control_round_trip():
    u = ch.ControlSignal.from_segments(0, 2, [(0, [1.0, 0.5]), (1, [0.0, 0.25])])
    again = d.control_from_obj(d.control_to_obj(u))
    assert again.times == u.times
    assert all(np.array_equal(a, b) for a, b in zip(again.values, u.values))


def test_bad_descriptors_raise_parse_error():
    with pytest.raises(ParseError):
        d.timescale_from_obj({"tag": "custom"})
    with pytest.raises(ParseError):
        d.system_from_obj({"A": [[1]], "B": [[1]]})
    with pytest.raises(ParseError):
        d.system_from_obj(
            {"timescale": {"tag": "custom", "components": [[0, 1]]}, "A": [[1, "x"]], "B": [[1]]}
        )
    with pytest.raises(ParseError):
        d.control_from_obj({"t0": 0, "t1": 1})


def test_jdumps_17_significant_digits():
    text = d.jdumps({"x": 1 / 3, "y": [1.0, 2.5], "flag": True, "none": None})
    assert "0.33333333333333331" in text
    parsed = json.loads(text)
    assert parsed["x"] == 1 / 3
    assert parsed["flag"] is True and parsed["none"] is None


def test_jdumps_handles_infinity_as_string():
    shifted = ch.positivity_matrix(
        ch.LinearSystem(ch.TimeScale.real_line(0, 1), np.diag([-1.0, -1.0]), np.eye(2))
    )
    text = d.jdumps({"A_T": d.matrix_to_obj(shifted)})
    parsed = json.loads(text)
    assert parsed["A_T"][0][0] == "inf"
    assert parsed["A_T"][0][1] == 0


def test_jdumps_deterministic():
    sys = support.demo("hybrid").system
    rep = ch.analyze_system(sys, (0, 3))
    one = d.jdumps(d.analysis_to_obj(sys, rep))
    rep2 = ch.analyze_system(sys, (0, 3))
    two = d.jdumps(d.analysis_to_obj(sys, rep2))
    assert one == two


def test_trajectory_csv_format(tmp_path):
    sys = support.demo("integer").system
    u = ch.ControlSignal.from_segments(0, 2, [(0, [1.0, 0.0]), (1, [0.0, 0.0])])
    traj = ch.simulate(sys, np.zeros(2), u, 2)
    path = tmp_path / "traj.csv"
    with open(path, "w", newline="") as fh:
        d.write_trajectory_csv(traj, fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert lines[1] == "0,0,0"
    assert lines[-1] == "2,0,1"


def _reference_trajectory_csv(traj) -> str:
    """The csv.writer-based writer that write_trajectory_csv replaced."""

    def fmt(x):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"x{i + 1}" for i in range(traj.states.shape[1])])
    for t, x in zip(traj.times, traj.states):
        writer.writerow([fmt(float(t))] + [fmt(float(v)) for v in x])
    return buf.getvalue()


def test_trajectory_csv_matches_reference_writer():
    edge = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, math.inf, -math.inf, math.nan])
    times = np.arange(edge.size) / 3.0
    trajectories = (
        ch.Trajectory(edge, edge.reshape(-1, 1)),
        ch.Trajectory(times, np.stack([np.roll(edge, k) for k in range(4)], axis=1)),
    )
    for traj in trajectories:
        buf = io.StringIO()
        d.write_trajectory_csv(traj, buf)
        assert buf.getvalue() == _reference_trajectory_csv(traj)
    lines = _reference_trajectory_csv(trajectories[0]).splitlines()
    assert lines[:3] == ["t,x1", "-0,-0", "4.9406564584124654e-324,4.9406564584124654e-324"]
    assert lines[5:] == ["inf,inf", "-inf,-inf", "nan,nan"]


def test_reach_report_serialisation_is_one_based():
    sys = support.demo("hybrid").system
    rep = ch.decide_positive_reachability(sys, (0, 3))
    obj = d.reach_report_to_obj(rep)
    assert obj["spec"]["M"] == [1]
    assert obj["spec"]["sets"]["1"] == [[0.0, 1.0], [2.0, 3.0]]
    assert obj["targets"][0]["target"] == "e1"
    assert obj["decision"] == "positively_reachable"
    assert math.isclose(obj["gram"][1][1], math.exp(-2))
