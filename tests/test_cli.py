import json
import subprocess
import sys as _sys

import numpy as np
import pytest

from chronos import cli, demo_systems
from chronos.cli import main
from chronos.descriptors import jdumps, system_to_obj


@pytest.fixture()
def integer_path(tmp_path):
    path = tmp_path / "integer.json"
    path.write_text(jdumps(system_to_obj(demo_systems()["integer"].system)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_examples_flag(capsys):
    code, out, _ = run(capsys, "--examples")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"integer", "hybrid", "irregular"}
    assert obj["integer"]["system"]["A"] == [[-1, 1], [1, 0]]


def test_analyze_builtin(capsys):
    code, out, _ = run(capsys, "analyze", "--system", "integer", "--t0", "0", "--t1", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["decision"] == "positively_reachable"
    assert obj["positivity"]["positive"] is True
    assert obj["accessibility"]["kalman_rank"] == 2
    assert obj["reachability"]["gram"] == [[1, 0], [0, 1]]


def test_analyze_descriptor_file(capsys, integer_path):
    code, out, _ = run(capsys, "analyze", "--system", integer_path, "--t0", "0", "--t1", "2")
    assert code == 0
    assert json.loads(out)["decision"] == "positively_reachable"


def test_analyze_round_trip_is_bit_identical(capsys, tmp_path, integer_path):
    code, first, _ = run(capsys, "analyze", "--system", integer_path, "--t0", "0", "--t1", "2")
    assert code == 0
    echoed = tmp_path / "echoed.json"
    echoed.write_text(jdumps(json.loads(first)["system"]))
    code, second, _ = run(capsys, "analyze", "--system", str(echoed), "--t0", "0", "--t1", "2")
    assert code == 0
    assert first == second


def test_analyze_dead_input_matrix(capsys, tmp_path):
    desc = tmp_path / "dead.json"
    desc.write_text(
        json.dumps(
            {
                "timescale": {"tag": "h_grid", "h": 1, "components": [[0, 0], [1, 1], [2, 2], [3, 3]]},
                "A": [[0, 0], [1, 0]],
                "B": [[0], [0]],
            }
        )
    )
    code, out, _ = run(capsys, "analyze", "--system", str(desc), "--t0", "0", "--t1", "3")
    assert code == 1
    obj = json.loads(out)
    assert obj["accessibility"]["accessible"] is False
    assert obj["reachability"]["reachable"] is False
    assert obj["decision"] == "inaccessible"


def test_analyze_not_reachable_exits_one(capsys):
    code, out, _ = run(capsys, "analyze", "--system", "irregular", "--t0", "0", "--t1", "2")
    assert code == 1
    assert json.loads(out)["decision"] == "accessible_only"


def test_gram_modes_and_exit_codes(capsys):
    code, out, _ = run(
        capsys, "gram", "--system", "integer", "--t0", "0", "--t1", "2", "--M", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "column_gram"
    assert obj["W"] == [[1, 0], [0, 1]] and obj["monomial"] is True

    code, out, _ = run(capsys, "gram", "--system", "integer", "--t0", "0", "--t1", "2")
    assert code == 1
    obj = json.loads(out)
    assert obj["mode"] == "full_gram"
    assert obj["W"] == [[3, 3], [3, 6]] and obj["monomial"] is False

    code, out, _ = run(
        capsys,
        "gram",
        "--system",
        "hybrid",
        "--t0",
        "0",
        "--t1",
        "3",
        "--S",
        "1:[0,1)|[2,3)",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "custom_spec"
    assert obj["monomial"] is True
    assert obj["W"][0][0] == 1


def test_gram_csv_format(capsys):
    code, out, _ = run(
        capsys, "gram", "--system", "integer", "--t0", "0", "--t1", "2", "--format", "csv"
    )
    assert code == 1
    assert out.strip().splitlines() == ["3,3", "3,6"]


def test_exp_command_prints_factors(capsys):
    code, out, _ = run(capsys, "exp", "--system", "hybrid", "--t0", "0", "--t1", "3")
    assert code == 0
    obj = json.loads(out)
    assert [f["kind"] for f in obj["factors"]] == ["discrete", "continuous", "discrete"]
    assert obj["factors"][0]["mu"] == 1


def test_simulate_command(capsys, tmp_path, integer_path):
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(
        json.dumps(
            {"t0": 0, "t1": 2, "segments": [{"t": 0, "u": [1, 0]}, {"t": 1, "u": [0, 0]}]}
        )
    )
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys,
        "simulate",
        "--system",
        integer_path,
        "--control",
        str(ctrl),
        "--output",
        str(out_csv),
    )
    assert code == 0
    assert json.loads(out)["final_state"] == [0, 1]
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2" and lines[-1] == "2,0,1"


def test_simulate_wrong_channel_count_exits_two(capsys, tmp_path, integer_path):
    ctrl = tmp_path / "bad.json"
    ctrl.write_text(json.dumps({"t0": 0, "t1": 2, "segments": [{"t": 0, "u": [1]}]}))
    code, _, err = run(
        capsys, "simulate", "--system", integer_path, "--control", str(ctrl)
    )
    assert code == 2
    assert "error" in err


def test_reach_exit_codes(capsys):
    code, _, _ = run(capsys, "reach", "--system", "irregular", "--t0", "0", "--t1", "4")
    assert code == 0
    code, _, _ = run(capsys, "reach", "--system", "irregular", "--t0", "0", "--t1", "2")
    assert code == 1


def test_reach_requested_target(capsys):
    code, out, _ = run(
        capsys,
        "reach",
        "--system",
        "hybrid",
        "--t0",
        "0",
        "--t1",
        "3",
        "--target",
        "e1",
    )
    assert code == 0
    obj = json.loads(out)
    req = obj["requested_targets"][0]
    assert req["target"] == "e1"
    assert req["residual"] <= 1e-6
    assert req["endpoint"] == [1, 0]


def test_repeated_calls_share_the_parser_but_not_its_results(capsys):
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        code, out, _ = run(
            capsys, "reach", "--system", "hybrid", "--t0", "0", "--t1", "3", "--target", "e1"
        )
        assert code == 0
        assert [r["target"] for r in json.loads(out)["requested_targets"]] == ["e1"]


def test_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", "--system", str(bad), "--t0", "0", "--t1", "1")
    assert code == 2 and "error" in err


def test_window_outside_scale_exits_two(capsys):
    code, _, err = run(capsys, "analyze", "--system", "integer", "--t0", "0", "--t1", "9")
    assert code == 2 and "error" in err


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CHRONOS_TOL", "not-a-number")
    code, _, err = run(capsys, "gram", "--system", "integer", "--t0", "0", "--t1", "2")
    assert code == 2 and "CHRONOS_TOL" in err
    monkeypatch.setenv("CHRONOS_TOL", "1e-6")
    code, _, _ = run(capsys, "gram", "--system", "integer", "--t0", "0", "--t1", "2", "--M", "1")
    assert code == 0


def test_module_entry_point_runs():
    proc = subprocess.run(
        [_sys.executable, "-m", "chronos", "--examples"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "integer" in proc.stdout
