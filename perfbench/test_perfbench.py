"""Tests of the benchmark itself: metric names, repeatable counts, tracer hygiene.

Short prefixes of each workload keep these fast.  No timing is asserted.
"""

import dataclasses
import json

import pytest

import run

run.import_modules()  # puts src/ and perfbench/ first on sys.path
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
#: Systems per workload in these tests (scattered windows cost about a second each).
SMALL = {"scattered-400": 1, "real-line": 4, "mixed-simulate": 4}
TIMINGS = ("_s", ".s", ".overhead")


def small_run(name, seed, trace, workdir):
    workload = dataclasses.replace(run.WORKLOADS[name], systems=SMALL[name], traced_systems=SMALL[name])
    return run.run(workload, seed, 0.0, trace, workdir)


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_end_to_end_metrics_present(name, tmp_path):
    client, metrics = small_run(name, 7, 0, tmp_path / "work")
    assert set(metrics) == END_TO_END
    assert client.attempted >= 2
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_counts_repeat(name, tmp_path):
    client_a, first = small_run(name, 7, 1, tmp_path / "a")
    client_b, second = small_run(name, 7, 1, tmp_path / "b")
    assert set(first) == PER_LAYER
    counts = {k for k in first if not k.endswith(TIMINGS)}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert client_a.attempted == client_b.attempted
    failed = [[(r.kind, r.system, r.control, why) for r, why in c.failures] for c in (client_a, client_b)]
    assert failed[0] == failed[1]


def test_failures_count_distinct_requests():
    """A request sent several times counts once in ``attempted`` and ``failed``."""
    client = run.Client(None, None, [{}], None)
    req = run.Request("simulate", 0, ("simulate",))
    for _ in range(3):
        client.check(req, 2, "", "chronos: error: boom")
    assert client.attempted == 1
    assert [reason for _, reason in client.failures] == ["exit 2: boom"]


def test_interleaved_spreads_simulates():
    reqs = [run.Request("analyze", 0, ()), run.Request("simulate", 0, ()),
            run.Request("analyze", 1, ()), run.Request("simulate", 1, ())]
    assert [(r.kind, r.system) for r in run.interleaved(reqs)] == [
        ("analyze", 0), ("simulate", 0), ("simulate", 1),
        ("analyze", 1), ("simulate", 0), ("simulate", 1),
    ]


def test_tracer_restores_patched_callables(tmp_path):
    from tracer import PATCHES

    before = [owner.__dict__[attr] for owner, attr, _ in PATCHES]
    small_run("real-line", 3, 1, tmp_path / "work")
    assert [owner.__dict__[attr] for owner, attr, _ in PATCHES] == before


def test_missing_sources_exit_nonzero(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "real-line", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
