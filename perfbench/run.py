"""chronos benchmark: seeded ``analyze``/``simulate`` requests through the CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scattered-400 --seed 1 --seconds 35 --trace 0

Each request is one in-process call of ``chronos.cli.main([...])`` with its
output captured.  Requests run in a closed loop: one client, one thread,
BLAS pinned to one thread, and the next request is sent when the previous
one has returned.  Every answer is checked against a reference from
``oracle.py``; a request that breaks the failure rule counts in ``failed``.

``--trace 0`` cycles through the workload's requests for ``--seconds`` and
prints the end-to-end metrics.  ``--trace 1`` replays a fixed prefix of the
requests, alternately untraced and traced (``tracer.py``), for
``--seconds`` and prints the per-layer metrics.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Times in it are scaled to a reference host speed, and stderr
shows them as measured (README.md, "Host speed").  README.md maps every
metric to the layer it measures.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up phases (generate, write, warm up) per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Probe time of ``CpuPicker`` on an idle host of the kind the bounds were set
#: on (2-vCPU shared x86 VM).  Times are reported at this host speed; see
#: ``CpuPicker.scale``.
REFERENCE_PROBE_S = 2.5e-4


@dataclass(frozen=True)
class Workload:
    name: str
    systems: int  # systems per run; the closed loop cycles through them
    traced_systems: int  # prefix of systems that --trace 1 replays
    tail_pct: float  # percentile of the per-system latencies reported as *_tail_s
    interleave: bool = False  # one round of every simulate request after each analyze


# Sized so that each system is requested several times in a 35 s run at the
# seed commit; README.md gives the reasons for each choice.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scattered-400", systems=3, traced_systems=3, tail_pct=100, interleave=True),
        Workload("real-line", systems=100, traced_systems=24, tail_pct=90),
        Workload("mixed-simulate", systems=100, traced_systems=12, tail_pct=90),
    )
}


@dataclass(frozen=True)
class Request:
    kind: str  # "analyze" | "simulate"
    system: int
    argv: tuple
    control: int = 0


def write_inputs(systems, workdir):
    """Descriptor files for every system and control; returns the request list.

    Files already there are overwritten, so repeated set-up phases rewrite the
    same files instead of creating new ones.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    requests = []
    for i, s in enumerate(systems):
        sys_path = str(workdir / f"system{i}.json")
        Path(sys_path).write_text(json.dumps(s["system"]))
        t0, t1 = s["window"]
        requests.append(Request("analyze", i, ("analyze", "--system", sys_path, "--t0", repr(t0), "--t1", repr(t1))))
        for j, control in enumerate(s["controls"]):
            ctl_path = str(workdir / f"control{i}_{j}.json")
            Path(ctl_path).write_text(json.dumps(control))
            argv = ("simulate", "--system", sys_path, "--control", ctl_path, "--output", "-")
            requests.append(Request("simulate", i, argv, j))
    return requests


def interleaved(requests):
    """Each analyze request followed by one round of every simulate request.

    Spreads a workload's cheap simulate requests over the whole cycle, so each
    system's best simulate latency comes from many moments of the run, not
    from one burst.
    """
    simulates = [r for r in requests if r.kind == "simulate"]
    return [r for a in requests if a.kind == "analyze" for r in (a, *simulates)]


class CpuPicker:
    """Keeps the client on whichever allowed CPU currently runs fastest.

    On a shared host one CPU often runs much slower than the other for
    seconds or minutes (its hardware sibling is busy).  Every ``INTERVAL``
    seconds, and never inside a timed request, each allowed CPU runs a short
    fixed probe and the client moves to the fastest one.  The probe times of
    the chosen CPUs also measure how fast the host ran during the run.
    """

    INTERVAL = 0.25

    def __init__(self):
        self.original = os.sched_getaffinity(0)
        self.cpus = sorted(self.original)
        self.last = -float("inf")
        self.probes = []  # probe seconds of the CPU chosen at each pick

    @staticmethod
    def _probe():
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            x = 0
            for i in range(5000):
                x += i * i
            best = min(best, time.perf_counter() - start)
        return best

    def pick(self):
        if time.perf_counter() - self.last < self.INTERVAL:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = self._probe()
        fastest = min(speed, key=speed.get)
        os.sched_setaffinity(0, {fastest})
        self.probes.append(speed[fastest])
        self.last = time.perf_counter()

    def scale(self):
        """Factor that takes this run's times to the reference host speed.

        The median probe time over the run measures how fast the host ran;
        other tenants of a shared host change that by up to 1.8x from one
        minute to the next, for the probe and the requests alike.
        """
        return REFERENCE_PROBE_S / statistics.median(self.probes)

    def restore(self):
        os.sched_setaffinity(0, self.original)


class Client:
    """Sends requests through ``chronos.cli.main`` and checks every answer.

    ``attempted`` and ``failures`` count distinct requests: a request sent
    several times in a run counts once, and fails when any of its answers
    breaks the failure rule.  Both therefore depend on the seed alone, not
    on how many cycles fit in the run.
    """

    def __init__(self, cli, oracle, systems, cpu):
        self.cli, self.oracle, self.systems, self.cpu = cli, oracle, systems, cpu
        self._expected = {}  # system -> reference decision
        self._endpoints = {}  # (system, control) -> reference endpoint
        self._outcome = {}  # request -> first failure reason, or None

    @property
    def attempted(self):
        return len(self._outcome)

    @property
    def failures(self):
        """(request, reason) for every distinct request that failed."""
        return [(req, reason) for req, reason in self._outcome.items() if reason is not None]

    def send(self, req):
        """Run one request; returns (seconds, exit code or None, stdout, stderr)."""
        self.cpu.pick()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(req.argv))
            except Exception as exc:  # a raising request is a failed request
                code = None
                print(f"raised {exc!r}", file=err)
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue(), err.getvalue()

    def check(self, req, code, stdout, stderr):
        """Apply the failure rule; a failing request is recorded, not raised."""
        s = self.systems[req.system]
        if code not in (0, 1):
            reason = f"exit {code}: {stderr.strip().removeprefix('chronos: error: ').split(': ')[0][:80]}"
        elif req.kind == "analyze":
            if req.system not in self._expected:
                label = s["label"]
                self._expected[req.system] = self.oracle.cone_reachable(s["system"]) if label is None else label
            reason = self.oracle.check_analyze(code, stdout, self._expected[req.system])
        else:
            key = (req.system, req.control)
            if key not in self._endpoints:
                self._endpoints[key] = self.oracle.endpoint(s["system"], s["controls"][req.control])
            reason = self.oracle.check_simulate(code, stdout, self._endpoints[key])
        if self._outcome.get(req) is None:
            self._outcome[req] = reason


def setup(modules, cpu, workload, seed, workdir):
    """Generate inputs, write descriptor files, send one warm-up request."""
    gen, oracle, cli = modules
    systems = [gen.make(workload.name, seed, i) for i in range(workload.systems)]
    requests = write_inputs(systems, workdir)
    if workload.interleave:
        requests = interleaved(requests)
    client = Client(cli, oracle, systems, cpu)
    client.send(next(r for r in requests if r.kind == "simulate"))
    return systems, requests, client


# -- end-to-end run ------------------------------------------------------------------


def closed_loop(client, requests, seconds):
    """Cycle through the requests for ``seconds``, and at least once through all.

    Returns the latencies per request kind and system.
    """
    latency = {"analyze": {}, "simulate": {}}
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or k < len(requests):
        req = requests[k % len(requests)]
        k += 1
        elapsed, *output = client.send(req)
        latency[req.kind].setdefault(req.system, []).append(elapsed)
        client.check(req, *output)
    return latency


def end_to_end(latency, tail_pct):
    """Latency metrics over systems, each system at its best latency in the run.

    Contention on a shared host only ever adds time, so a system's best
    request is its steady latency; a median over two or three requests
    would still move with the host's load.
    """
    import numpy as np  # imported late: import_modules pins BLAS threads first

    metrics = {}
    for kind, per_system in latency.items():
        best = [min(v) for v in per_system.values()]
        metrics[f"{kind}_p50_s"] = (statistics.median(best), "s")
        metrics[f"{kind}_tail_s"] = (float(np.percentile(best, tail_pct)), "s")
        metrics[f"{kind}_ops_per_s"] = (len(best) / sum(best), "1/s")
    return metrics


# -- traced run ----------------------------------------------------------------------


def replay(client, requests, tracer=None):
    """One pass over the requests; returns summed request seconds and the outputs.

    With a tracer, the spans of request ``idx`` carry ``idx`` as their request id.
    """
    total = 0.0
    outputs = []
    for idx, req in enumerate(requests):
        if tracer is not None:
            tracer.request = idx
        elapsed, *output = client.send(req)
        total += elapsed
        outputs.append((req, *output))
    return total, outputs


def traced(client, requests, seconds, window_events):
    """Alternate untraced and traced passes over ``requests`` for ``seconds``.

    Every pass sends the same requests, so counts come from the first traced
    pass and times are medians over the passes.
    """
    from tracer import Tracer

    passes, overheads = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain_s, outputs = replay(client, requests)
        tracer = Tracer()
        with tracer:
            traced_s, traced_outputs = replay(client, requests, tracer)
        for req, *output in outputs + traced_outputs:
            client.check(req, *output)
        passes.append(layer_metrics(tracer.spans, traced_outputs, window_events))
        overheads.append(traced_s / plain_s)
    metrics = {
        name: (statistics.median(p[name][0] for p in passes) if unit == "s" else value, unit)
        for name, (value, unit) in passes[0].items()
    }
    metrics["trace.overhead"] = (statistics.median(overheads), "ratio")
    metrics["fail_ratio"] = (len(client.failures) / client.attempted, "ratio")
    return metrics


def layer_metrics(spans, outputs, window_events):
    """Per-layer metrics of one traced pass, each per request of the kind that moves it."""
    kind_of = [out[0].kind for out in outputs]
    count = {"analyze": kind_of.count("analyze"), "simulate": kind_of.count("simulate")}
    count["all"] = len(kind_of)
    calls, total, own, notes = {}, {}, {}, {}
    for sp in spans:
        key = (sp.name, kind_of[sp.request])
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + sp.duration
        own[key] = own.get(key, 0.0) + sp.self_s
        if sp.note is not None:
            notes.setdefault(key, []).append(sp.note)

    def per(table, name, kind, unit):
        kinds = ("analyze", "simulate") if kind == "all" else (kind,)
        return sum(table.get((name, k), 0) for k in kinds) / count[kind], unit

    decisions = notes.get(("reach.decide", "analyze"), [])
    synth_calls = calls.get(("reach.synthesize", "analyze"), 0)
    events = sum(notes.get(("timescale.partition", "analyze"), []))
    samples = sum(notes.get(("system.simulate_request", "simulate"), []))
    out_bytes = {"analyze": 0, "simulate": 0}
    for req, _, stdout, _ in outputs:
        out_bytes[req.kind] += len(stdout.encode())
    return {
        "timescale.partition.calls": per(calls, "timescale.partition", "analyze", "count"),
        "timescale.partition.events": (events / count["analyze"], "count"),
        "timescale.events_per_window_event": (events / window_events, "ratio"),
        "timescale.partition.self_s": per(own, "timescale.partition", "analyze", "s"),
        "exponential.ts_exp.calls": per(calls, "exponential.ts_exp", "analyze", "count"),
        "exponential.ts_exp.s": per(total, "exponential.ts_exp", "analyze", "s"),
        "matrices.expm.calls": per(calls, "matrices.expm", "analyze", "count"),
        "matrices.expm.s": per(total, "matrices.expm", "analyze", "s"),
        "matrices.expm_integral.calls": per(calls, "matrices.expm_integral", "simulate", "count"),
        "matrices.monomial_index.calls": per(calls, "matrices.monomial_index", "analyze", "count"),
        "matrices.rank.calls": per(calls, "matrices.rank", "analyze", "count"),
        "system.is_positive.calls": per(calls, "system.is_positive", "analyze", "count"),
        "system.simulate_back.s": per(total, "system.simulate_back", "analyze", "s"),
        "system.simulate_request.s": per(total, "system.simulate_request", "simulate", "s"),
        "system.samples": (samples / count["simulate"], "count"),
        "reach.decide.s": per(total, "reach.decide", "analyze", "s"),
        "reach.decide.self_s": per(own, "reach.decide", "analyze", "s"),
        "reach.gram.calls": per(calls, "reach.gram", "analyze", "count"),
        "reach.gram.s": per(total, "reach.gram", "analyze", "s"),
        "reach.synthesize.calls": per(calls, "reach.synthesize", "analyze", "count"),
        "reach.synthesize.s": per(total, "reach.synthesize", "analyze", "s"),
        "reach.synthesis_useful_ratio": (
            sum(d.targets for d in decisions) / synth_calls if synth_calls else 0.0, "ratio"),
        "reach.dense_substeps": (max((d.dense_substeps for d in decisions), default=0), "count"),
        "reach.worst_residual": (max((d.worst_residual for d in decisions), default=0.0), "1"),
        "reach.positive_share": (sum(d.reachable for d in decisions) / count["analyze"], "ratio"),
        "descriptors.parse.s": per(total, "descriptors.parse", "all", "s"),
        "descriptors.report.s": per(total, "descriptors.report", "analyze", "s"),
        "descriptors.report_bytes": (out_bytes["analyze"] / count["analyze"], "bytes"),
        "descriptors.csv.s": per(total, "descriptors.csv", "simulate", "s"),
        "descriptors.csv_bytes": (out_bytes["simulate"] / count["simulate"], "bytes"),
        "cli.main.self_s": per(own, "cli.main", "all", "s"),
    }


# -- entry point ---------------------------------------------------------------------


def import_modules():
    """(gen, oracle, cli) with chronos from this checkout's ``src``; None when it is not there."""
    if not (SRC / "chronos" / "__init__.py").is_file():
        return None
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported
    sys.path[:0] = [str(SRC), str(HERE)]
    import chronos
    from chronos import cli

    if SRC not in Path(chronos.__file__).resolve().parents:
        return None
    import gen
    import oracle

    return gen, oracle, cli


def run(workload, seed, seconds, trace, workdir):
    """One run; returns the client (attempt and failure counts) and the metrics.

    Returns None when the checkout holds no chronos sources.
    """
    cpu = CpuPicker()
    try:
        cpu.pick()
        begin = time.perf_counter()
        modules = import_modules()
        import_s = time.perf_counter() - begin
        if modules is None:
            return None
        phases = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            systems, requests, client = setup(modules, cpu, workload, seed, workdir)
            phases.append(time.perf_counter() - begin)
        if trace:
            prefix = [r for r in requests if r.system < workload.traced_systems]
            window_events = sum(
                len(modules[1].events(systems[r.system]["system"]["timescale"]["components"]))
                for r in prefix
                if r.kind == "analyze"
            )
            return client, at_reference_speed(traced(client, prefix, seconds, window_events), cpu.scale())
        metrics = end_to_end(closed_loop(client, requests, seconds), workload.tail_pct)
        metrics["setup_s"] = (import_s + statistics.median(phases), "s")
    finally:
        cpu.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = at_reference_speed(metrics, cpu.scale())
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return client, metrics


def at_reference_speed(metrics, scale):
    """Times (``s``) and rates (``1/s``) at the reference host speed; the rest as measured."""
    factor = {"s": scale, "1/s": 1.0 / scale}
    print(f"perfbench: host scale {scale:.4f}; as measured: "
          + ", ".join(f"{k}={v:.6g}" for k, (v, unit) in metrics.items() if unit in factor),
          file=sys.stderr)
    return {k: (v * factor.get(unit, 1.0), unit) for k, (v, unit) in metrics.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    work = ROOT / ".bench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, workdir)
    finally:
        with contextlib.suppress(OSError):
            work.rmdir()
    if result is None:
        print(f"perfbench: no chronos sources under {SRC}", file=sys.stderr)
        return 2
    client, metrics = result

    reasons = {}
    for req, reason in client.failures:
        key = f"{req.kind}: {reason[:80]}"
        reasons[key] = reasons.get(key, 0) + 1
    for key, n in sorted(reasons.items()):
        print(f"perfbench: {n} failed {key}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
