"""End-to-end benchmark of the MQO solver server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload qa-anneal --seed 1 --seconds 20 --trace 0

Launches ``repro-mqo serve`` as its own process, drives one workload
from this process for ``--seconds`` seconds, checks every answer outside
the server and prints every metric by name with its unit.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  See README.md in this directory for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Server start-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Generator lateness (p99, ms) above which a run is flagged as behind.
LATE_FLAG_MS = 50.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_times() -> List[int]:
    """Host-wide CPU tick counters (``/proc/stat``), or ``[]`` where absent."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    deltas = [b - a for a, b in zip(before, after)]
    return deltas[7] / max(1, sum(deltas[:8]))


def run_record(lateness_ms: List[float], seed: int, seconds: float) -> Dict:
    """Host, software and generator facts recorded with every run."""
    import platform
    import subprocess

    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=5, check=False
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not available)"
    from perfbench.stats import percentile

    late_p99 = percentile(lateness_ms, 0.99) if lateness_ms else 0.0
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "generator_late_ms_max": max(lateness_ms, default=0.0),
        "generator_late_ms_p99": late_p99,
        "generator_behind": late_p99 > LATE_FLAG_MS,
    }


class Pass:
    """One server lifetime: start-ups, warm-up, the measured window, shutdown."""

    def __init__(self, workload, plan, seconds: float, workdir: str, setups: int, traced: bool) -> None:
        self.workload = workload
        self.plan = plan
        self.seconds = seconds
        self.workdir = workdir
        self.setups = setups
        self.traced = traced
        self.spans_dir = os.path.join(workdir, "spans")
        self.setup_s: List[float] = []
        self.outcomes = []
        self.warmup = []
        self.quality = []
        self.start = 0.0
        self.peak_rss_mb = 0.0
        self.steal_share = 0.0
        self.stats: Tuple[Dict, Dict] = ({}, {})

    def _server(self):
        from perfbench.loadgen import ServerProcess

        # The shard tier's forkserver puts its socket under TMPDIR; keep it
        # in the checkout unless the path would pass the AF_UNIX limit.
        tmp = os.path.join(self.workdir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = {"TMPDIR": tmp} if len(tmp) <= 60 else {}
        hook = []
        if self.traced:
            os.makedirs(self.spans_dir, exist_ok=True)
            env["PERFBENCH_TRACE_DIR"] = self.spans_dir
            hook = [os.path.join(ROOT, "perfbench", "tracehook")]
        log = os.path.join(self.workdir, "server-traced.log" if self.traced else "server.log")
        return ServerProcess(ROOT, self.workload.serve_args, log, extra_pythonpath=hook, env=env)

    def run(self) -> "Pass":
        from perfbench.loadgen import run_sequential

        for attempt in range(self.setups):
            server = self._server()
            try:
                server.start()
                first = run_sequential(server.port, self.plan.warmup[:1])
                self.setup_s.append(first[0].arrived - server.spawned_at)
                if attempt == self.setups - 1:
                    self._measure(server, first)
            except BaseException:
                server.kill()
                raise
            server.stop()
        return self

    def _measure(self, server, first) -> None:
        """Warm up, run the measured window and the quality set."""
        from perfbench.loadgen import Connection, closed_loop, open_loop, run_sequential

        self.warmup = first + run_sequential(server.port, self.plan.warmup[1:])
        with Connection(server.port) as conn:
            before = conn.request("stats")["stats"]
        self.start = time.monotonic() + 0.05
        ticks = cpu_times()
        if self.workload.loop == "open":
            self.outcomes = open_loop(server.port, self.plan.jobs, self.start)
        else:
            self.outcomes = closed_loop(
                server.port, self.plan.jobs, self.workload.clients, self.start, self.seconds
            )
        with Connection(server.port) as conn:
            after = conn.request("stats")["stats"]
        self.stats = (before, after)
        self.steal_share = steal_share(ticks, cpu_times())
        self.peak_rss_mb = server.peak_rss_mb()
        if not self.traced:
            self.quality = closed_loop(
                server.port, self.plan.quality, self.workload.clients, time.monotonic(), float("inf")
            )


def end_to_end(measured: Pass) -> Tuple[Dict[str, Tuple[float, str]], Dict]:
    """The seven user-facing metrics of one pass, plus check details.

    A traced pass runs no quality set and so has no ``cost_vs_greedy``.
    """
    from perfbench.check import check_result, cost_index, greedy_costs
    from perfbench.stats import percentile, percentile_label, tail_percentile

    verdicts = [check_result(o.job.problem, o.frame) for o in measured.outcomes]
    verified = [o for o, (kind, _) in zip(measured.outcomes, verdicts) if kind == "ok"]
    other_verdicts = [check_result(o.job.problem, o.frame) for o in measured.warmup + measured.quality]
    answered = [
        o for o, (kind, _) in zip(measured.quality, other_verdicts[len(measured.warmup):]) if kind == "ok"
    ]
    # GREEDY runs only now, after the timed window.
    greedy = greedy_costs(o.job.problem for o in answered)
    arrivals = [o.arrived for o in measured.outcomes if o.arrived is not None]
    window = (max(arrivals) - measured.start) if arrivals else measured.seconds
    latencies = [o.latency_ms for o in verified]
    q = measured.workload.tail_q
    metrics = {
        "setup_s": (statistics.median(measured.setup_s), "s"),
        "throughput_jobs_s": (len(verified) / window, "jobs/s"),
        "latency_p50_ms": (percentile(latencies, 0.5) if latencies else 0.0, "ms"),
        "latency_tail_ms": (percentile(latencies, q) if latencies else 0.0, "ms"),
        "verified_share": (len(verified) / max(1, len(measured.outcomes)), "ratio"),
        "cost_vs_greedy": (
            cost_index(
                [o.frame["result"]["best_cost"] for o in answered],
                [greedy[id(o.job.problem)] for o in answered],
            )
            if answered
            else 0.0,
            "ratio",
        ),
        "peak_rss_mb": (measured.peak_rss_mb, "MB"),
    }
    if not measured.quality:
        del metrics["cost_vs_greedy"]
    supported = tail_percentile(len(latencies))
    failures: Dict[str, int] = {}
    for kind, message in verdicts + other_verdicts:
        if kind != "ok":
            failures[f"{kind}: {message}"] = failures.get(f"{kind}: {message}", 0) + 1
    details = {
        "attempted": len(measured.outcomes),
        "failed": len(measured.outcomes) - len(verified),
        "failed_share": (len(measured.outcomes) - len(verified)) / max(1, len(measured.outcomes)),
        "correct": all(kind != "wrong" for kind, _ in verdicts + other_verdicts),
        "unverified_outside_window": sum(1 for kind, _ in other_verdicts if kind != "ok"),
        "quality_jobs": len(answered),
        "failures": failures,
        "latency_tail": {
            "percentile": percentile_label(q),
            "samples": len(latencies),
            "supported_by_rule": percentile_label(supported) if supported else None,
            "supported": supported is not None and supported >= q,
        },
        "setup_s_samples": measured.setup_s,
        "cpu_steal_share": measured.steal_share,

        "lateness_ms": [(o.sent - o.due) * 1000.0 for o in measured.outcomes if o.sent],
    }
    return metrics, details


def traced_metrics(traced: Pass, with_trace: Dict, without_trace: Dict) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced pass, with its overhead over the untraced one."""
    from perfbench.layers import load_spans, metric_spec, per_layer

    spans, events = load_spans(traced.spans_dir)
    jobs = [(o.job.job_id, o.sent, o.arrived) for o in traced.outcomes if o.arrived is not None]
    values = per_layer(spans, events, jobs, traced.start, *traced.stats)
    for name in ("setup_s", "throughput_jobs_s", "latency_p50_ms"):
        values[f"overhead.{name}"] = with_trace[name][0] - without_trace[name][0]
    return {name: (float(values[name]), unit) for name, unit, _ in metric_spec()}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # A terminated benchmark still stops the servers it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    plan = workload.plan(args.seed, args.seconds)
    workdir = os.path.join(ROOT, ".perfbench", str(os.getpid()))
    os.makedirs(workdir)
    try:
        measured = Pass(workload, plan, args.seconds, workdir, SETUPS, traced=False).run()
        e2e, details = end_to_end(measured)
        metrics = e2e
        if args.trace:
            traced = Pass(workload, plan, args.seconds, workdir, 1, traced=True).run()
            traced_e2e, traced_details = end_to_end(traced)
            metrics = traced_metrics(traced, traced_e2e, e2e)
            details = {"untraced": details, "traced": traced_details}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    passes = list(details.values()) if args.trace else [details]
    record = run_record([ms for d in passes for ms in d.pop("lateness_ms")], args.seed, args.seconds)
    print(f"workload {workload.name} ({workload.loop} loop, serve {' '.join(workload.serve_args)})")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<40} {value:>14.4f} {unit}")
    if args.trace:
        print("traced pass, per layer:")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:>14.4f} {unit}")
    if record["generator_behind"]:
        print(f"  GENERATOR BEHIND: p99 lateness {record['generator_late_ms_p99']:.1f} ms > {LATE_FLAG_MS} ms")
    for d in passes:
        if d["failures"]:
            print(f"  failures: {d['failures']}")
    print(json.dumps({"run": record, "details": details}, sort_keys=True))
    print(json.dumps({
        "correct": all(d["correct"] for d in passes),
        "attempted": sum(d["attempted"] for d in passes),
        "failed": sum(d["failed"] for d in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
