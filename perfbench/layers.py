"""Per-layer metrics of the traced run, from span files and server stats.

Every wrapped function (see ``tracing.TARGETS``) reports ``.calls``,
``.busy_ms`` and ``.p50_ms``; ``.p99_ms`` is kept only where a layer is
called many times per job, and functions that can fail report
``.failed``.  README.md lists every metric with its definition.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.stats import covered_length, percentile, self_times

#: (wrapped function, keep p99, report failures).  p99 is dropped for the
#: functions a job calls at most once per new instance or race member,
#: to stay within 128 per-layer metrics.
FUNCTIONS: Tuple[Tuple[str, bool, bool], ...] = (
    ("annealer.program", True, False),
    ("annealer.sweep", True, False),
    ("annealer.assemble", True, False),
    ("annealer.fusion_sample", True, False),
    ("core.logical_build", False, False),
    ("core.physical_map", False, False),
    ("core.unembed", True, False),
    ("core.decode", True, False),
    ("core.repair", True, False),
    ("embedding.build", False, True),
    ("embedding.native", False, True),
    ("embedding.triad", False, True),
    ("embedding.greedy", False, True),
    ("service.execute", True, True),
    ("service.execute_fused", True, False),
    ("service.race", True, False),
    ("service.qa_prepare", True, False),
    ("service.qa_solve", True, False),
    ("baselines.GREEDY.solve", False, False),
    ("baselines.CLIMB.solve", False, False),
    ("baselines.GA.solve", False, False),
    ("baselines.LIN-MQO.solve", False, False),
    ("baselines.LIN-QUB.solve", False, False),
    ("mqo.from_dict", True, False),
    ("mqo.canonical_hash", True, False),
)

MODULES = ("annealer", "core", "embedding", "service", "baselines", "mqo")

#: Work that caching or capacity checks should avoid: fewer calls is better.
_FEWER_CALLS_BETTER = ("core.logical_build", "core.physical_map", "core.repair", "embedding.")

#: The metrics computed beyond the per-function ones: (name, unit, better).
EXTRA_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("annealer.reads", "count", "higher"),
    ("core.unembed.broken_share", "ratio", "lower"),
    ("core.repair.per_read", "ratio", "lower"),
    ("embedding.success_ratio", "ratio", "higher"),
    ("service.execute_fused.jobs_per_call", "jobs", "higher"),
    ("service.race.overrun_ms.p50", "ms", "lower"),
    ("service.race.overrun_ms.p99", "ms", "lower"),
    ("service.qa_prepare.hit_ratio", "ratio", "higher"),
) + tuple(
    (f"baselines.{solver}.overrun_ms", "ms", "lower")
    for solver in ("GREEDY", "CLIMB", "GA", "LIN-MQO", "LIN-QUB")
) + (
    ("server.queue_wait.p50_ms", "ms", "lower"),
    ("server.queue_wait.p99_ms", "ms", "lower"),
    ("server.job_run.p50_ms", "ms", "lower"),
    ("server.job_run.p99_ms", "ms", "lower"),
    ("server.fusion.jobs_per_window", "jobs", "higher"),
    ("server.jobs_rejected", "count", "lower"),
    ("server.jobs_coalesced", "count", "lower"),
    ("server.self.p50_ms", "ms", "lower"),
) + tuple((f"{module}.self_ms", "ms", "lower") for module in MODULES) + (
    ("unattributed_ms", "ms", "lower"),
    ("overhead.setup_s", "s", "lower"),
    ("overhead.throughput_jobs_s", "jobs/s", "higher"),
    ("overhead.latency_p50_ms", "ms", "lower"),
)


def metric_spec() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    spec = []
    for name, keep_p99, can_fail in FUNCTIONS:
        calls_better = "lower" if name.startswith(_FEWER_CALLS_BETTER) else "higher"
        spec.append((f"{name}.calls", "count", calls_better))
        spec.append((f"{name}.busy_ms", "ms", "lower"))
        spec.append((f"{name}.p50_ms", "ms", "lower"))
        if keep_p99:
            spec.append((f"{name}.p99_ms", "ms", "lower"))
        if can_fail:
            spec.append((f"{name}.failed", "count", "lower"))
    return spec + list(EXTRA_METRICS)


def load_spans(directory: str) -> Tuple[List[Dict], List[Tuple[str, bool, float]]]:
    """Every span and counter event written by the traced server processes.

    Span ids are made unique across processes as ``(pid, id)``.
    """
    spans: List[Dict] = []
    events: List[Tuple[str, bool, float]] = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        pid = data["pid"]
        for span_id, parent, name, start, end, ok, jobs, fields in data["spans"]:
            spans.append({
                "id": (pid, span_id),
                "parent": (pid, parent) if parent is not None else None,
                "name": name,
                "start": start,
                "end": end,
                "ok": ok,
                "jobs": jobs,
                "fields": fields or {},
            })
        events.extend((kind, bool(value), at) for kind, value, at in data["events"])
    return spans, events


def attribute_jobs(spans: Sequence[Dict]) -> None:
    """Give every span the job ids of its nearest ancestor that names any."""
    by_id = {span["id"]: span for span in spans}

    def resolve(span: Dict) -> Optional[List[str]]:
        chain = []
        node: Optional[Dict] = span
        while node is not None and node["jobs"] is None and node["parent"] in by_id:
            chain.append(node)
            node = by_id[node["parent"]]
        jobs = node["jobs"] if node is not None else None
        for member in chain:
            member["jobs"] = jobs
        return jobs

    for span in spans:
        resolve(span)


def _fields_sum(spans: Sequence[Dict], key: str) -> float:
    return float(sum(span["fields"].get(key, 0) for span in spans))


def _overruns(spans: Sequence[Dict]) -> List[float]:
    return [
        (span["end"] - span["start"]) * 1000.0 - span["fields"]["budget_ms"]
        for span in spans
        if "budget_ms" in span["fields"]
    ]


def per_layer(
    spans: Sequence[Dict],
    events: Sequence[Tuple[str, bool, float]],
    jobs: Sequence[Tuple[str, float, float]],
    window_start: float,
    stats_before: Dict,
    stats_after: Dict,
) -> Dict[str, float]:
    """Per-layer metric values.

    ``jobs`` are the measured jobs that returned: ``(job_id, sent,
    arrived)`` on the shared monotonic clock.  Only spans that start
    inside the measured window (at or after ``window_start``) count;
    the warm-up pass has finished by then.  ``stats_before`` /
    ``stats_after`` are the server's ``stats`` snapshots around the
    window (counters are differenced; the latency percentiles are the
    server's rolling window, which includes the warm-up jobs).
    """
    attribute_jobs(spans)
    window = [span for span in spans if span["start"] >= window_start]
    by_name: Dict[str, List[Dict]] = {}
    for span in window:
        by_name.setdefault(span["name"], []).append(span)
    values: Dict[str, float] = {}
    for name, keep_p99, can_fail in FUNCTIONS:
        group = by_name.get(name, [])
        durations = [(span["end"] - span["start"]) * 1000.0 for span in group]
        values[f"{name}.calls"] = len(group)
        values[f"{name}.busy_ms"] = float(sum(durations))
        values[f"{name}.p50_ms"] = percentile(durations, 0.5) if durations else 0.0
        if keep_p99:
            values[f"{name}.p99_ms"] = percentile(durations, 0.99) if durations else 0.0
        if can_fail:
            values[f"{name}.failed"] = sum(
                1 for span in group if not span["ok"] or span["fields"].get("error")
            )

    values["annealer.reads"] = _fields_sum(by_name.get("annealer.program", []), "reads") + _fields_sum(
        by_name.get("annealer.fusion_sample", []), "reads"
    )
    unembed = by_name.get("core.unembed", [])
    samples = _fields_sum(unembed, "samples")
    values["core.unembed.broken_share"] = _fields_sum(unembed, "broken") / samples if samples else 0.0
    decoded = _fields_sum(by_name.get("core.decode", []), "decoded")
    values["core.repair.per_read"] = len(by_name.get("core.repair", [])) / decoded if decoded else 0.0
    embeds = [span for name in ("native", "triad", "greedy") for span in by_name.get(f"embedding.{name}", [])]
    values["embedding.success_ratio"] = (
        sum(1 for span in embeds if span["ok"]) / len(embeds) if embeds else 0.0
    )
    fused = by_name.get("service.execute_fused", [])
    values["service.execute_fused.jobs_per_call"] = _fields_sum(fused, "jobs") / len(fused) if fused else 0.0
    race = _overruns(by_name.get("service.race", []))
    values["service.race.overrun_ms.p50"] = percentile(race, 0.5) if race else 0.0
    values["service.race.overrun_ms.p99"] = percentile(race, 0.99) if race else 0.0
    lookups = [hit for kind, hit, at in events if kind == "qa_prepare_lookup" and at >= window_start]
    values["service.qa_prepare.hit_ratio"] = sum(lookups) / len(lookups) if lookups else 0.0
    for solver in ("GREEDY", "CLIMB", "GA", "LIN-MQO", "LIN-QUB"):
        overruns = _overruns(by_name.get(f"baselines.{solver}.solve", []))
        values[f"baselines.{solver}.overrun_ms"] = percentile(overruns, 0.5) if overruns else 0.0

    values.update(_server_metrics(stats_before, stats_after))
    values["server.self.p50_ms"], values["unattributed_ms"] = _outside_spans(window, jobs)

    own = self_times(window)
    for module in MODULES:
        values[f"{module}.self_ms"] = 1000.0 * sum(
            own[span["id"]] for span in window if span["name"].split(".", 1)[0] == module
        )
    return values


def _server_metrics(before: Dict, after: Dict) -> Dict[str, float]:
    """Queue wait, job run time and admission counters from ``stats``."""
    counters_before = before.get("counters", {})
    counters = {key: value - counters_before.get(key, 0) for key, value in after.get("counters", {}).items()}
    windows = counters.get("fusion_windows", 0)
    return {
        "server.queue_wait.p50_ms": float(after["queue_wait"]["p50_ms"]),
        "server.queue_wait.p99_ms": float(after["queue_wait"]["p99_ms"]),
        "server.job_run.p50_ms": float(after["job_run"]["p50_ms"]),
        "server.job_run.p99_ms": float(after["job_run"]["p99_ms"]),
        "server.fusion.jobs_per_window": counters.get("fusion_jobs", 0) / windows if windows else 0.0,
        "server.jobs_rejected": float(counters.get("jobs_rejected", 0)),
        "server.jobs_coalesced": float(counters.get("jobs_coalesced", 0)),
    }


def _outside_spans(window: Sequence[Dict], jobs: Sequence[Tuple[str, float, float]]) -> Tuple[float, float]:
    """Server self time (p50) and unattributed time (total), in ms.

    Server self time of a job is its client latency (send to result)
    minus the duration of the execute span that served it: protocol,
    admission, queueing, dispatch and shard IPC.  Unattributed time of
    a job is its client latency minus the union of every span that
    served it; the total over jobs is reported.
    """
    executes: Dict[str, float] = {}
    intervals: Dict[str, List[Tuple[float, float]]] = {}
    for span in window:
        for job_id in span["jobs"] or ():
            intervals.setdefault(job_id, []).append((span["start"], span["end"]))
            if span["name"] in ("service.execute", "service.execute_fused"):
                executes[job_id] = span["end"] - span["start"]
    self_ms = [
        (arrived - sent - executes[job_id]) * 1000.0
        for job_id, sent, arrived in jobs
        if job_id in executes
    ]
    unattributed = sum(
        (arrived - sent - covered_length(intervals.get(job_id, ()), sent, arrived)) * 1000.0
        for job_id, sent, arrived in jobs
    )
    return (percentile(self_ms, 0.5) if self_ms else 0.0), unattributed
