"""The benchmark's three workloads: instance pools, job lists, schedules.

Everything here is a pure function of the benchmark seed.  Job lists are
built before the clock starts and the server only ever receives the
generated problems (as wire frames).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.mqo.problem import MQOProblem
from repro.mqo.serialization import problem_to_dict
from repro.workloads.base import get_family

#: Standard-suite shapes at the sizes the D-Wave 2X can embed (36-48
#: plans); zipf, tpch_mix and chain are cut to 16 queries to fit.
EMBEDDABLE_SHAPES: Tuple[Tuple[str, Dict], ...] = (
    ("star", {"num_queries": 16, "plans_per_query": 3}),
    ("clique", {"num_queries": 12, "plans_per_query": 3}),
    ("bipartite", {"num_producers": 6, "num_consumers": 10, "plans_per_query": 3}),
    ("paper", {"num_queries": 20, "plans_per_query": 2}),
    ("clustered", {"num_clusters": 4, "queries_per_cluster": 4, "plans_per_query": 3}),
    ("zipf", {"num_queries": 16, "plans_per_query": 3}),
    ("tpch_mix", {"num_queries": 16}),
    ("chain", {"num_queries": 16, "plans_per_query": 3, "window": 2}),
)

#: Stream-suite shapes: 5 queries, 10-15 plans.
STREAM_SHAPES: Tuple[Tuple[str, Dict], ...] = (
    ("chain", {"num_queries": 5, "plans_per_query": 2}),
    ("star", {"num_queries": 5, "plans_per_query": 2}),
    ("tpch_mix", {"num_queries": 5}),
)

#: Plan-count window of the embeddable pools (48 is the TRIAD clique bound).
EMBEDDABLE_PLANS = (36, 48)


@dataclass(frozen=True)
class Job:
    """One request the load generator sends.

    ``due_s`` is the send time relative to the start of the measured
    window (open loop only; closed-loop jobs are due when their client
    is free).  ``frame`` is the encoded ``solve`` request line.
    """

    job_id: str
    problem: MQOProblem
    solver: str
    budget_ms: float
    seed: int
    due_s: float
    frame: bytes


@dataclass(frozen=True)
class Plan:
    """A workload instantiated for one seed.

    ``warmup`` runs before the clock starts, ``jobs`` is the measured
    traffic, and ``quality`` is the fixed answer-quality set (see
    :meth:`Workload.plan`).
    """

    warmup: List[Job]
    jobs: List[Job]
    quality: List[Job] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """A traffic mix plus the server configuration it runs against."""

    name: str
    why: str
    serve_args: Tuple[str, ...]
    loop: str  # "closed" or "open"
    clients: int
    #: Tail percentile reported as ``latency_tail_ms``, fixed per
    #: workload so runs stay comparable; chosen by the tail rule for the
    #: smallest job count a run is expected to reach (see README.md).
    tail_q: float
    build: Callable[[int, float], Plan]
    #: Size of the answer-quality set.
    quality_jobs: int
    #: Budget of the quality set's jobs when it differs from the traffic's.
    quality_budget_ms: Optional[float] = None

    def plan(self, seed: int, seconds: float) -> Plan:
        """Warm-up and measured jobs for ``seed``, plus the quality set.

        The quality set is the first ``quality_jobs`` measured jobs of
        :data:`REFERENCE_SEED`, whatever ``seed`` is: every run averages
        answer quality over the same jobs, so the seeded solvers make it
        repeat run to run while the traffic varies with ``seed``.
        """
        plan = self.build(seed, seconds)
        quality = self.build(REFERENCE_SEED, seconds).jobs[: self.quality_jobs]
        if self.quality_budget_ms is not None:
            quality = [
                encode_job(job.job_id, job.problem, _json(job.problem), job.solver, self.quality_budget_ms, job.seed)
                for job in quality
            ]
        return Plan(plan.warmup, plan.jobs, quality)


#: Seed of what every run shares: the instance pools of ``qa-anneal``
#: and ``stream-burst``, and the answer-quality set.
REFERENCE_SEED = 0


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    """An independent generator per (workload, seed, purpose)."""
    return random.Random(f"{workload}:{seed}:{stream}")


def build_instance(family: str, params: Dict, seed: int, plans: Tuple[int, int]) -> MQOProblem:
    """The first instance of ``family`` at or after ``seed`` whose plan count fits ``plans``."""
    source = get_family(family)
    for offset in range(1000):
        problem = source.build(seed + offset, **params)
        if plans[0] <= problem.num_plans <= plans[1]:
            return problem
    raise ValueError(f"{family} {params} never yields {plans[0]}-{plans[1]} plans")


def encode_job(
    job_id: str,
    problem: MQOProblem,
    problem_json: str,
    solver: str,
    budget_ms: float,
    seed: int,
    due_s: float = 0.0,
) -> Job:
    """Build a job together with its wire frame."""
    spec = (
        f'{{"problem":{problem_json},"solver":{json.dumps(solver)},'
        f'"time_budget_ms":{budget_ms!r},"seed":{seed},"job_id":{json.dumps(job_id)}}}'
    )
    frame = f'{{"op":"solve","id":{json.dumps(job_id)},"spec":{spec}}}\n'.encode()
    return Job(job_id, problem, solver, budget_ms, seed, due_s, frame)


def _json(problem: MQOProblem) -> str:
    return json.dumps(problem_to_dict(problem), separators=(",", ":"))


def _pool(
    workload: str, seed: int, shapes: Sequence[Tuple[str, Dict]], per_shape: int, plans: Tuple[int, int]
) -> List[Tuple[MQOProblem, str]]:
    """``per_shape`` instances of every shape with their JSON, in an order drawn from ``seed``.

    The instances themselves come from :data:`REFERENCE_SEED`: which
    instances a seed happens to draw would otherwise move the mean job
    cost by more than the benchmark's bounds.
    """
    rng = _rng(workload, REFERENCE_SEED, "pool")
    pool = []
    for family, params in shapes:
        for _ in range(per_shape):
            problem = build_instance(family, params, rng.randrange(1 << 30), plans)
            pool.append((problem, _json(problem)))
    _rng(workload, seed, "order").shuffle(pool)
    return pool


def _job_seeds(workload: str, seed: int, count: int) -> List[int]:
    """``count`` distinct solve seeds, so server coalescing never merges jobs."""
    return _rng(workload, seed, "solve").sample(range(1 << 30), count)


def poisson_bursts(
    seed: int, seconds: float, rate_per_s: float, burst_every_s: float, burst_size: int
) -> List[float]:
    """Send offsets: Poisson background plus ``burst_size`` jobs every ``burst_every_s``.

    The background is a Poisson process conditioned on its count,
    ``round(rate_per_s * seconds)`` arrivals placed uniformly at random,
    so every seed offers the same load.  Burst jobs share one due time
    (back to back); the first burst is due at ``burst_every_s / 2`` so
    the window opens on background traffic.
    """
    rng = _rng("arrivals", seed, "poisson")
    times = [rng.uniform(0.0, seconds) for _ in range(round(rate_per_s * seconds))]
    burst = burst_every_s / 2.0
    while burst < seconds:
        times.extend([burst] * burst_size)
        burst += burst_every_s
    return sorted(times)


# ---------------------------------------------------------------------- #
# qa-anneal
# ---------------------------------------------------------------------- #
QA_POOL_PER_SHAPE = 2  # 16 instances, under the 32-entry prepared cache
QA_BUDGET_MS = 250.0  # 200 reads
WARMUP_BUDGET_MS = 15.0  # the 10-read floor: compiles the instance, anneals little


def build_qa_anneal(seed: int, seconds: float) -> Plan:
    pool = _pool("qa-anneal", seed, EMBEDDABLE_SHAPES, QA_POOL_PER_SHAPE, EMBEDDABLE_PLANS)
    count = int(seconds * 8) + 32  # far above the ~2 jobs/s this mix completes
    seeds = _job_seeds("qa-anneal", seed, count + len(pool))
    warmup = [
        encode_job(f"warm-{i}", problem, text, "QA", WARMUP_BUDGET_MS, seeds[count + i])
        for i, (problem, text) in enumerate(pool)
    ]
    jobs = [
        encode_job(f"job-{i}", *pool[i % len(pool)], "QA", QA_BUDGET_MS, seeds[i])
        for i in range(count)
    ]
    return Plan(warmup, jobs)


# ---------------------------------------------------------------------- #
# stream-burst
# ---------------------------------------------------------------------- #
STREAM_POOL_PER_SHAPE = 8  # 24 instances
STREAM_BUDGET_MS = 15.0
STREAM_RATE_PER_S = 5.0  # Poisson background ...
STREAM_BURST_SIZE = 8  # ... plus 8 back-to-back jobs every second: ~13 jobs/s
STREAM_BURST_EVERY_S = 1.0
STREAM_PLANS = (10, 15)


def build_stream_burst(seed: int, seconds: float) -> Plan:
    pool = _pool("stream-burst", seed, STREAM_SHAPES, STREAM_POOL_PER_SHAPE, STREAM_PLANS)
    due = poisson_bursts(seed, seconds, STREAM_RATE_PER_S, STREAM_BURST_EVERY_S, STREAM_BURST_SIZE)
    seeds = _job_seeds("stream-burst", seed, len(due) + len(pool))
    warmup = [
        encode_job(f"warm-{i}", problem, text, "QA", STREAM_BUDGET_MS, seeds[len(due) + i])
        for i, (problem, text) in enumerate(pool)
    ]
    jobs = [
        encode_job(f"job-{i}", *pool[i % len(pool)], "QA", STREAM_BUDGET_MS, seeds[i], due_s=t)
        for i, t in enumerate(due)
    ]
    return Plan(warmup, jobs)


# ---------------------------------------------------------------------- #
# race-edge
# ---------------------------------------------------------------------- #
RACE_BUDGET_MS = 100.0
#: Races are anytime: at 100 ms, how far CLIMB and GA get depends on the
#: CPU the host grants, and so does the answer.  At 500 ms every member
#: converges and the quality set's answers repeat run to run.
RACE_QUALITY_BUDGET_MS = 500.0
RACE_WARMUP = 4  # enough distinct instances to reach both shards


def build_race_edge(seed: int, seconds: float) -> Plan:
    count = int(seconds * 4) + 16  # far above the ~1-2 races/s one client completes
    rng = _rng("race-edge", seed, "instances")
    problems = []
    for i in range(count + RACE_WARMUP):
        family, params = EMBEDDABLE_SHAPES[i % len(EMBEDDABLE_SHAPES)]
        problems.append(build_instance(family, params, rng.randrange(1 << 30), EMBEDDABLE_PLANS))
    seeds = _job_seeds("race-edge", seed, len(problems))
    encoded = [(problem, _json(problem)) for problem in problems]
    warmup = [
        encode_job(f"warm-{i}", *encoded[count + i], "portfolio", RACE_BUDGET_MS, seeds[count + i])
        for i in range(RACE_WARMUP)
    ]
    jobs = [
        encode_job(f"job-{i}", *encoded[i], "portfolio", RACE_BUDGET_MS, seeds[i])
        for i in range(count)
    ]
    return Plan(warmup, jobs)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="qa-anneal",
            why="embeddable QA jobs, 2 closed-loop clients: the device path dominates",
            serve_args=("--workers", "2"),
            loop="closed",
            clients=2,
            tail_q=0.75,
            build=build_qa_anneal,
            quality_jobs=16,
        ),
        Workload(
            name="stream-burst",
            why="open-loop tiny QA jobs in bursts on the fusion tier: queueing and protocol dominate",
            serve_args=("--workers", "2", "--fusion-window-ms", "20", "--fusion-max-jobs", "16"),
            loop="open",
            clients=1,
            tail_q=0.95,
            build=build_stream_burst,
            quality_jobs=24,
        ),
        Workload(
            name="race-edge",
            why="portfolio races on fresh instances on the shard tier: prepare, embedding and overruns",
            serve_args=("--shards", "2"),
            loop="closed",
            clients=1,
            tail_q=0.5,
            build=build_race_edge,
            quality_jobs=8,
            quality_budget_ms=RACE_QUALITY_BUDGET_MS,
        ),
    )
}
