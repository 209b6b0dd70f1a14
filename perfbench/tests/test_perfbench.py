"""Tests of the benchmark's own code: statistics, spans, inputs, output check."""

from __future__ import annotations

import json
import os

import pytest

from perfbench import layers, tracing
from perfbench.check import check_result, cost_index
from perfbench.stats import covered_length, percentile, self_times, tail_percentile
from perfbench.workloads import WORKLOADS, poisson_bursts
from repro.mqo.problem import MQOProblem

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ---------------------------------------------------------------------- #
# Tail-percentile rule
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None),
        (19, None),  # p75 leaves 4 beyond
        (39, None),  # p75 leaves 9 beyond
        (40, 0.75),  # p75 leaves exactly 10 beyond
        (99, 0.75),  # p90 leaves 9 beyond
        (100, 0.9),
        (200, 0.95),
        (1000, 0.99),
        (10000, 0.999),
    ],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    for count in range(1, 3000, 7):
        q = tail_percentile(count)
        if q is None:
            continue
        samples = list(range(count))
        cut = percentile(samples, q)
        assert sum(1 for s in samples if s > cut) >= 10


def test_workload_tail_percentiles_are_fixed_ladder_steps_or_median():
    for workload in WORKLOADS.values():
        assert workload.tail_q in (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


# ---------------------------------------------------------------------- #
# Self time of nested spans
# ---------------------------------------------------------------------- #
def test_covered_length_merges_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert covered_length([], 0, 10) == 0.0
    assert covered_length([(-5, -1), (11, 12)], 0, 10) == 0.0


def test_self_times_subtract_union_of_children():
    spans = [
        {"id": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "root", "start": 1.0, "end": 4.0},
        # Overlaps its sibling (parallel portfolio member): counted once.
        {"id": "b", "parent": "root", "start": 3.0, "end": 6.0},
        {"id": "a1", "parent": "a", "start": 2.0, "end": 3.0},
        # Outlives its parent: only the part inside the parent is covered.
        {"id": "b1", "parent": "b", "start": 5.0, "end": 7.0},
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0)
    assert own["a"] == pytest.approx(3.0 - 1.0)
    assert own["b"] == pytest.approx(3.0 - 1.0)
    assert own["a1"] == pytest.approx(1.0)
    assert own["b1"] == pytest.approx(2.0)


def test_wrapped_calls_record_parent_spans():
    del tracing._SPANS[:]

    def inner():
        return 3

    traced_inner = tracing.wrap("mqo.inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    try:
        assert tracing.wrap("service.outer", outer)() == 6
        spans = {span[0]: span for span in tracing._SPANS}
    finally:
        del tracing._SPANS[:]
    names = {span[2]: span for span in spans.values()}
    assert len(spans) == 3
    outer_id = names["service.outer"][0]
    assert names["service.outer"][1] is None
    assert [s[1] for s in spans.values() if s[2] == "mqo.inner"] == [outer_id, outer_id]


def test_unattributed_time_is_latency_outside_job_spans():
    spans = [
        {"id": 1, "parent": None, "name": "service.execute", "start": 1.0, "end": 3.0,
         "ok": True, "jobs": ["job-0"], "fields": {}},
        {"id": 2, "parent": 1, "name": "annealer.sweep", "start": 1.5, "end": 2.5,
         "ok": True, "jobs": None, "fields": {}},
    ]
    layers.attribute_jobs(spans)
    assert spans[1]["jobs"] == ["job-0"]
    self_p50, unattributed = layers._outside_spans(spans, [("job-0", 0.5, 3.5)])
    assert self_p50 == pytest.approx(1000.0)
    assert unattributed == pytest.approx(1000.0)


# ---------------------------------------------------------------------- #
# Inputs are a function of the seed
# ---------------------------------------------------------------------- #
def test_arrival_schedule_repeats_per_seed_and_differs_across_seeds():
    first = poisson_bursts(7, 5.0, 5.0, 1.0, 8)
    assert first == poisson_bursts(7, 5.0, 5.0, 1.0, 8)
    assert first != poisson_bursts(8, 5.0, 5.0, 1.0, 8)
    assert first == sorted(first) and 0.0 <= first[0] and first[-1] < 5.0
    # Same offered load on every seed: 25 background jobs plus 5 bursts of 8.
    assert len(first) == len(poisson_bursts(8, 5.0, 5.0, 1.0, 8)) == 25 + 5 * 8


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_job_lists_repeat_per_seed_and_differ_across_seeds(name):
    build = WORKLOADS[name].build
    frames = lambda plan: [job.frame for job in plan.warmup + plan.jobs]  # noqa: E731
    first = build(3, 2.0)
    assert frames(first) == frames(build(3, 2.0))
    assert frames(first) != frames(build(4, 2.0))
    seeds = [job.seed for job in first.warmup + first.jobs]
    assert len(set(seeds)) == len(seeds), "distinct seeds keep coalescing out of the way"


def test_quality_set_does_not_depend_on_the_seed():
    workload = WORKLOADS["qa-anneal"]
    first, second = workload.plan(3, 2.0), workload.plan(4, 2.0)
    assert [job.frame for job in first.quality] == [job.frame for job in second.quality]
    assert len(first.quality) == workload.quality_jobs


# ---------------------------------------------------------------------- #
# Output check
# ---------------------------------------------------------------------- #
def _problem() -> MQOProblem:
    return MQOProblem([[5.0, 3.0], [4.0, 6.0]], {(0, 2): 2.0}, name="check")


def _frame(selected, cost):
    return {"type": "result", "id": "job-0", "result": {"selected_plans": selected, "best_cost": cost, "error": None}}


def test_output_check_accepts_a_correct_answer():
    problem = _problem()
    assert check_result(problem, _frame([0, 2], 7.0)) == ("ok", "")
    assert check_result(problem, _frame([1, 2], 7.0)) == ("ok", "")


def test_output_check_rejects_a_tampered_cost():
    verdict, reason = check_result(_problem(), _frame([0, 2], 6.0))
    assert verdict == "wrong" and "best_cost" in reason


@pytest.mark.parametrize("selected", [[0, 1, 2], [0], [0, 0, 2], [0, 9]])
def test_output_check_rejects_an_invalid_selection(selected):
    verdict, reason = check_result(_problem(), _frame(selected, 7.0))
    assert verdict == "wrong" and "one plan per query" in reason


def test_output_check_counts_errors_apart_from_wrong_answers():
    problem = _problem()
    assert check_result(problem, None)[0] == "error"
    assert check_result(problem, {"type": "error", "code": "queue_full", "error": "full"})[0] == "error"
    failed = {"type": "result", "result": {"error": "boom", "selected_plans": [], "best_cost": None}}
    assert check_result(problem, failed)[0] == "error"


def test_cost_index_is_one_at_greedy_quality():
    assert cost_index([10.0, -4.0], [10.0, -4.0]) == pytest.approx(1.0)
    assert cost_index([8.0], [10.0]) == pytest.approx(0.8)
    assert cost_index([0.5], [0.0]) == pytest.approx(1.5)  # |greedy| below 1 divides by 1


# ---------------------------------------------------------------------- #
# BENCHMARK.json agrees with the code
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_workloads_and_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.metric_spec()
    assert len(doc["per_layer"]) <= 128
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "throughput_jobs_s", "latency_p50_ms", "latency_tail_ms",
        "verified_share", "cost_vs_greedy", "peak_rss_mb",
    }
    setup_bound = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in doc["end_to_end"])


def test_traced_functions_match_the_reported_layers():
    assert [name for name, *_ in tracing.TARGETS] == [name for name, *_ in layers.FUNCTIONS]
