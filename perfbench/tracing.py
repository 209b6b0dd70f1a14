"""Span wrappers installed into the server processes of the traced run.

Loaded by ``tracehook/sitecustomize.py`` at interpreter start-up.  It
wraps the public functions listed in :data:`TARGETS` so every call
records a span: name, start, end, parent span, the job ids its
arguments carry, whether it failed, and a few per-call counts.  Spans
stay in memory and each process writes its own file
(``spans-<pid>.json``) when it exits.

Clock: ``time.monotonic`` (``CLOCK_MONOTONIC``), shared by every process
on the host and by the load generator, so span intervals and client
send/arrival times can be compared directly.

This file imports nothing from the benchmark package: it runs inside the
program under test and must stay small.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_SPANS: list = []
_EVENTS: list = []
_IDS = itertools.count(1)
_LOCAL = threading.local()
_OUT_DIR = ""


def _arg(args, kwargs, index, name):
    """Positional-or-keyword argument lookup (``index`` counts ``self``)."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _job_ids_of_request(args, kwargs):
    request = args[0] if args else kwargs.get("request")
    job_id = getattr(request, "job_id", "")
    return [job_id] if job_id else None


def _job_ids_of_requests(args, kwargs):
    requests = args[0] if args else kwargs.get("requests", ())
    return [r.job_id for r in requests if getattr(r, "job_id", "")] or None


def _reads(args, kwargs, result):
    return {"reads": int(result.num_reads)}


def _fused_reads(args, kwargs, result):
    groups = _arg(args, kwargs, 1, "groups") or ()
    return {"reads": int(sum(group.num_reads for group in groups))}


def _broken(args, kwargs, result):
    return {"samples": len(result), "broken": int(sum(1 for _, broken in result if broken))}


def _decoded(args, kwargs, result):
    return {"decoded": len(result)}


def _fused_jobs(args, kwargs, result):
    return {"jobs": len(result)}


def _budget(args, kwargs, result):
    return {"budget_ms": float(_arg(args, kwargs, 2, "time_budget_ms"))}


def _execute_error(args, kwargs, result):
    return {"error": result.error is not None}


#: (span name, module, attribute path, per-call extra).  Names are the
#: per-layer metric prefixes documented in README.md.
TARGETS = (
    ("annealer.program", "repro.annealer.device", "DWaveSamplerSimulator.program_anneal", _reads),
    ("annealer.sweep", "repro.annealer.device", "DWaveSamplerSimulator.anneal_programmed", None),
    ("annealer.assemble", "repro.annealer.device", "DWaveSamplerSimulator.assemble_samples", None),
    ("annealer.fusion_sample", "repro.annealer.fusion", "FusionWindow.sample", _fused_reads),
    ("core.logical_build", "repro.core.logical", "LogicalMapping.__init__", None),
    ("core.physical_map", "repro.core.physical", "embed_logical_qubo", None),
    ("core.unembed", "repro.core.physical", "PhysicalMapping.unembed_samples", _broken),
    ("core.decode", "repro.core.logical", "LogicalMapping.solutions_from_sampleset", _decoded),
    ("core.repair", "repro.core.logical", "LogicalMapping.repair", None),
    ("embedding.build", "repro.core.pipeline", "QuantumMQO.build_embedding", None),
    ("embedding.native", "repro.embedding.native", "NativeClusteredEmbedder.embed", None),
    ("embedding.triad", "repro.embedding.triad", "TriadEmbedder.embed_clique", None),
    ("embedding.greedy", "repro.embedding.greedy", "GreedyEmbedder.embed", None),
    ("service.execute", "repro.service.batch", "execute_request", _execute_error),
    ("service.execute_fused", "repro.service.fusion", "execute_fused_requests", _fused_jobs),
    ("service.race", "repro.service.portfolio", "PortfolioScheduler.solve", _budget),
    ("service.qa_prepare", "repro.service.qa_adapter", "QuantumAnnealingSolver.prepare", None),
    ("service.qa_solve", "repro.service.qa_adapter", "QuantumAnnealingSolver.solve", None),
    ("baselines.GREEDY.solve", "repro.baselines.greedy", "GreedyConstructiveSolver.solve", _budget),
    ("baselines.CLIMB.solve", "repro.baselines.hillclimb", "IteratedHillClimbing.solve", _budget),
    ("baselines.GA.solve", "repro.baselines.genetic", "GeneticAlgorithmSolver.solve", _budget),
    ("baselines.LIN-MQO.solve", "repro.baselines.ilp_mqo", "IntegerProgrammingMQOSolver.solve", _budget),
    ("baselines.LIN-QUB.solve", "repro.baselines.ilp_qubo", "IntegerProgrammingQUBOSolver.solve", _budget),
    ("mqo.from_dict", "repro.mqo.serialization", "problem_from_dict", None),
    ("mqo.canonical_hash", "repro.mqo.problem", "MQOProblem.canonical_hash", None),
)

#: Wrapped functions whose arguments name the job(s) they serve.
_JOB_IDS = {
    "service.execute": _job_ids_of_request,
    "service.execute_fused": _job_ids_of_requests,
}


def wrap(name, fn, extra=None, job_ids=None):
    """``fn`` recording one span per call."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = getattr(_LOCAL, "top", None)
        span_id = next(_IDS)
        _LOCAL.top = span_id
        start = time.monotonic()
        result = None
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.monotonic()
            _LOCAL.top = parent
            fields = extra(args, kwargs, result) if ok and extra is not None else None
            jobs = job_ids(args, kwargs) if job_ids is not None else None
            _SPANS.append((span_id, parent, name, start, end, ok, jobs, fields))

    return traced


def _propagating_submit(original):
    """``ThreadPoolExecutor.submit`` carrying the caller's open span.

    Portfolio members and server jobs run on executor threads; without
    this their spans would lose the parent that caused them.
    """

    @functools.wraps(original)
    def submit(self, fn, /, *args, **kwargs):
        parent = getattr(_LOCAL, "top", None)
        if parent is None:
            return original(self, fn, *args, **kwargs)

        def run(*a, **k):
            _LOCAL.top = parent
            try:
                return fn(*a, **k)
            finally:
                _LOCAL.top = None

        return original(self, run, *args, **kwargs)

    return submit


def _counting_get(original):
    """Prepared-cache ``get`` counting lookups and hits."""

    @functools.wraps(original)
    def get(key):
        value = original(key)
        _EVENTS.append(("qa_prepare_lookup", value is not None, time.monotonic()))
        return value

    return get


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(out_dir):
    """Wrap every target and arrange for the spans to be written at exit."""
    global _OUT_DIR
    _OUT_DIR = out_dir
    replaced = {}
    for name, module_name, path, extra in TARGETS:
        owner, attr = _resolve(module_name, path)
        original = vars(owner).get(attr) or getattr(owner, attr)
        wrapped = wrap(name, original, extra, _JOB_IDS.get(name))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type(sys)):
            replaced[id(original)] = (original, wrapped)
    # Module-level functions are also bound by name in the modules that
    # imported them; rebind those references too.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    cache = importlib.import_module("repro.service.qa_adapter").QuantumAnnealingSolver.prepared_cache
    cache.get = _counting_get(cache.get)
    ThreadPoolExecutor.submit = _propagating_submit(ThreadPoolExecutor.submit)
    atexit.register(dump)
    # Processes started through multiprocessing leave via os._exit and
    # skip atexit; their finalizers still run.  Registered after each
    # fork because a forked child starts with an empty finalizer table.
    multiprocessing.util.register_after_fork(_AFTER_FORK, _after_fork)


class _AfterFork:
    """Anchor object for :func:`multiprocessing.util.register_after_fork`."""


_AFTER_FORK = _AfterFork()


def _after_fork(_anchor):
    del _SPANS[:]
    del _EVENTS[:]
    multiprocessing.util.Finalize(None, dump, exitpriority=100)


def dump():
    """Write this process's spans (once; no file when nothing was recorded).

    The server terminates shards that are still alive after they close
    their pipe, which is when a shard writes its spans; SIGTERM is
    ignored while writing (the server escalates to SIGKILL after two
    seconds), and the file appears under its final name only once
    complete.
    """
    if not _SPANS and not _EVENTS:
        return
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    spans, events = list(_SPANS), list(_EVENTS)
    del _SPANS[:]
    del _EVENTS[:]
    path = os.path.join(_OUT_DIR, f"spans-{os.getpid()}.json")
    with open(path + ".part", "w", encoding="utf-8") as handle:
        json.dump({"pid": os.getpid(), "spans": spans, "events": events}, handle)
    os.replace(path + ".part", path)
