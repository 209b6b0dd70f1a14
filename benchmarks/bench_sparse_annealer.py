"""Sparse vs dense annealing hot path on a 512-variable Chimera QUBO.

The PR's claim: compiling QUBOs to CSR flat arrays and sweeping with
gather/CSR kernels makes the simulated annealer ≥5x faster and ≥10x
smaller in memory than the historical dense ``(n, n)`` implementation on
Chimera-shaped problems (degree ≤ 6), at equal seeds and sweeps.

Three exhibits:

* wall clock of the new sparse backend vs a faithful reimplementation
  of the pre-PR dense sampler (dense matrix, ``np.where`` Metropolis),
* compiled-problem memory: sparse arrays vs the dense coupling matrix,
* gauge-batch amortisation: the device's fused block-diagonal anneal
  vs sequentially annealing each gauge batch.

A fourth exhibit, :func:`bench_device_path`, races the device's array
programming and read-out against a faithful reimplementation of the
per-qubit dictionary path it replaced, on an embedded 36-plan instance
at 200 reads in 10 gauges: the results must be identical and the array
path at least 5x faster.

Results are persisted as JSON (``benchmark_results/sparse_annealer.json``
and ``benchmark_results/device_path.json``) so regressions are
machine-checkable; `docs/annealer.md` quotes these numbers.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np

from repro.annealer.compile import CompileCache, compile_qubo, greedy_coloring
from repro.annealer.schedule import default_schedule_for
from repro.annealer.simulated_annealing import SimulatedAnnealingSampler
from repro.chimera.topology import ChimeraGraph
from repro.qubo.random_qubo import random_chimera_qubo

NUM_SWEEPS = 64
NUM_READS = 32
SEED = 20160909
REPEATS = 5


class OldDenseSampler:
    """Faithful reimplementation of the pre-PR dense annealing hot path.

    Dense ``(n, n)`` coupling matrix, ``(num_reads, n)`` state layout,
    and the historical ``np.where``-based Metropolis step (which
    evaluates ``exp`` on every lane).  Kept here, not in the library, so
    the benchmark always races the new code against the true baseline.
    """

    def __init__(self, num_sweeps: int) -> None:
        self.num_sweeps = num_sweeps

    def sample_states(self, qubo, num_reads: int, seed) -> np.ndarray:
        """Anneal ``num_reads`` reads and return the final state matrix."""
        variables = qubo.variables
        index = {var: i for i, var in enumerate(variables)}
        n = len(variables)
        linear = np.zeros(n)
        coupling = np.zeros((n, n))
        adjacency = [[] for _ in range(n)]
        for var, weight in qubo.linear.items():
            linear[index[var]] = weight
        for (u, v), weight in qubo.quadratic.items():
            i, j = index[u], index[v]
            coupling[i, j] += weight
            coupling[j, i] += weight
            adjacency[i].append(j)
            adjacency[j].append(i)
        classes = [np.asarray(cls, dtype=int) for cls in greedy_coloring(adjacency)]
        max_abs = max(float(np.max(np.abs(linear))), float(np.max(np.abs(coupling))))
        rng = np.random.default_rng(seed)
        states = rng.integers(0, 2, size=(num_reads, n)).astype(float)
        betas = default_schedule_for(max_abs, self.num_sweeps).as_array()
        for beta in betas:
            for color_class in classes:
                local_field = linear[color_class] + states @ coupling[:, color_class]
                current = states[:, color_class]
                delta = (1.0 - 2.0 * current) * local_field
                accept = np.where(
                    delta <= 0.0, 1.0, np.exp(-beta * np.clip(delta, 0.0, 700.0))
                )
                flips = rng.random(size=current.shape) < accept
                states[:, color_class] = np.where(flips, 1.0 - current, current)
        return states


def _best_of(callable_, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def bench_sparse_annealer(benchmark, save_exhibit):
    topology = ChimeraGraph(8, 8)  # 512 qubits, degree <= 6
    qubo = random_chimera_qubo(topology.edges(), topology.qubits, seed=7)
    assert qubo.num_variables == 512

    sparse = SimulatedAnnealingSampler(
        num_sweeps=NUM_SWEEPS, compile_cache=CompileCache(maxsize=0)
    )
    old_dense = OldDenseSampler(num_sweeps=NUM_SWEEPS)

    def run_sparse():
        return sparse.sample_states(qubo, num_reads=NUM_READS, seed=SEED)

    def run_old_dense():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the old path warns on exp overflow
            return old_dense.sample_states(qubo, NUM_READS, SEED)

    run_sparse(), run_old_dense()  # warm up numpy/scipy kernels
    sparse_s = _best_of(run_sparse)
    dense_s = _best_of(run_old_dense)
    benchmark.pedantic(run_sparse, rounds=1, iterations=1)
    speedup = dense_s / sparse_s

    # Optional lane: the native numba sweep kernel (skips cleanly when
    # the optional dependency is absent, e.g. in CI).
    from repro.annealer.numba_kernels import HAVE_NUMBA

    numba_s = None
    if HAVE_NUMBA:
        native = SimulatedAnnealingSampler(
            num_sweeps=NUM_SWEEPS, backend="numba", compile_cache=CompileCache(maxsize=0)
        )

        def run_numba():
            return native.sample_states(qubo, num_reads=NUM_READS, seed=SEED)

        run_numba()  # warm up (triggers JIT compilation)
        numba_s = _best_of(run_numba)

    compiled = compile_qubo(qubo)
    dense_bytes = compiled.num_variables**2 * 8
    sparse_bytes = compiled.nbytes_sparse()
    memory_ratio = dense_bytes / sparse_bytes

    # Gauge-batch amortisation: 10 same-structure blocks fused vs looped.
    from repro.annealer.batched import BatchedAnnealer

    small_topology = ChimeraGraph(3, 3)  # service-sized problems: dispatch-bound
    blocks = [
        random_chimera_qubo(small_topology.edges(), small_topology.qubits, seed=s)
        for s in range(10)
    ]
    batched = BatchedAnnealer(num_sweeps=NUM_SWEEPS)
    looped = SimulatedAnnealingSampler(num_sweeps=NUM_SWEEPS)
    batched.sample_blocks(blocks, num_reads=4, seed=0)  # warm up

    def run_fused():
        return batched.sample_blocks(blocks, num_reads=NUM_READS, seed=SEED)

    def run_looped():
        return [looped.sample(b, num_reads=NUM_READS, seed=SEED) for b in blocks]

    fused_s = _best_of(run_fused, repeats=3)
    looped_s = _best_of(run_looped, repeats=3)

    record = {
        "variables": compiled.num_variables,
        "interactions": qubo.num_interactions,
        "num_sweeps": NUM_SWEEPS,
        "num_reads": NUM_READS,
        "sparse_ms": round(sparse_s * 1000, 2),
        "dense_ms": round(dense_s * 1000, 2),
        "speedup": round(speedup, 2),
        "sparse_bytes": sparse_bytes,
        "dense_bytes": dense_bytes,
        "memory_ratio": round(memory_ratio, 2),
        "gauge_batch_fused_ms": round(fused_s * 1000, 2),
        "gauge_batch_looped_ms": round(looped_s * 1000, 2),
        "gauge_batch_speedup": round(looped_s / fused_s, 2),
    }
    if numba_s is not None:
        record["numba_ms"] = round(numba_s * 1000, 2)
        record["numba_speedup_vs_sparse"] = round(sparse_s / numba_s, 2)
    results_dir = Path(__file__).resolve().parent.parent / "benchmark_results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "sparse_annealer.json").write_text(json.dumps(record, indent=2))

    lines = ["Sparse vs dense annealing hot path (512-variable Chimera QUBO)", ""]
    lines += [f"  {key:>22}: {value}" for key, value in record.items()]
    save_exhibit("sparse_annealer", "\n".join(lines))

    assert speedup >= 5.0, f"sparse hot path too slow vs dense baseline: {record}"
    assert memory_ratio >= 10.0, f"sparse arrays too large vs dense matrix: {record}"


# ---------------------------------------------------------------------- #
# Device path: array programming + read-out vs the dictionary path
# ---------------------------------------------------------------------- #
DEVICE_READS = 200
DEVICE_GAUGES = 10


class DictDevicePath:
    """Faithful reimplementation of the per-qubit dictionary device path.

    Programming drew one ``{qubit: +/-1}`` gauge per batch, applied it
    to an Ising dict, perturbed every field and coupling with one scalar
    normal draw each and converted back to a ``QUBOModel`` term by term;
    read-out un-gauged and re-evaluated every read as a dict.
    """

    def __init__(self, device) -> None:
        self.device = device
        self.bias = {q: float(device._static_bias[q]) for q in device.topology.qubits}

    def program(self, qubo, num_reads, num_gauges, rng):
        """``(gauges, programmed QUBOs, batch sizes)`` of one request."""
        from repro.qubo.ising import IsingModel, ising_to_qubo, qubo_to_ising

        noise = self.device.noise.programming_noise_fraction
        variables = qubo.variables
        ising = qubo_to_ising(qubo)
        scale = ising.max_abs_weight()
        sizes = self.device._batch_sizes(num_reads, num_gauges)
        gauges, programmed = [], []
        for _ in sizes:
            signs = rng.integers(0, 2, size=len(variables)) * 2 - 1
            gauge = {var: int(sign) for var, sign in zip(variables, signs)}
            h = {var: gauge[var] * value for var, value in ising.h.items()}
            j = {(u, v): gauge[u] * gauge[v] * value for (u, v), value in ising.j.items()}
            for var in h:
                h[var] += scale * self.bias.get(var, 0.0)
                if noise:
                    h[var] += scale * float(rng.normal(0.0, noise))
            if noise:
                for edge in j:
                    j[edge] += scale * float(rng.normal(0.0, noise))
            gauges.append(gauge)
            programmed.append(ising_to_qubo(IsingModel(h=h, j=j, offset=ising.offset)))
        return gauges, programmed, sizes

    @staticmethod
    def assemble(qubo, gauges, per_batch_assignments):
        """``[(assignment, energy, gauge index)]`` in read order."""
        reads = []
        for gauge_index, (gauge, assignments) in enumerate(zip(gauges, per_batch_assignments)):
            for assignment in assignments:
                original = {
                    var: value if gauge[var] == 1 else 1 - value
                    for var, value in assignment.items()
                }
                reads.append((original, qubo.energy(original), gauge_index))
        return reads


def _embedded_instance():
    """The physical QUBO of a 36-plan clique-class instance on a noisy D-Wave 2X.

    The topology is defect-free: a TRIAD clique of 36 chains does not fit
    around the default device's broken qubits.
    """
    from repro.annealer.device import DWaveSamplerSimulator
    from repro.annealer.noise import NoiseModel
    from repro.chimera.hardware import DWAVE_2X
    from repro.core.pipeline import QuantumMQO
    from repro.workloads.base import get_family

    problem = get_family("clique").build(SEED, num_queries=12, plans_per_query=3)
    device = DWaveSamplerSimulator(
        spec=DWAVE_2X,
        topology=DWAVE_2X.build_topology(perfect=True),
        noise=NoiseModel(0.005, 0.0025),
        num_sweeps=NUM_SWEEPS,
        seed=SEED,
    )
    prepared = QuantumMQO(device=device, seed=SEED).prepare(problem)
    return problem, device, prepared.physical.physical_qubo


def bench_device_path(benchmark, save_exhibit):
    problem, device, qubo = _embedded_instance()
    assert 36 <= problem.num_plans <= 48
    oracle = DictDevicePath(device)

    def run_array():
        return device.program_anneal(
            qubo, num_reads=DEVICE_READS, num_gauges=DEVICE_GAUGES, seed=np.random.default_rng(SEED)
        )

    def run_dict():
        rng = np.random.default_rng(SEED)
        return oracle.program(qubo, DEVICE_READS, DEVICE_GAUGES, rng), rng

    programmed = run_array()
    (gauges, programmed_qubos, sizes), dict_rng = run_dict()
    # Exactness: same programmed values, same random-stream position.
    assert programmed.batch_sizes == sizes
    assert programmed.rng.bit_generator.state == dict_rng.bit_generator.state
    for block, reference in zip(programmed.blocks, programmed_qubos):
        expected = compile_qubo(reference)
        assert block.linear.tobytes() == expected.linear.tobytes()
        assert block.edge_weights.tobytes() == expected.edge_weights.tobytes()
        assert block.offset == expected.offset

    # Read-out of one shared anneal: the array path consumes the state
    # matrices, the dictionary path the per-read dicts they encode.
    block_states = device.anneal_programmed(programmed)
    variables = programmed.source.variables
    per_batch = [
        [dict(zip(variables, row)) for row in states[:size].astype(int).tolist()]
        for states, size in zip(block_states, sizes)
    ]

    def assemble_array():
        return device.assemble_samples(programmed, block_states)

    def assemble_dict():
        return oracle.assemble(qubo, gauges, per_batch)

    sample_set, reads = assemble_array(), assemble_dict()
    assert len(sample_set) == len(reads) == DEVICE_READS
    for sample, (assignment, energy, gauge_index) in zip(sample_set, reads):
        assert sample.assignment == assignment
        assert sample.energy == energy
        assert sample.gauge_index == gauge_index

    program_array_s = _best_of(run_array)
    program_dict_s = _best_of(run_dict)
    assemble_array_s = _best_of(assemble_array)
    assemble_dict_s = _best_of(assemble_dict)
    benchmark.pedantic(run_array, rounds=1, iterations=1)
    array_s = program_array_s + assemble_array_s
    dict_s = program_dict_s + assemble_dict_s

    record = {
        "plans": problem.num_plans,
        "qubits": len(variables),
        "couplers": qubo.num_interactions,
        "num_reads": DEVICE_READS,
        "num_gauges": DEVICE_GAUGES,
        "program_array_ms": round(program_array_s * 1000, 2),
        "program_dict_ms": round(program_dict_s * 1000, 2),
        "assemble_array_ms": round(assemble_array_s * 1000, 2),
        "assemble_dict_ms": round(assemble_dict_s * 1000, 2),
        "speedup": round(dict_s / array_s, 2),
    }
    results_dir = Path(__file__).resolve().parent.parent / "benchmark_results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "device_path.json").write_text(json.dumps(record, indent=2))

    lines = ["Device programming + read-out: arrays vs dicts (36-plan instance)", ""]
    lines += [f"  {key:>22}: {value}" for key, value in record.items()]
    save_exhibit("device_path", "\n".join(lines))

    assert dict_s / array_s >= 5.0, f"array device path too slow vs dict path: {record}"
