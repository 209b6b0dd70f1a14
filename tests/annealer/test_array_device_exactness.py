"""Exactness of the array device path against the dictionary oracle.

The device programs gauges and noise as vectors, reads the state matrix
out with one XOR and one batched energy evaluation, and decodes matrices
all the way to the plan selection.  These tests prove that path equal to
the dictionary implementation it replaced (``tests/dict_device_oracle.py``):

* programming: the same programmed QUBO values, bit for bit, and the same
  random-stream position afterwards, on ideal and noisy devices;
* the Metropolis kernel: the same acceptance decisions and probabilities
  as the ``where=``-masked formulation, with no floating-point warnings;
* whole solves: the same per-read states, best solution and trajectory
  on one instance of every embeddable workload family, solo and through
  the service's fusion window.

Weights are dyadic rationals, so read-out energies are exact whatever
order their terms are summed in and can be compared with ``==`` too.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_device_oracle as oracle
from repro.annealer.compile import compile_qubo
from repro.annealer.device import DWaveSamplerSimulator
from repro.annealer.noise import NoiseModel
from repro.annealer.simulated_annealing import metropolis_update
from repro.baselines.anytime import SolverTrajectory
from repro.chimera.hardware import DWAVE_2X, DWaveSpec
from repro.chimera.topology import ChimeraGraph
from repro.core.pipeline import QuantumMQO
from repro.qubo.model import QUBOModel
from repro.service.fusion import execute_fused_requests
from repro.service.jobs import SolveRequest, SolveResult
from repro.service.qa_adapter import QuantumAnnealingSolver
from repro.workloads.base import get_family

SPEC = DWaveSpec(name="test-3x3", cell_rows=3, cell_cols=3, functional_qubits=70)
NOISES = {
    "ideal": NoiseModel(0.0, 0.0),
    "noisy": NoiseModel(static_bias_fraction=0.05, programming_noise_fraction=0.02),
}


def dyadic_chimera_qubo(seed: int, edge_probability: float, offset: float) -> QUBOModel:
    """A random QUBO on the 3x3 Chimera with weights in multiples of 1/8."""
    rng = np.random.default_rng(seed)
    topology = ChimeraGraph(3, 3)
    qubo = QUBOModel(offset=offset)
    for qubit in topology.qubits:
        qubo.add_linear(qubit, int(rng.integers(-16, 17)) / 8)
    for u, v in topology.edges():
        if rng.random() < edge_probability:
            qubo.add_quadratic(u, v, int(rng.integers(-16, 17)) / 8)
    return qubo


def device(noise: str, batch_gauges: bool = True) -> DWaveSamplerSimulator:
    """A 3x3 device with a perfect topology (every generated QUBO fits)."""
    return DWaveSamplerSimulator(
        spec=SPEC,
        topology=ChimeraGraph(3, 3),
        noise=NOISES[noise],
        num_sweeps=12,
        seed=4242,
        batch_gauges=batch_gauges,
    )


def bits(array: np.ndarray) -> bytes:
    """Raw bytes: equal only when every float is bit-identical (sign of 0 too)."""
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


qubo_cases = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, -3.5, 12.25]),
)


class TestProgrammingExactness:
    @settings(max_examples=25, deadline=None)
    @given(
        case=qubo_cases,
        noise=st.sampled_from(sorted(NOISES)),
        reads=st.integers(min_value=1, max_value=9),
        gauges=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_programmed_values_and_stream_match_oracle(self, case, noise, reads, gauges, seed):
        qubo = dyadic_chimera_qubo(*case)
        simulator = device(noise)
        ours = simulator.program_anneal(
            qubo, num_reads=reads, num_gauges=gauges, seed=np.random.default_rng(seed)
        )
        theirs = oracle.program_anneal(
            simulator, qubo, num_reads=reads, num_gauges=gauges, seed=np.random.default_rng(seed)
        )
        assert ours.batch_sizes == theirs.batch_sizes
        assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state
        variables = ours.source.variables
        assert variables == qubo.variables
        for factors, block, gauge, reference in zip(
            ours.gauges, ours.blocks, theirs.gauges, theirs.programmed_qubos
        ):
            assert factors.tolist() == [gauge.factor(var) for var in variables]
            expected = compile_qubo(reference)
            assert block.variables == expected.variables
            assert np.array_equal(block.structure.edges, expected.structure.edges)
            assert bits(block.linear) == bits(expected.linear)
            assert bits(block.edge_weights) == bits(expected.edge_weights)
            assert block.offset == expected.offset
            assert block.max_abs_weight == expected.max_abs_weight

    def test_non_finite_programming_raises_like_the_oracle(self):
        from repro.exceptions import QUBOError

        qubo = QUBOModel(linear={0: 1.7e308}, quadratic={(0, 4): 1.7e308})
        with pytest.raises(QUBOError):
            oracle.program_anneal(device("ideal"), qubo, num_reads=2, num_gauges=1, seed=0)
        with pytest.raises(QUBOError):
            device("ideal").program_anneal(qubo, num_reads=2, num_gauges=1, seed=0)


class TestReadoutExactness:
    @settings(max_examples=20, deadline=None)
    @given(
        case=qubo_cases,
        noise=st.sampled_from(sorted(NOISES)),
        batch_gauges=st.booleans(),
        reads=st.integers(min_value=1, max_value=9),
        gauges=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_samples_match_oracle(self, case, noise, batch_gauges, reads, gauges, seed):
        qubo = dyadic_chimera_qubo(*case)
        simulator = device(noise, batch_gauges)
        ours = simulator.sample_qubo(qubo, num_reads=reads, num_gauges=gauges, seed=seed)
        theirs = oracle.sample_qubo(simulator, qubo, num_reads=reads, num_gauges=gauges, seed=seed)
        assert len(ours) == len(theirs) == reads
        for sample, reference in zip(ours, theirs):
            assert sample.assignment == reference.assignment
            assert sample.read_index == reference.read_index
            assert sample.gauge_index == reference.gauge_index
            assert sample.energy == reference.energy


def masked_metropolis(delta, beta, uniforms):
    """The former acceptance rule: ``exp`` evaluated only where ``delta > 0``."""
    positive = delta > 0.0
    exponent = delta * -beta
    probability = np.ones_like(delta)
    np.exp(exponent, out=probability, where=positive)
    return probability, uniforms < probability


finite_deltas = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.integers(min_value=-64, max_value=64).map(lambda k: k / 4),
)


class TestMetropolisKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        deltas=st.lists(finite_deltas, min_size=6, max_size=6),
        betas=st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=3, max_size=3),
        per_row_beta=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_masked_formulation(self, deltas, betas, per_row_beta, seed):
        rng = np.random.default_rng(seed)
        delta = np.array(deltas).reshape(3, 2)
        beta = np.array(betas)[:, None] if per_row_beta else betas[0]
        current = rng.integers(0, 2, size=delta.shape).astype(float)
        uniforms = rng.random(delta.shape)
        # The kernel receives the local field; (1 - 2x) = +-1 recovers delta exactly.
        field = delta * (1.0 - 2.0 * current)
        probability = np.empty_like(delta)
        flips = np.empty(delta.shape, dtype=bool)
        expected_probability, expected_flips = masked_metropolis(delta, beta, uniforms)
        expected_states = np.where(expected_flips, 1.0 - current, current)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metropolis_update(current, field, beta, uniforms, probability, flips)
        assert bits(probability) == bits(expected_probability)
        assert np.array_equal(flips, expected_flips)
        assert bits(current) == bits(expected_states)

    def test_zero_delta_always_accepts(self):
        current = np.array([[0.0, 1.0]])
        probability, flips = np.empty((1, 2)), np.empty((1, 2), dtype=bool)
        metropolis_update(current, np.zeros((1, 2)), 5.0, np.full((1, 2), 0.999), probability, flips)
        assert probability.tolist() == [[1.0, 1.0]]
        assert current.tolist() == [[1.0, 0.0]]


#: One small instance of every embeddable workload family.
FAMILY_SHAPES = (
    ("star", {"num_queries": 6, "plans_per_query": 3}),
    ("clique", {"num_queries": 5, "plans_per_query": 3}),
    ("bipartite", {"num_producers": 3, "num_consumers": 4, "plans_per_query": 2}),
    ("paper", {"num_queries": 8, "plans_per_query": 2}),
    ("clustered", {"num_clusters": 2, "queries_per_cluster": 3, "plans_per_query": 3}),
    ("zipf", {"num_queries": 6, "plans_per_query": 3}),
    ("tpch_mix", {"num_queries": 6}),
    ("chain", {"num_queries": 6, "plans_per_query": 3, "window": 2}),
)


def family_instance(name, params, seed=3):
    return get_family(name).build(seed, **params)


def assert_same_solve(result, reference):
    assert len(result.sample_set) == len(reference.samples)
    for sample, expected in zip(result.sample_set, reference.samples):
        assert sample.assignment == expected.assignment
        assert sample.gauge_index == expected.gauge_index
    assert result.best_solution.selected_plans == reference.best_solution.selected_plans
    assert result.best_solution.cost == reference.best_solution.cost
    assert result.best_raw_solution.selected_plans == reference.best_raw_solution.selected_plans
    assert result.trajectory == reference.trajectory
    assert result.num_broken_chain_reads == reference.num_broken_chain_reads
    assert result.num_invalid_reads == reference.num_invalid_reads


class TestSolveExactness:
    @pytest.mark.parametrize("name,params", FAMILY_SHAPES, ids=[n for n, _ in FAMILY_SHAPES])
    def test_noisy_solve_matches_oracle(self, name, params):
        problem = family_instance(name, params)
        simulator = DWaveSamplerSimulator(
            spec=DWAVE_2X, noise=NOISES["noisy"], num_sweeps=20, seed=17
        )
        pipeline = QuantumMQO(device=simulator, seed=5)
        prepared = pipeline.prepare(problem)
        result = pipeline.solve(problem, num_reads=30, num_gauges=3, seed=11, prepared=prepared)
        reference = oracle.solve(
            pipeline, problem, num_reads=30, num_gauges=3, seed=11, prepared=prepared
        )
        assert_same_solve(result, reference)

    def test_fused_service_solves_match_oracle(self):
        """Every family, annealed together in one fusion window."""
        requests = [
            SolveRequest(
                problem=family_instance(name, params),
                solver="QA",
                time_budget_ms=15.0 + 5.0 * index,
                seed=100 + index,
            )
            for index, (name, params) in enumerate(FAMILY_SHAPES)
        ]
        fused = execute_fused_requests(requests)
        for request, result in zip(requests, fused):
            assert result.ok, result.error
            assert result == reference_result(request, result.total_time_ms)


def reference_result(request: SolveRequest, total_time_ms: float) -> SolveResult:
    """``QuantumAnnealingSolver.solve`` for ``request``, through the oracle."""
    from repro.utils.rng import ensure_rng

    solver = QuantumAnnealingSolver()
    rng = ensure_rng(request.seed)
    pipeline = solver._build_pipeline(seed=rng)
    prepared = solver.prepare(request.problem, pipeline=pipeline)
    reference = oracle.solve(
        pipeline,
        request.problem,
        num_reads=solver.reads_for_budget(request.time_budget_ms),
        seed=rng,
        prepared=prepared,
    )
    points, best = [], float("inf")
    for time_ms, cost in reference.trajectory:
        if cost < best - 1e-12:
            best = cost
            points.append((time_ms, cost))
    trajectory = SolverTrajectory(
        solver_name="QA",
        points=points,
        best_solution=reference.best_solution,
        proved_optimal=False,
        total_time_ms=0.0,
    )
    return SolveResult.from_trajectory(request, trajectory, winner="QA", total_time_ms=total_time_ms)
