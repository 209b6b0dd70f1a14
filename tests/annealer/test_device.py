"""Tests for the D-Wave device simulator."""

import numpy as np
import pytest

from repro.annealer.device import DWaveSamplerSimulator
from repro.annealer.noise import NoiseModel
from repro.chimera.topology import ChimeraGraph
from repro.exceptions import DeviceCapacityError, DeviceError
from repro.qubo.bruteforce import solve_bruteforce
from repro.qubo.model import QUBOModel
from repro.qubo.random_qubo import random_chimera_qubo


def _native_qubo(topology, seed=0):
    return random_chimera_qubo(topology.edges(), topology.qubits, seed=seed)


class TestValidation:
    def test_rejects_unknown_qubit(self, ideal_device):
        qubo = QUBOModel(linear={99999: 1.0})
        with pytest.raises(DeviceCapacityError):
            ideal_device.sample_qubo(qubo, num_reads=1)

    def test_rejects_non_integer_variable(self, ideal_device):
        qubo = QUBOModel(linear={"a": 1.0})
        with pytest.raises(DeviceCapacityError):
            ideal_device.sample_qubo(qubo, num_reads=1)

    def test_accepts_numpy_integer_labels(self, ideal_device):
        """Qubit labels may be any integer type, numpy integers included."""
        qubo = QUBOModel(linear={np.int64(0): -1.0, np.int32(4): 1.0})
        qubo.add_quadratic(np.int64(0), np.int32(4), -0.5)
        sampleset = ideal_device.sample_qubo(qubo, num_reads=4, num_gauges=2)
        assert sampleset.num_reads == 4
        reference = ideal_device.sample_qubo(
            QUBOModel(linear={0: -1.0, 4: 1.0}, quadratic={(0, 4): -0.5}),
            num_reads=4,
            num_gauges=2,
            seed=3,
        )
        relabeled = ideal_device.sample_qubo(qubo, num_reads=4, num_gauges=2, seed=3)
        assert np.array_equal(relabeled.states, reference.states)

    def test_rejects_boolean_label(self, ideal_device):
        """``True`` is an int subclass but not a qubit label."""
        with pytest.raises(DeviceCapacityError):
            ideal_device.sample_qubo(QUBOModel(linear={True: 1.0}), num_reads=1)

    def test_rejects_non_coupler_interaction(self, ideal_device):
        # Qubits 0 and 1 sit in the same column of a cell: no coupler.
        qubo = QUBOModel(quadratic={(0, 1): 1.0})
        with pytest.raises(DeviceError):
            ideal_device.sample_qubo(qubo, num_reads=1)

    def test_rejects_broken_qubit(self, small_spec):
        topology = ChimeraGraph(4, 4, broken_qubits=[0])
        device = DWaveSamplerSimulator(spec=small_spec, topology=topology, seed=0)
        with pytest.raises(DeviceCapacityError):
            device.sample_qubo(QUBOModel(linear={0: 1.0}), num_reads=1)

    def test_invalid_read_counts(self, ideal_device, tiny_chimera):
        qubo = QUBOModel(linear={0: -1.0})
        with pytest.raises(DeviceError):
            ideal_device.sample_qubo(qubo, num_reads=0)
        with pytest.raises(DeviceError):
            ideal_device.sample_qubo(qubo, num_reads=5, num_gauges=0)

    def test_invalid_programming_time(self, small_chimera, small_spec):
        with pytest.raises(DeviceError):
            DWaveSamplerSimulator(
                spec=small_spec, topology=small_chimera, programming_time_ms=-1.0
            )


class TestSampling:
    def test_read_count_and_order(self, ideal_device):
        qubo = _native_qubo(ideal_device.topology, seed=1)
        sampleset = ideal_device.sample_qubo(qubo, num_reads=25, num_gauges=5)
        assert sampleset.num_reads == 25
        assert [s.read_index for s in sampleset] == list(range(25))
        assert {s.gauge_index for s in sampleset} == set(range(5))

    def test_energies_consistent_with_assignments(self, ideal_device):
        qubo = _native_qubo(ideal_device.topology, seed=2)
        sampleset = ideal_device.sample_qubo(qubo, num_reads=10, num_gauges=2)
        for sample in sampleset:
            assert sample.energy == pytest.approx(qubo.energy(sample.assignment))

    def test_finds_optimum_of_small_native_problem(self, small_spec):
        topology = ChimeraGraph(1, 2)  # 16 qubits: brute force feasible
        device = DWaveSamplerSimulator(
            spec=small_spec, topology=topology, noise=NoiseModel(0.0, 0.0), num_sweeps=150, seed=3
        )
        qubo = _native_qubo(topology, seed=5)
        _opt, opt_energy = solve_bruteforce(qubo)
        sampleset = device.sample_qubo(qubo, num_reads=30, num_gauges=5)
        assert sampleset.best().energy == pytest.approx(opt_energy, abs=1e-9)

    def test_timing_model_matches_paper_constants(self, ideal_device):
        qubo = QUBOModel(linear={0: -1.0})
        sampleset = ideal_device.sample_qubo(qubo, num_reads=100, num_gauges=10)
        assert sampleset.per_read_time_ms == pytest.approx(0.376)
        assert sampleset.device_time_ms() == pytest.approx(100 * 0.376)

    def test_default_read_and_gauge_counts_from_spec(self, small_chimera, small_spec):
        device = DWaveSamplerSimulator(
            spec=small_spec, topology=small_chimera, num_sweeps=5, seed=0
        )
        qubo = QUBOModel(linear={0: -1.0})
        sampleset = device.sample_qubo(qubo)
        assert sampleset.num_reads == small_spec.default_num_reads
        assert sampleset.info["num_gauges"] == small_spec.default_num_gauges

    def test_gauges_capped_by_reads(self, ideal_device):
        qubo = QUBOModel(linear={0: -1.0})
        sampleset = ideal_device.sample_qubo(qubo, num_reads=3, num_gauges=10)
        assert sampleset.info["num_gauges"] == 3

    def test_programming_time_accounted_per_gauge(self, small_chimera, small_spec):
        device = DWaveSamplerSimulator(
            spec=small_spec,
            topology=small_chimera,
            num_sweeps=5,
            programming_time_ms=2.0,
            seed=1,
        )
        qubo = QUBOModel(linear={0: -1.0})
        sampleset = device.sample_qubo(qubo, num_reads=10, num_gauges=5)
        assert sampleset.programming_time_ms == pytest.approx(10.0)

    def test_batch_sizes_split_evenly(self):
        assert DWaveSamplerSimulator._batch_sizes(10, 3) == [4, 3, 3]
        assert DWaveSamplerSimulator._batch_sizes(9, 3) == [3, 3, 3]
        assert DWaveSamplerSimulator._batch_sizes(2, 2) == [1, 1]

    def test_default_topology_built_from_spec(self, small_spec):
        device = DWaveSamplerSimulator(spec=small_spec, seed=0)
        assert device.num_qubits == small_spec.total_qubits

    def test_noise_affects_samples_but_not_reported_energy(self, small_chimera, small_spec):
        """Reported energies are always evaluated on the noiseless problem."""
        noisy = DWaveSamplerSimulator(
            spec=small_spec,
            topology=small_chimera,
            noise=NoiseModel(0.2, 0.1),
            num_sweeps=20,
            seed=7,
        )
        qubo = _native_qubo(small_chimera, seed=9)
        sampleset = noisy.sample_qubo(qubo, num_reads=5, num_gauges=1)
        for sample in sampleset:
            assert sample.energy == pytest.approx(qubo.energy(sample.assignment))
