"""Tests for gauge (spin-reversal) transformations.

``TestGaugeTransform`` pins the dictionary gauge of the exactness
oracle (``tests/dict_device_oracle.py``); the other classes test the
library's array gauges, which the exactness suite proves equal to it.
"""

import numpy as np
import pytest

from dict_device_oracle import GaugeTransform
from repro.annealer.gauge import apply_gauge, random_gauge, undo_gauge
from repro.exceptions import DeviceError
from repro.qubo.ising import IsingModel, binary_to_spins
from repro.qubo.model import QUBOModel
from repro.qubo.ising import qubo_to_ising


class TestGaugeTransform:
    def test_invalid_factor_rejected(self):
        with pytest.raises(DeviceError):
            GaugeTransform(factors={0: 2})

    def test_identity(self):
        gauge = GaugeTransform.identity([0, 1, 2])
        ising = IsingModel(h={0: 1.0, 1: -1.0}, j={(0, 1): 0.5})
        assert gauge.apply_to_ising(ising).h == ising.h
        assert gauge.apply_to_binary({0: 1, 1: 0}) == {0: 1, 1: 0}

    def test_unknown_variable_defaults_to_identity(self):
        gauge = GaugeTransform(factors={0: -1})
        assert gauge.factor(99) == 1

    def test_energy_invariance(self):
        """Gauged problem + gauged spins = same energy (the defining property)."""
        ising = IsingModel(h={0: 1.0, 1: -0.5, 2: 0.25}, j={(0, 1): 2.0, (1, 2): -1.0})
        gauge = GaugeTransform(factors={0: -1, 1: 1, 2: -1})
        gauged = gauge.apply_to_ising(ising)
        for spins in (
            {0: 1, 1: 1, 2: 1},
            {0: -1, 1: 1, 2: -1},
            {0: -1, 1: -1, 2: -1},
        ):
            gauged_spins = gauge.apply_to_spins(spins)
            assert gauged.energy(gauged_spins) == pytest.approx(ising.energy(spins))

    def test_apply_to_spins_is_involution(self):
        gauge = GaugeTransform(factors={0: -1, 1: 1})
        spins = {0: -1, 1: 1}
        assert gauge.apply_to_spins(gauge.apply_to_spins(spins)) == spins

    def test_apply_to_binary_is_involution(self):
        gauge = GaugeTransform(factors={0: -1, 1: 1, 2: -1})
        sample = {0: 1, 1: 0, 2: 0}
        assert gauge.apply_to_binary(gauge.apply_to_binary(sample)) == sample

    def test_apply_to_binary_flips_only_negative_factors(self):
        gauge = GaugeTransform(factors={0: -1, 1: 1})
        assert gauge.apply_to_binary({0: 1, 1: 1}) == {0: 0, 1: 1}

    def test_apply_to_binary_rejects_non_binary(self):
        gauge = GaugeTransform(factors={0: -1})
        with pytest.raises(DeviceError):
            gauge.apply_to_binary({0: 2})

    def test_binary_roundtrip_preserves_qubo_energy(self):
        qubo = QUBOModel(linear={0: 1.0, 1: -2.0}, quadratic={(0, 1): 1.5})
        ising = qubo_to_ising(qubo)
        gauge = GaugeTransform(factors={0: -1, 1: -1})
        gauged_ising = gauge.apply_to_ising(ising)
        for assignment in ({0: 0, 1: 0}, {0: 1, 1: 0}, {0: 1, 1: 1}):
            spins = binary_to_spins(assignment)
            gauged_spins = gauge.apply_to_spins(spins)
            assert gauged_ising.energy(gauged_spins) == pytest.approx(qubo.energy(assignment))


class TestRandomGauge:
    def test_factors_cover_all_variables(self, rng):
        factors = random_gauge(4, seed=rng)
        assert factors.shape == (4,)
        assert set(factors.tolist()) <= {-1, 1}

    def test_deterministic_for_seed(self):
        assert np.array_equal(random_gauge(20, seed=5), random_gauge(20, seed=5))

    def test_different_seeds_differ(self):
        assert not np.array_equal(random_gauge(50, seed=1), random_gauge(50, seed=2))

    def test_one_integer_draw(self):
        """A gauge consumes exactly one integers(0, 2, n) draw."""
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        random_gauge(7, seed=rng)
        reference.integers(0, 2, size=7)
        assert rng.random() == reference.random()


class TestArrayGauge:
    H = np.array([1.0, -0.5, 0.25])
    J = np.array([2.0, -1.0])
    EDGES = np.array([[0, 1], [1, 2]])

    @staticmethod
    def _energy(h, j, edges, spins):
        return float(h @ spins + (spins[edges[:, 0]] * spins[edges[:, 1]]) @ j)

    def test_energy_invariance(self):
        """Gauged problem + gauged spins = same energy (the defining property)."""
        factors = np.array([-1, 1, -1])
        gauged_h, gauged_j = apply_gauge(self.H, self.J, self.EDGES, factors)
        for spins in ([1, 1, 1], [-1, 1, -1], [-1, -1, -1]):
            spins = np.array(spins)
            assert self._energy(gauged_h, gauged_j, self.EDGES, factors * spins) == pytest.approx(
                self._energy(self.H, self.J, self.EDGES, spins)
            )

    def test_matches_dict_gauge(self):
        factors = np.array([-1, -1, 1])
        gauged_h, gauged_j = apply_gauge(self.H, self.J, self.EDGES, factors)
        ising = IsingModel(h=dict(enumerate(self.H)), j={(0, 1): 2.0, (1, 2): -1.0})
        reference = GaugeTransform(factors={0: -1, 1: -1, 2: 1}).apply_to_ising(ising)
        assert gauged_h.tolist() == list(reference.h.values())
        assert gauged_j.tolist() == list(reference.j.values())

    def test_undo_is_involution(self):
        factors = np.array([-1, 1, -1])
        states = np.array([[1, 0, 0], [0, 1, 1]])
        assert np.array_equal(undo_gauge(undo_gauge(states, factors), factors), states)

    def test_undo_flips_only_negative_factors(self):
        assert undo_gauge(np.array([[1, 1]]), np.array([-1, 1])).tolist() == [[False, True]]

    def test_per_read_factors(self):
        states = np.array([[1, 1], [1, 1]])
        factors = np.array([[-1, 1], [1, -1]])
        assert undo_gauge(states, factors).tolist() == [[False, True], [True, False]]
