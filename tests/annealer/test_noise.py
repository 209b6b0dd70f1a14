"""Tests for the device noise model."""

import numpy as np
import pytest

from repro.annealer.noise import NoiseModel
from repro.exceptions import DeviceError


class TestNoiseModel:
    def test_defaults_are_small_but_nonzero(self):
        noise = NoiseModel()
        assert 0 < noise.static_bias_fraction < 0.05
        assert 0 < noise.programming_noise_fraction < 0.05
        assert not noise.is_noiseless

    def test_noiseless_flag(self):
        assert NoiseModel(0.0, 0.0).is_noiseless

    def test_negative_fractions_rejected(self):
        with pytest.raises(DeviceError):
            NoiseModel(-0.1, 0.0)
        with pytest.raises(DeviceError):
            NoiseModel(0.0, -0.1)

    def test_static_bias_shape_and_determinism(self):
        noise = NoiseModel(0.05, 0.0)
        bias_a = noise.static_bias([0, 1, 2], seed=1)
        bias_b = noise.static_bias([0, 1, 2], seed=1)
        assert bias_a == bias_b
        assert set(bias_a) == {0, 1, 2}

    def test_zero_static_bias(self):
        noise = NoiseModel(0.0, 0.01)
        assert noise.static_bias([0, 1]) == {0: 0.0, 1: 0.0}


class TestPerturbIsing:
    """``NoiseModel.perturb`` on Ising field/coupling arrays."""

    def test_noiseless_perturbation_is_identity(self):
        noise = NoiseModel(0.0, 0.0)
        h, j = np.array([1.0, -1.0]), np.array([0.5])
        perturbed_h, perturbed_j = noise.perturb(h, j, np.zeros(2), scale=1.0, seed=0)
        assert perturbed_h.tolist() == h.tolist()
        assert perturbed_j.tolist() == j.tolist()

    def test_static_bias_added_proportionally_to_scale(self):
        noise = NoiseModel(0.1, 0.0)
        perturbed_h, _ = noise.perturb(
            np.array([1.0]), np.array([]), np.array([0.5]), scale=10.0, seed=0
        )
        assert perturbed_h[0] == pytest.approx(1.0 + 10.0 * 0.5)

    def test_programming_noise_perturbs_couplings(self):
        noise = NoiseModel(0.0, 0.05)
        _, perturbed_j = noise.perturb(
            np.array([0.0, 0.0]), np.array([1.0]), np.zeros(2), scale=1.0, seed=3
        )
        assert perturbed_j[0] != 1.0

    def test_original_model_untouched(self):
        noise = NoiseModel(0.1, 0.1)
        h, j = np.array([1.0]), np.array([1.0])
        noise.perturb(h, j, np.array([1.0]), scale=1.0, seed=0)
        assert h[0] == 1.0
        assert j[0] == 1.0

    def test_negative_scale_rejected(self):
        with pytest.raises(DeviceError):
            NoiseModel().perturb(np.array([]), np.array([]), np.array([]), scale=-1.0)

    def test_vector_draws_equal_scalar_draws(self):
        """One vector normal draw per array equals one scalar draw per value."""
        noise = NoiseModel(0.0, 0.03)
        h, j = np.array([0.5, -1.0, 2.0]), np.array([1.0, -0.25])
        rng, reference = np.random.default_rng(9), np.random.default_rng(9)
        perturbed_h, perturbed_j = noise.perturb(h, j, np.zeros(3), scale=2.0, seed=rng)
        expected_h = [v + 2.0 * float(reference.normal(0.0, 0.03)) for v in h.tolist()]
        expected_j = [v + 2.0 * float(reference.normal(0.0, 0.03)) for v in j.tolist()]
        assert perturbed_h.tolist() == expected_h
        assert perturbed_j.tolist() == expected_j
        assert rng.random() == reference.random()
