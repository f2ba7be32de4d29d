import numpy as np
import pytest

from mmi_lab import (FringeDataset, gauge_fix, random_unitary,
                     reconstruct_matrix, simulate_fringes)
from mmi_lab.characterize import CharacterizationError


class TestFringeForwardModel:
    def test_identity_fringes_are_flat(self, identity4):
        data = simulate_fringes(identity4)
        for powers in data.fringes.values():
            assert np.allclose(powers.std(axis=0), 0.0, atol=1e-14)

    def test_splitter_full_contrast_fringe(self, splitter):
        phases = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        data = simulate_fringes(splitter, phase_grid=phases)
        power = data.fringes[(0, 1)][:, 0]
        # |1/sqrt2 + e^{i phi}/sqrt2|^2 = 1 + cos(phi)
        assert np.allclose(power, 1.0 + np.cos(phases), atol=1e-12)

    def test_chip_fringe_offsets_equal_phase_differences(self, chip):
        data = simulate_fringes(chip)
        m = chip.elements
        from mmi_lab.characterize import _fit_fringe
        for i in range(1, 4):
            for k in range(4):
                theta, contrast, _ = _fit_fringe(data.phase_grid,
                                                 data.fringes[(0, i)][:, k])
                expected = np.angle(m[i, k]) - np.angle(m[0, k])
                delta = np.angle(np.exp(1j * (theta - expected)))
                assert abs(delta) < 1e-9
                assert contrast == pytest.approx(2 * abs(m[0, k] * m[i, k]), rel=1e-9)

    def test_direct_transmissions(self, chip):
        data = simulate_fringes(chip)
        assert np.allclose(data.transmissions, np.abs(chip.elements) ** 2)

    def test_negative_noise_rejected(self, chip):
        with pytest.raises(ValueError):
            simulate_fringes(chip, noise_sd=-0.1)

    @pytest.mark.parametrize("noise_sd", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, chip, noise_sd):
        with pytest.raises(ValueError, match="finite"):
            simulate_fringes(chip, noise_sd=noise_sd)


class TestReconstruction:
    def test_noiseless_chip_round_trip(self, chip):
        rec = reconstruct_matrix(simulate_fringes(chip))
        assert np.abs(rec.matrix.elements - chip.elements).max() <= 1e-10
        assert not rec.phase_indeterminate.any()

    def test_identity_amplitudes_with_flat_fringe_flags(self, identity4):
        rec = reconstruct_matrix(simulate_fringes(identity4))
        assert np.allclose(np.abs(rec.matrix.elements), np.eye(4), atol=1e-12)
        assert rec.phase_indeterminate.any()

    def test_gauge_idempotence_on_random_matrices(self, rng):
        # reconstruct(simulate(.)) recovers the gauge-fixed matrix exactly
        for _ in range(5):
            u = random_unitary(4, rng)
            rec = reconstruct_matrix(simulate_fringes(u))
            assert np.abs(rec.matrix.elements - gauge_fix(u).elements).max() <= 1e-10

    def test_noisy_recovery_median_error(self, chip):
        errs = []
        for trial in range(100):
            rng = np.random.default_rng(5000 + trial)
            data = simulate_fringes(chip, noise_sd=0.01, rng=rng)
            rec = reconstruct_matrix(data)
            errs.append(np.abs(rec.matrix.elements - chip.elements).max())
        assert np.median(errs) <= 0.02

    def test_missing_fringe_block_rejected(self, chip):
        data = simulate_fringes(chip)
        del data.fringes[(0, 2)]
        with pytest.raises(CharacterizationError):
            reconstruct_matrix(data)


class TestDatasetValidation:
    def test_json_round_trip(self, chip, tmp_path):
        data = simulate_fringes(chip, noise_sd=0.02, rng=np.random.default_rng(1))
        path = tmp_path / "fringes.json"
        data.write_file(path)
        back = FringeDataset.from_file(path)
        assert np.allclose(back.phase_grid, data.phase_grid)
        assert np.allclose(back.transmissions, data.transmissions)
        for key in data.fringes:
            assert np.allclose(back.fringes[key], data.fringes[key])

    def test_coarse_phase_grid_rejected(self, chip):
        with pytest.raises(CharacterizationError):
            simulate_fringes(chip, phase_grid=np.linspace(0, 2 * np.pi, 4,
                                                          endpoint=False))

    def test_decreasing_grid_rejected(self):
        with pytest.raises(CharacterizationError):
            FringeDataset(n_modes=2, phase_grid=np.linspace(2 * np.pi, 0, 16),
                          transmissions=np.ones((2, 2)) / 2)
