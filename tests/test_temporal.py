import warnings

import numpy as np
import pytest
from instrument_oracles import stacked_dtau_marginal

from mmi_lab import (CoherenceModel, Layout, SourceConfig, calibrate_gaussian_jitter,
                     coincidence_classical, coincidence_quantum, hom_profile,
                     joint_density, random_unitary, sin2_envelope)
from mmi_lab.core import mode_pairs, pair_index
from mmi_lab.instrument import _draw_tables, _emission_times
from mmi_lab.temporal import integrated_visibility


class TestEnvelope:
    def test_peak_at_midpoint(self):
        env = sin2_envelope(300.0, 1.0)
        times = (np.arange(env.amplitudes.size) + 0.5) * env.dt
        peak = times[np.argmax(env.intensity())]
        assert abs(peak - 150.0) <= 1.0

    def test_normalisation(self):
        env = sin2_envelope(300.0, 1.0)
        assert np.sum(env.intensity()) * env.dt == pytest.approx(1.0, abs=1e-9)

    def test_autoconvolution_support_and_peak(self):
        # independent numerical-convolution oracle on the intensity
        env = sin2_envelope(300.0, 1.0)
        intensity = env.intensity()
        auto = np.convolve(intensity, intensity[::-1])
        lags = (np.arange(auto.size) - (intensity.size - 1)) * env.dt
        assert lags[0] == pytest.approx(-299.0)
        assert lags[-1] == pytest.approx(299.0)
        assert abs(lags[np.argmax(auto)]) <= 1.0

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            sin2_envelope(300.0, 10.0)

    def test_sampling_matches_profile(self, rng):
        # the simulator's emission times: a 300 ns sin^2 envelope on 1 ns cells
        tables = _draw_tables(SourceConfig(pulse_length_ns=300.0), Layout.hbt())
        assert tables.dt == 1.0
        samples = _emission_times(tables, rng.random(200_000), rng.random(200_000))
        assert samples.min() >= 0.0 and samples.max() <= 300.0
        assert np.mean(samples) == pytest.approx(150.0, abs=1.0)
        # sin^2 intensity has std T * sqrt(1/12 - 1/(2 pi^2))
        expected_sd = 300.0 * np.sqrt(1.0 / 12.0 - 1.0 / (2 * np.pi ** 2))
        assert np.std(samples) == pytest.approx(expected_sd, rel=0.02)


class TestCoherenceModel:
    def test_perfect_kernel_is_unity(self):
        coh = CoherenceModel.perfect()
        assert np.all(coh.kappa(np.linspace(-500, 500, 11)) == 1.0)

    def test_incoherent_kernel_is_zero(self):
        coh = CoherenceModel.incoherent()
        assert np.all(coh.kappa(np.linspace(-500, 500, 11)) == 0.0)

    def test_gaussian_kernel_value(self):
        coh = CoherenceModel.gaussian(0.01)
        assert coh.kappa(100.0) == pytest.approx(np.exp(-0.5))

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            CoherenceModel("lorentzian")

    def test_exponent_past_float_range_is_zero_without_warning(self):
        # (sd tau)**2 overflows to inf from sd tau of about 1.3e154 on: kappa
        # is then exp(-inf) = 0, and a finite exponent keeps its bits
        tau = np.array([0.0, 1e-3, 1.0, 664.0, -1e10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sd in (1e-3, 0.0123, 1e150, 1e300):
                with np.errstate(all="ignore"):
                    want = np.exp(-0.5 * (sd * tau) ** 2)
                got = CoherenceModel.gaussian(sd).kappa(tau)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(CoherenceModel.gaussian(1e300).kappa(tau), [1.0, 0, 0, 0, 0])


class TestJointDensity:
    def test_splitter_perfect_coherence_suppresses_cross(self, splitter, envelope):
        jd = joint_density(splitter, 0, 1, envelope, envelope,
                           CoherenceModel.perfect(), t_max=300.0)
        assert jd.densities[pair_index(0, 1, 2)].max() <= 1e-6

    def test_incoherent_limit_integrates_to_classical(self, chip, envelope):
        jd = joint_density(chip, 0, 1, envelope, envelope,
                           CoherenceModel.incoherent(), t_max=300.0)
        c = coincidence_classical(chip, 0, 1, renormalized=False)
        assert np.abs(jd.integrate().values - c.values).max() <= 1e-6

    def test_perfect_limit_integrates_to_quantum(self, chip, envelope):
        jd = joint_density(chip, 0, 1, envelope, envelope,
                           CoherenceModel.perfect(), t_max=300.0)
        q = coincidence_quantum(chip, 0, 1, renormalized=False)
        assert np.abs(jd.integrate().values - q.values).max() <= 1e-6

    def test_densities_nonnegative_random_matrices(self, envelope, rng):
        coh = CoherenceModel.gaussian(0.01)
        for i, j in [(0, 2), (3, 1), (2, 0)]:
            u = random_unitary(4, rng)
            jd = joint_density(u, i, j, envelope, envelope, coh, t_max=400.0)
            for dens in jd.densities:
                assert dens.min() >= 0.0

    def test_dtau_marginal_symmetry(self, chip, envelope):
        coh = CoherenceModel.gaussian(0.0128)
        jd = joint_density(chip, 0, 1, envelope, envelope, coh, t_max=300.0)
        # identical envelopes: every pair's density is symmetric in t1, t2
        for pair in mode_pairs(4):
            dtau, marg = stacked_dtau_marginal(jd, pair)
            assert np.allclose(dtau, -dtau[::-1])
            assert np.allclose(marg, marg[::-1], atol=1e-12)

    def test_total_integral_unitary(self, splitter, envelope):
        jd = joint_density(splitter, 0, 1, envelope, envelope,
                           CoherenceModel.gaussian(0.0128), t_max=300.0)
        assert jd.integrate().values.sum() == pytest.approx(1.0, abs=1e-9)


class TestHomProfile:
    def test_perfect_coherence_full_visibility(self, envelope):
        prof = hom_profile(envelope, envelope, CoherenceModel.perfect())
        assert prof.visibility_integrated == pytest.approx(1.0, abs=1e-9)
        assert prof.parallel.max() <= 1e-9

    def test_incoherent_zero_visibility(self, envelope):
        prof = hom_profile(envelope, envelope, CoherenceModel.incoherent())
        assert prof.visibility_integrated == pytest.approx(0.0, abs=1e-9)

    def test_calibrated_jitter_hits_both_targets(self, envelope):
        coh = calibrate_gaussian_jitter(envelope, 0.708)
        prof = hom_profile(envelope, envelope, coh)
        assert prof.visibility_integrated == pytest.approx(0.708, abs=1e-6)
        assert prof.windowed_visibility(23.0) >= 0.978

    def test_calibration_matches_fast_formulation(self, envelope):
        coh = calibrate_gaussian_jitter(envelope, 0.708)
        assert integrated_visibility(envelope, coh) == pytest.approx(0.708, abs=1e-9)

    @pytest.mark.parametrize("target", [0.3, 0.708, 0.95])
    def test_calibration_bisects_to_target(self, envelope, target):
        coh = calibrate_gaussian_jitter(envelope, target)
        assert abs(integrated_visibility(envelope, coh) - target) <= 1e-12

    def test_unbracketed_target_rejected(self, envelope):
        with pytest.raises(ValueError, match="not reached"):
            calibrate_gaussian_jitter(envelope, 1e-4)
