"""The simulator and the stacked joint density against the original code
(``instrument_oracles``).

Every comparison is exact: the same seed must give byte-identical streams,
byte-identical zero-dead-time streams and equal truth counts, and the
density array must reproduce every number of the dict of per-pair arrays.
"""

import warnings

import numpy as np
import pytest
from instrument_oracles import _PairSampler
from instrument_oracles import joint_density as oracle_joint_density
from instrument_oracles import simulate_run as oracle_simulate_run

from mmi_lab import (CoherenceModel, DetectorConfig, Layout, SourceConfig, balanced_splitter,
                     joint_density, measured_chip_matrix, mode_pairs, random_unitary,
                     simulate_run)
from mmi_lab.instrument import _sample_pairs

CONSTANT = SourceConfig(coherence_jitter_sd=0.0)


def check_run(source, layout, seconds, seed, detectors=DetectorConfig()):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, truth = simulate_run(source, layout, detectors, seconds, seed, with_truth=True)
        want, want_truth = oracle_simulate_run(source, layout, detectors, seconds, seed,
                                               with_truth=True)
    assert got.to_bytes() == want.to_bytes()
    assert truth.pre_deadtime.to_bytes() == want_truth.pre_deadtime.to_bytes()
    for name in ("n_emitted", "delivered_pairs", "detected_pairs", "n_suppressed"):
        assert getattr(truth, name) == getattr(want_truth, name), name
    assert simulate_run(source, layout, detectors, seconds, seed).to_bytes() == got.to_bytes()
    return truth


@pytest.mark.parametrize("layout", [
    Layout.mmi(),
    Layout.mmi(polarization="orthogonal"),
    Layout.mmi(input_delayed=2, input_direct=3),
    Layout.mmi(input_delayed=3, input_direct=0, polarization="orthogonal"),
    Layout.hom("parallel"),
    Layout.hom("orthogonal"),
    Layout.hbt(),
], ids=["mmi", "mmi-orthogonal", "mmi-inputs-3-4", "mmi-inputs-4-1-orthogonal",
        "hom-parallel", "hom-orthogonal", "hbt"])
def test_layouts_match_oracle(layout):
    truth = check_run(SourceConfig(), layout, 20_000.0, seed=41000)
    assert truth.n_emitted > 0
    if layout.kind != "hbt":
        assert truth.detected_pairs > 0


@pytest.mark.parametrize("layout", [Layout.mmi(), Layout.hbt()], ids=["mmi", "hbt"])
def test_constant_coherence_source_matches_oracle(layout):
    check_run(CONSTANT, layout, 30_000.0, seed=7)


@pytest.mark.parametrize("layout", [Layout.mmi(), Layout.hom("orthogonal"), Layout.hbt()],
                         ids=["mmi", "hom-orthogonal", "hbt"])
def test_zero_transits_give_dark_counts_only(layout):
    source = SourceConfig(atom_transit_rate=0.0)
    truth = check_run(source, layout, 400_000.0, seed=3)
    assert truth.n_emitted == 0 and truth.delivered_pairs == 0
    assert len(truth.pre_deadtime) > 0


@pytest.mark.parametrize("layout", [Layout.mmi(), Layout.hbt()], ids=["mmi", "hbt"])
def test_zero_emission(layout):
    source = SourceConfig(emission_prob=0.0, two_photon_prob=0.0, overall_efficiency=0.0)
    truth = check_run(source, layout, 5_000.0, seed=4)
    assert truth.n_emitted == 0


@pytest.mark.parametrize("polarization", ["parallel", "orthogonal"])
def test_zero_delivered_pairs(polarization):
    # one attempt per transit and no routing errors or double emissions:
    # pairs need two transits in adjacent duty cycles
    source = SourceConfig(pulses_per_transit=1, routing_error_prob=0.0,
                          two_photon_prob=0.0)
    truth = check_run(source, Layout.mmi(polarization=polarization), 5_000.0, seed=5)
    assert truth.n_emitted > 0 and truth.delivered_pairs == 0


@pytest.mark.parametrize("polarization", ["parallel", "orthogonal"])
def test_single_delivered_pair(polarization):
    # every transit emits two photons; one of its two phases pairs them
    source = SourceConfig(emission_prob=1.0, two_photon_prob=0.0, dark_state_prob=0.0,
                          routing_error_prob=0.0, pulses_per_transit=2,
                          overall_efficiency=1.0)
    truth = check_run(source, Layout.mmi(polarization=polarization), 10.0, seed=68)
    assert truth.delivered_pairs == 1 and truth.n_emitted == 10


def test_no_detection_and_no_dead_time():
    detectors = DetectorConfig(dead_time_ns=0.0, jitter_sd_ps=0.0)
    truth = check_run(SourceConfig(overall_efficiency=0.0), Layout.mmi(), 5_000.0, seed=6,
                      detectors=detectors)
    assert truth.detected_pairs == 0


def test_sample_pairs_matches_pair_sampler(envelope, chip):
    coherence = CoherenceModel.gaussian(0.0128)
    sampler = _PairSampler(chip, 1, 3, envelope, coherence)
    jd = joint_density(chip, 1, 3, envelope, envelope, coherence, t_max=envelope.duration)
    got = _sample_pairs(jd, np.random.default_rng(11), 200_000)
    want = sampler.sample(np.random.default_rng(11), 200_000)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["chip", "chip-delayed", "splitter", "random6", "incoherent"])
def test_stacked_density_equals_dict_form(case, chip, envelope):
    matrix, i, j, coherence, delay = {
        "chip": (chip, 0, 1, CoherenceModel.gaussian(0.0128), 0.0),
        "chip-delayed": (chip, 3, 1, CoherenceModel.gaussian(0.02), 37.5),
        # float dust below zero in the cross pair: the clip must match
        "splitter": (balanced_splitter(), 0, 1, CoherenceModel.perfect(), 10.3),
        "random6": (random_unitary(6, np.random.default_rng(8)), 4, 2,
                    CoherenceModel.gaussian(0.005), 12.0),
        "incoherent": (measured_chip_matrix(), 2, 0, CoherenceModel.incoherent(), 0.0),
    }[case]
    args = (matrix, i, j, envelope, envelope, coherence, delay)
    got, want = joint_density(*args, t_max=360.0), oracle_joint_density(*args, t_max=360.0)
    pairs = mode_pairs(matrix.n_modes)
    assert isinstance(got.densities, np.ndarray) and got.densities.dtype == np.float64
    assert np.array_equal(got.t, want.t) and got.dt == want.dt
    assert np.array_equal(got.densities, np.stack([want.densities[p] for p in pairs]))
    assert np.array_equal(got.integrate().values, want.integrate().values)
    for pair in [None, pairs[0], pairs[-1], (1, 0), (matrix.n_modes - 1, 0)]:
        for a, b in zip(got.dtau_marginal(pair), want.dtau_marginal(pair)):
            assert np.array_equal(a, b)
