"""The simulator and the stacked joint density against the original code
(``instrument_oracles``).

Every comparison is exact: the same seed must give byte-identical streams,
byte-identical zero-dead-time streams and equal truth counts, and the
density array must reproduce every number of the dict of per-pair arrays.
The oracles rebuild the pair sampler on every run, so they also check the
cached one.
"""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from instrument_oracles import _apply_dead_time as oracle_apply_dead_time
from instrument_oracles import _PairSampler
from instrument_oracles import joint_density as oracle_joint_density
from instrument_oracles import sample_times as oracle_sample_times
from instrument_oracles import simulate_run as oracle_simulate_run

from mmi_lab import (CoherenceModel, DetectorConfig, Layout, SourceConfig, Wavepacket,
                     balanced_splitter, config, instrument, joint_density,
                     measured_chip_matrix, mode_pairs, random_unitary, simulate_run,
                     sin2_envelope)
from mmi_lab.instrument import _apply_dead_time, _pair_sampler, _sample_pairs

CONSTANT = SourceConfig(coherence_jitter_sd=0.0)


def check_run(source, layout, seconds, seed, detectors=DetectorConfig()):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, truth = simulate_run(source, layout, detectors, seconds, seed, with_truth=True)
        want, want_truth = oracle_simulate_run(source, layout, detectors, seconds, seed,
                                               with_truth=True)
    assert got.to_bytes() == want.to_bytes()
    assert truth.pre_deadtime.to_bytes() == want_truth.pre_deadtime.to_bytes()
    for name in ("n_emitted", "delivered_pairs", "detected_pairs", "n_suppressed",
                 "n_kept", "n_dark", "n_outside"):
        assert getattr(truth, name) == getattr(want_truth, name), name
    assert simulate_run(source, layout, detectors, seconds, seed).to_bytes() == got.to_bytes()
    return truth


@pytest.mark.parametrize("layout", [
    Layout.mmi(),
    Layout(polarization="orthogonal"),
    Layout(input_delayed=2, input_direct=3),
    Layout(input_delayed=3, input_direct=0, polarization="orthogonal"),
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
    truth = check_run(source, Layout(polarization=polarization), 5_000.0, seed=5)
    assert truth.n_emitted > 0 and truth.delivered_pairs == 0


@pytest.mark.parametrize("polarization", ["parallel", "orthogonal"])
def test_single_delivered_pair(polarization):
    # every transit emits two photons; one of its two phases pairs them
    source = SourceConfig(emission_prob=1.0, two_photon_prob=0.0, dark_state_prob=0.0,
                          routing_error_prob=0.0, pulses_per_transit=2,
                          overall_efficiency=1.0)
    truth = check_run(source, Layout(polarization=polarization), 10.0, seed=68)
    assert truth.delivered_pairs == 1 and truth.n_emitted == 10


@pytest.mark.parametrize("dead_time_ns", [0.0, 50.0, 400.0, 5_000.0])
def test_dead_times_match_oracle(dead_time_ns):
    truth = check_run(SourceConfig(), Layout.mmi(), 20_000.0, seed=42,
                      detectors=DetectorConfig(dead_time_ns=dead_time_ns))
    assert (truth.n_suppressed > 0) == (dead_time_ns > 0)


def test_pair_sampler_cache_serves_interleaved_configurations(chip):
    # a key collision or a stale entry would hand a run another
    # configuration's sampler and change its stream
    _pair_sampler.cache_clear()
    calibrated = SourceConfig()
    runs = [(calibrated, Layout(interference_matrix=chip)),
            (calibrated, Layout(interference_matrix=chip, input_delayed=2, input_direct=3)),
            (CONSTANT, Layout(interference_matrix=chip)),
            (calibrated, Layout.hom()),
            (calibrated, Layout(interference_matrix=chip))]
    for seed, (source, layout) in enumerate(runs, 900):
        assert check_run(source, layout, 5_000.0, seed).delivered_pairs > 0
    info = _pair_sampler.cache_info()
    # check_run simulates each configuration twice; only the last one was cached
    assert (info.misses, info.hits, info.currsize) == (4, 6, 4)


def test_equal_configurations_share_one_sampler(monkeypatch):
    # the coherence calibration and the joint density depend only on the
    # configuration: two runs of the default profile compute each once
    calls = Counter()
    for name in ("joint_density", "calibrate_gaussian_jitter"):
        def counted(*args, _fn=getattr(instrument, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(instrument, name, counted)
    _pair_sampler.cache_clear()
    for seed in (1, 2):
        cfg = config.default_config()
        simulate_run(cfg.source, cfg.build_layout(), cfg.detectors, 5_000.0, seed)
    assert calls == {"joint_density": 1, "calibrate_gaussian_jitter": 1}


def test_cached_samplers_are_read_only(envelope):
    cdf = _pair_sampler(CONSTANT, Layout.mmi())[0]
    for arr in (cdf, *envelope._intensity_cdf):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _gapped_envelope():
    # zero-intensity cells give runs of equal CDF values
    amp = np.zeros(400)
    amp[50:150] = amp[300:320] = 1.0
    amp[200] = 1e-6
    return Wavepacket(400.0, 1.0, amp / np.sqrt(np.sum(amp ** 2)))


@pytest.mark.parametrize("envelope", [sin2_envelope(300.0), sin2_envelope(37.0, 0.25),
                                      _gapped_envelope()], ids=["300ns", "37ns", "gapped"])
@pytest.mark.parametrize("size", [0, 1, 200_000])
def test_sample_times_matches_oracle(envelope, size):
    got = envelope.sample_times(np.random.default_rng(size), size)
    want = oracle_sample_times(envelope, np.random.default_rng(size), size)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def dead_time_cases(draw):
    """Tags in simulator order (ticks, then channel) and a dead time.

    Gaps of zero put equal ticks on one channel or several, runs of small
    gaps make bursts, and the gaps straddle the 617-tick dead time.
    """
    n_channels = draw(st.integers(1, 4))
    gap = st.one_of(st.sampled_from([0, 1, 616, 617, 618]), st.integers(0, 40),
                    st.integers(0, 1300))
    gaps = draw(st.lists(gap, max_size=120))
    ticks = draw(st.integers(0, 10**6)) + np.cumsum(np.array(gaps, dtype=np.int64))
    channel = np.array(draw(st.lists(st.integers(0, n_channels - 1), min_size=len(gaps),
                                     max_size=len(gaps))), dtype=np.int64)
    order = np.lexsort((channel, ticks))
    span = int(np.ptp(ticks)) if ticks.size else 0
    dead = draw(st.sampled_from([0, 1, 617, span + 1]))
    return channel[order], ticks[order], dead


@settings(max_examples=400, deadline=None)
@given(dead_time_cases())
@example((np.array([], np.int64), np.array([], np.int64), 617))
@example((np.array([3], np.int64), np.array([0], np.int64), 1))
@example((np.zeros(50, np.int64), np.arange(50, dtype=np.int64) * 300, 617))
def test_dead_time_matches_loop(case):
    channel, ticks, dead = case
    got = _apply_dead_time(channel, ticks, dead)
    assert got.dtype == bool
    assert np.array_equal(got, oracle_apply_dead_time(channel, ticks, 4, dead))


def test_no_detection_and_no_dead_time():
    detectors = DetectorConfig(dead_time_ns=0.0, jitter_sd_ps=0.0)
    truth = check_run(SourceConfig(overall_efficiency=0.0), Layout.mmi(), 5_000.0, seed=6,
                      detectors=detectors)
    assert truth.detected_pairs == 0


def test_sample_pairs_matches_pair_sampler(envelope, chip):
    source = SourceConfig(coherence_jitter_sd=0.0128)
    sampler = _PairSampler(chip, 1, 3, envelope, source.coherence())
    layout = Layout(interference_matrix=chip, input_delayed=1, input_direct=3)
    got = _sample_pairs(_pair_sampler(source, layout), np.random.default_rng(11), 200_000)
    want = sampler.sample(np.random.default_rng(11), 200_000)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["chip", "chip-inputs-4-2", "splitter", "random6",
                                  "incoherent"])
def test_stacked_density_equals_dict_form(case, chip, envelope):
    matrix, i, j, coherence = {
        "chip": (chip, 0, 1, CoherenceModel.gaussian(0.0128)),
        "chip-inputs-4-2": (chip, 3, 1, CoherenceModel.gaussian(0.02)),
        # float dust below zero in the cross pair: the clip must match
        "splitter": (balanced_splitter(), 0, 1, CoherenceModel.perfect()),
        "random6": (random_unitary(6, np.random.default_rng(8)), 4, 2,
                    CoherenceModel.gaussian(0.005)),
        "incoherent": (measured_chip_matrix(), 2, 0, CoherenceModel.incoherent()),
    }[case]
    args = (matrix, i, j, envelope, envelope, coherence)
    got, want = joint_density(*args, t_max=360.0), oracle_joint_density(*args, t_max=360.0)
    pairs = mode_pairs(matrix.n_modes)
    assert isinstance(got.densities, np.ndarray) and got.densities.dtype == np.float64
    assert np.array_equal(got.t, want.t) and got.dt == want.dt
    assert np.array_equal(got.densities, np.stack([want.densities[p] for p in pairs]))
    assert np.array_equal(got.integrate().values, want.integrate().values)
    for pair in [pairs[0], pairs[-1], (1, 0), (matrix.n_modes - 1, 0)]:
        for a, b in zip(got.dtau_marginal(pair), want.dtau_marginal(pair)):
            assert np.array_equal(a, b)
