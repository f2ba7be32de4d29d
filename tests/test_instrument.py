import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmi_lab import (DetectorConfig, Layout, SourceConfig, TimeTagStream, balanced_splitter,
                     cross_correlate, expected_pair_rate, g2_zero, instrument, simulate_run)
from mmi_lab._runtime import MAX_ELEMENTS, ConfigError, check_size
from mmi_lab.instrument import _BLOCK_TRANSITS, _block_bounds

HOM_PARALLEL = Layout(kind="hom_splitter", interference_matrix=balanced_splitter(),
                      polarization="parallel")
HOM_ORTHOGONAL = Layout(kind="hom_splitter", interference_matrix=balanced_splitter(),
                        polarization="orthogonal")


def enumerate_perfect_pairs(n_attempts: int) -> float:
    """Independent oracle: average delivered pairs per transit for a perfect
    source, enumerating both alternation phases explicitly.

    Every attempt emits one photon; the delayed polarisation (parity 0)
    arrives one interval late, so photons from consecutive attempts
    (parity 0 then 1) land in the same interval and pair up.
    """
    totals = []
    for phase in (0, 1):
        arrivals = {}
        for m in range(n_attempts):
            pol = (m + phase) % 2
            arrivals.setdefault(m + (1 if pol == 0 else 0), []).append(pol)
        pairs = sum(1 for group in arrivals.values()
                    if len(group) == 2 and group[0] != group[1])
        totals.append(pairs)
    return float(np.mean(totals))


class TestConfigValidation:
    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            SourceConfig(emission_prob=1.5)
        with pytest.raises(ConfigError):
            SourceConfig(two_photon_prob=0.5, emission_prob=0.3)
        with pytest.raises(ConfigError):
            SourceConfig(duty_cycle_ns=200.0, pulse_length_ns=300.0)
        with pytest.raises(ConfigError):
            SourceConfig(overall_efficiency=0.5, emission_prob=0.3)

    def test_detector_bounds(self):
        with pytest.raises(ConfigError):
            DetectorConfig(dead_time_ns=-5.0)

    def test_layout_validation(self):
        with pytest.raises(ConfigError):
            Layout(kind="ring")
        with pytest.raises(ConfigError):
            Layout(input_delayed=2, input_direct=2)
        with pytest.raises(ConfigError):
            Layout(kind="mmi", polarization="circular")

    def test_layouts_equal_and_hashable_by_value(self):
        assert Layout.mmi() == Layout.mmi() and hash(Layout.mmi()) == hash(Layout.mmi())
        assert Layout.hbt() == Layout.hbt() and hash(Layout.hbt()) == hash(Layout.hbt())
        assert Layout.mmi() != Layout(polarization="orthogonal")
        assert Layout.mmi() != Layout(input_delayed=2)

    @pytest.mark.parametrize("seconds", [float("inf"), float("nan"), 0.0, -1.0])
    def test_run_length_positive_and_finite(self, default_source, default_detectors,
                                            mmi_layout, seconds):
        with pytest.raises(ConfigError, match="wall time must be positive and finite"):
            simulate_run(default_source, mmi_layout, default_detectors, seconds, seed=1)

    def test_size_budget(self):
        assert MAX_ELEMENTS == 2 ** 26
        check_size(MAX_ELEMENTS, "unused")
        for elements in (MAX_ELEMENTS + 1, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="^the array$"):
                check_size(elements, "the array")


class TestDeterminism:
    def test_identical_seeds_bit_exact(self, default_source, default_detectors,
                                       mmi_layout):
        a = simulate_run(default_source, mmi_layout, default_detectors, 3000.0, seed=5)
        b = simulate_run(default_source, mmi_layout, default_detectors, 3000.0, seed=5)
        assert np.array_equal(a.ticks, b.ticks)
        assert np.array_equal(a.channels, b.channels)
        assert a.to_bytes() == b.to_bytes()

    def test_different_seeds_differ(self, default_source, default_detectors,
                                    mmi_layout):
        a = simulate_run(default_source, mmi_layout, default_detectors, 3000.0, seed=5)
        b = simulate_run(default_source, mmi_layout, default_detectors, 3000.0, seed=6)
        assert a.to_bytes() != b.to_bytes()


@st.composite
def transit_starts(draw):
    """Sorted transit intervals, a train length and a block target: gaps of
    the train length and one more straddle the edge rule."""
    pulses = draw(st.integers(1, 12))
    gap = st.one_of(st.sampled_from([0, pulses, pulses + 1]), st.integers(0, 3 * pulses))
    gaps = draw(st.lists(gap, max_size=200))
    start = draw(st.integers(0, 10**6))
    return start + np.cumsum(np.array(gaps, dtype=np.int64)), pulses, draw(st.integers(1, 40))


class TestBlocks:
    @settings(max_examples=300, deadline=None)
    @given(transit_starts())
    @example((np.array([], np.int64), 100, 2048))
    @example((np.array([5], np.int64), 100, 1))
    @example((np.arange(0, 10_000, 101, dtype=np.int64), 100, 1))
    def test_edges_fall_only_between_trains(self, case):
        intervals, pulses, target = case
        bounds = _block_bounds(intervals, pulses, target)
        # every transit in exactly one block, in order
        assert bounds[0] == 0 and bounds[-1] == intervals.size
        assert all(a < b for a, b in zip(bounds[:-1], bounds[1:]))
        # a block starts only after a gap longer than a train
        allowed = np.flatnonzero(np.diff(intervals) > pulses) + 1
        assert set(bounds[1:-1]) <= set(allowed.tolist())
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            later = allowed[allowed >= a + target]
            if k < len(bounds) - 2:
                # every block but the last reaches the target and ends at the
                # first allowed edge from there
                assert b - a >= target and b == later[0]
            else:
                assert later.size == 0

    def test_transit_count_is_the_root_draw(self, default_source, default_detectors,
                                            mmi_layout):
        seconds, seed = 40_000.0, 21
        _, truth = simulate_run(default_source, mmi_layout, default_detectors, seconds,
                                seed, with_truth=True)
        rng = np.random.default_rng(seed)
        assert truth.n_transits == rng.poisson(default_source.atom_transit_rate * seconds)
        # 8,078 transits about 5 s apart: three blocks of just over the target
        n_intervals = int(seconds * 1e9 // default_source.duty_cycle_ns)
        intervals = np.sort(rng.integers(0, n_intervals, truth.n_transits))
        bounds = _block_bounds(intervals, default_source.pulses_per_transit)
        assert truth.n_blocks == len(bounds) - 1 == truth.n_transits // _BLOCK_TRANSITS + 1

    @pytest.mark.parametrize("layout", [Layout.mmi(), HOM_ORTHOGONAL, Layout.hbt()],
                             ids=["mmi", "hom-orthogonal", "hbt"])
    def test_streams_do_not_depend_on_thread_count(self, default_source, default_detectors,
                                                   layout, monkeypatch):
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("MMI_LAB_THREADS", threads)
            stream, truth = simulate_run(default_source, layout, default_detectors,
                                         30_000.0, seed=33, with_truth=True)
            runs.append((stream.to_bytes(), truth.pre_deadtime.to_bytes(),
                         {k: v for k, v in vars(truth).items() if k != "pre_deadtime"}))
        assert runs[0][2]["n_blocks"] >= 2
        assert runs[0] == runs[1] == runs[2]


class TestTrivialLimits:
    def test_no_emission_no_darks_empty(self, default_detectors, mmi_layout):
        src = SourceConfig(emission_prob=0.0, two_photon_prob=0.0,
                           overall_efficiency=0.0)
        det = DetectorConfig(dark_rate_per_hour=0.0)
        stream = simulate_run(src, mmi_layout, det, 500.0, seed=2)
        assert len(stream) == 0

    def test_dark_counts_only(self, mmi_layout):
        src = SourceConfig(emission_prob=0.0, two_photon_prob=0.0,
                           overall_efficiency=0.0)
        det = DetectorConfig(dark_rate_per_hour=1800.0)
        stream = simulate_run(src, mmi_layout, det, 400.0, seed=3)
        # Poisson(200) per channel, 4 channels
        per_channel = stream.counts_per_channel()
        assert per_channel.shape == (4,)
        for n in per_channel:
            assert abs(n - 200.0) <= 4 * np.sqrt(200.0)

    def test_zero_efficiency_kills_photons(self, mmi_layout):
        src = SourceConfig(overall_efficiency=0.0)
        det = DetectorConfig(dark_rate_per_hour=0.0)
        stream = simulate_run(src, mmi_layout, det, 2000.0, seed=4)
        assert len(stream) == 0


@pytest.fixture(scope="module")
def stream(default_source, default_detectors, mmi_layout):
    return simulate_run(default_source, mmi_layout, default_detectors,
                        30000.0, seed=8)


class TestStreamInvariants:
    def test_sorted_with_channel_tiebreak(self, stream):
        t = stream.ticks.astype(np.int64)
        assert np.all(np.diff(t) >= 0)
        ties = np.diff(t) == 0
        if ties.any():
            idx = np.nonzero(ties)[0]
            assert np.all(stream.channels[idx + 1] >= stream.channels[idx])

    def test_dead_time_spacing(self, stream, default_detectors):
        dead_ticks = int(round(default_detectors.dead_time_ns / 0.081))
        for ch in range(stream.n_channels):
            t = stream.ticks[stream.channels == ch].astype(np.int64)
            if t.size > 1:
                assert np.diff(t).min() >= dead_ticks

    def test_truth_counts_consistent(self, default_source, default_detectors,
                                     mmi_layout):
        stream, truth = simulate_run(default_source, mmi_layout,
                                     default_detectors, 20000.0, seed=9,
                                     with_truth=True)
        assert len(truth.pre_deadtime) == len(stream) + truth.n_suppressed
        assert truth.detected_pairs <= truth.delivered_pairs
        assert truth.n_emitted >= truth.delivered_pairs * 2

    def test_streams_hold_the_simulated_columns_uncopied(self, monkeypatch, default_source,
                                                         default_detectors, mmi_layout):
        # the stream and the truth stream take the run's uint8 channels and
        # uint64 ticks as they are, with no copy of either
        uncopied = []

        def recorded(channels, ticks, *args, **kwargs):
            stream = TimeTagStream(channels, ticks, *args, **kwargs)
            uncopied.append(stream.channels is channels and stream.ticks is ticks)
            return stream
        monkeypatch.setattr(instrument, "TimeTagStream", recorded)
        simulate_run(default_source, mmi_layout, default_detectors, 1000.0, seed=9,
                     with_truth=True)
        assert uncopied == [True, True]

    @pytest.mark.parametrize("layout", [Layout.hbt(), HOM_PARALLEL, Layout.mmi()],
                             ids=["hbt", "hom", "mmi"])
    @pytest.mark.parametrize("dense", [False, True], ids=["20ks", "dense-1ms"])
    def test_funnel_accounts_for_every_tag(self, layout, dense, default_detectors):
        # dense transits in 1 ms (1,506 duty cycles) of trains of 2,000
        # pulses: a perfect source's photons all survive, and every transit's
        # last attempts come after the wall, so any transit puts tags beyond it
        source, seconds = ((SourceConfig(atom_transit_rate=2e4, pulses_per_transit=2000,
                                         emission_prob=1.0, two_photon_prob=0.0,
                                         dark_state_prob=0.0, overall_efficiency=1.0), 1e-3)
                           if dense else (SourceConfig(), 20_000.0))
        stream, truth = simulate_run(source, layout, default_detectors, seconds,
                                     seed=10, with_truth=True)
        assert (truth.n_kept + truth.n_dark - truth.n_outside - truth.n_suppressed
                == len(stream) > 0)
        assert truth.n_kept <= truth.n_emitted
        if dense:
            assert truth.n_transits > 0 and truth.n_kept == truth.n_emitted
            assert truth.n_outside > 0
        else:
            assert min(truth.n_kept, truth.n_dark, truth.n_suppressed) > 0


class TestPairRate:
    def test_zero_emission_rate(self, mmi_layout):
        src = SourceConfig(emission_prob=0.0, two_photon_prob=0.0,
                           overall_efficiency=0.0)
        assert expected_pair_rate(src, mmi_layout) == 0.0

    def test_perfect_source_matches_enumeration(self, mmi_layout):
        src = SourceConfig(emission_prob=1.0, two_photon_prob=0.0,
                           dark_state_prob=0.0, routing_error_prob=0.0,
                           atom_transit_rate=1.0, overall_efficiency=1.0)
        det = DetectorConfig(dark_rate_per_hour=0.0)
        oracle = enumerate_perfect_pairs(100)
        assert oracle == 49.5
        assert expected_pair_rate(src, mmi_layout) == pytest.approx(oracle)
        # the simulator delivers exactly 49 or 50 pairs per perfect transit
        _, truth = simulate_run(src, mmi_layout, det, 40.0, seed=10,
                                with_truth=True)
        assert 49 * truth.n_transits <= truth.delivered_pairs <= 50 * truth.n_transits
        per_transit = truth.delivered_pairs / max(truth.n_emitted / 100, 1)
        assert 49.0 <= per_transit <= 50.0

    def test_formula_matches_simulation_within_3_sigma(
            self, default_source, default_detectors, mmi_layout):
        rate = expected_pair_rate(default_source, mmi_layout)
        wall = 40000.0
        _, truth = simulate_run(default_source, mmi_layout, default_detectors,
                                wall, seed=7, with_truth=True)
        expected = rate * wall
        assert abs(truth.detected_pairs - expected) <= 3 * np.sqrt(expected)

    def test_default_profile_rate_scale(self, default_source,
                                        default_detectors, mmi_layout):
        rate = expected_pair_rate(default_source, mmi_layout)
        assert 0.01 <= rate <= 0.1


class TestStatisticalCalibration:
    def test_g2_converges_to_configured_contamination(
            self, default_source, default_detectors):
        stream = simulate_run(default_source, Layout.hbt(), default_detectors,
                              250000.0, seed=11)
        assert len(stream) >= 10_000
        hist = cross_correlate(stream, 0, 1, range_ns=9 * 664.0,
                               bin_width=100.0, pitch=20.0)
        res = g2_zero(hist, duty_cycle=default_source.duty_cycle_ns)
        configured = (2 * default_source.two_photon_prob
                      / default_source.emission_prob ** 2)
        sigma = res.g2_zero / np.sqrt(max(res.central_counts, 1.0))
        assert abs(res.g2_zero - configured) <= 3 * sigma

    def test_orthogonal_polarization_gives_classical_counts(
            self, default_source, default_detectors, chip):
        from mmi_lab import coincidence_classical, extract_coincidences, similarity
        layout = Layout(polarization="orthogonal")
        stream = simulate_run(default_source, layout, default_detectors,
                              120000.0, seed=12)
        co = extract_coincidences(stream, window_ns=300.0)
        c = coincidence_classical(chip, 0, 1)
        assert similarity(co.counts.values, c.values) >= 0.99

    def test_delayed_pair_comb_every_second_interval(
            self, default_source, default_detectors):
        # routed pairs arrive every second driving interval: path-level
        # correlations peak at even multiples of the duty cycle, with a
        # strong central peak and small odd peaks from routing errors
        stream = simulate_run(default_source, HOM_ORTHOGONAL,
                              default_detectors, 150000.0, seed=14)
        duty = default_source.duty_cycle_ns
        hist = cross_correlate(stream, 0, 1, range_ns=9 * duty,
                               bin_width=100.0, pitch=20.0)
        res = g2_zero(hist, duty_cycle=duty)
        peaks = res.side_peak_counts
        even = np.mean([peaks[m] for m in (2, 4, -2, -4)])
        odd = np.mean([peaks[m] for m in (1, 3, -1, -3)])
        assert 0.0 < odd < 0.25 * even
        assert peaks[0] > 3.0 * odd  # simultaneous deliveries beat mis-routes


class TestMemory:
    """The simulator's memory follows its output, not its length.

    A block's per-photon arrays die with the block, so the traced peak is
    the last phase's per-tag arrays plus a block's temporaries per thread:
    about 12 bytes per emitted photon at 100 ks and 1,000 ks on one thread,
    and up to 21 at 100 ks on two, where two blocks are alive at once.  The
    single-generator simulator peaked at 30 (100 ks) and 29 (1,000 ks); keeping
    every phase's arrays alive to the end of the run took 120 (mmi, hom) and
    58 (hbt).
    """

    PEAK_BYTES_PER_PHOTON = 24.0

    @pytest.mark.parametrize("layout", [Layout.mmi(), HOM_ORTHOGONAL, Layout.hbt()],
                             ids=["mmi-parallel", "hom-orthogonal", "hbt"])
    def test_peak_bytes_per_emitted_photon(self, default_source, default_detectors, layout):
        # a short run first builds the cached pair sampler and envelope tables
        simulate_run(default_source, layout, default_detectors, 10.0, seed=1)
        for seconds in (100_000.0, 1_000_000.0):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                stream, truth = simulate_run(default_source, layout, default_detectors,
                                             seconds, seed=1, with_truth=True)
                peak = tracemalloc.get_traced_memory()[1] - base
                n_emitted = truth.n_emitted
                del stream, truth
            finally:
                if started:
                    tracemalloc.stop()
            assert n_emitted > 2.5 * seconds
            assert peak / n_emitted < self.PEAK_BYTES_PER_PHOTON, seconds
