import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmi_lab import (CoincidenceDistribution, TimeTagStream, cross_correlate,
                     deadtime_correction, extract_coincidences, g2_zero,
                     sliding_histogram)
from mmi_lab.core import DegenerateDistributionError
from mmi_lab.tagstream import (DEFAULT_TICK_FS, StreamFormatError, _half_bins, median_sorted,
                               quantile_sorted)

TICK_NS = 0.081


def make_stream(times_ns, channels, n_channels=4):
    ticks = np.round(np.asarray(times_ns, dtype=float) / TICK_NS).astype(np.uint64)
    order = np.argsort(ticks, kind="stable")
    return TimeTagStream(np.asarray(channels, np.uint8)[order], ticks[order],
                         n_channels=n_channels)


def to_csv(stream):
    """``channel,tick`` rows with a header line: the text ``from_csv`` reads."""
    lines = ["channel,tick"]
    lines += [f"{int(c)},{int(t)}" for c, t in zip(stream.channels, stream.ticks)]
    return "\n".join(lines) + "\n"


class TestBinaryFormat:
    def test_empty_stream_round_trip(self):
        stream = TimeTagStream(np.array([], np.uint8), np.array([], np.uint64), 4)
        payload = stream.to_bytes()
        assert len(payload) == 16
        back = TimeTagStream.from_bytes(payload)
        assert len(back) == 0
        assert back.n_channels == 4
        assert back.tick_fs == DEFAULT_TICK_FS

    def test_single_record(self):
        stream = TimeTagStream(np.array([2], np.uint8), np.array([1000], np.uint64), 4)
        back = TimeTagStream.from_bytes(stream.to_bytes())
        assert back.channels.tolist() == [2]
        assert back.ticks.tolist() == [1000]

    def test_record_layout(self):
        stream = TimeTagStream(np.array([3], np.uint8), np.array([0x0102030405], np.uint64), 4)
        payload = stream.to_bytes()
        assert payload[:4] == b"TTAG"
        assert len(payload) == 16 + 12
        assert payload[16:24] == (0x0102030405).to_bytes(8, "little")
        assert payload[24] == 3
        assert payload[25:28] == b"\x00\x00\x00"

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2 ** 48)), max_size=200))
    def test_round_trip_property(self, records):
        records.sort(key=lambda r: r[1])
        channels = np.array([r[0] for r in records], np.uint8)
        ticks = np.array([r[1] for r in records], np.uint64)
        stream = TimeTagStream(channels, ticks, 4)
        payload = stream.to_bytes()
        back = TimeTagStream.from_bytes(payload)
        assert np.array_equal(back.channels, channels)
        assert np.array_equal(back.ticks, ticks)
        assert back.to_bytes() == payload

    def test_file_round_trip(self, tmp_path):
        ticks = np.array([0, 5, 5, 2 ** 63, 2 ** 64 - 1], np.uint64)
        stream = TimeTagStream(np.array([3, 0, 1, 2, 3], np.uint8), ticks, 4)
        stream.write_file(tmp_path / "s.ttag")
        back = TimeTagStream.from_file(tmp_path / "s.ttag")
        assert np.array_equal(back.ticks, stream.ticks)
        assert np.array_equal(back.channels, stream.channels)
        assert back.ticks.dtype == np.uint64 and back.channels.dtype == np.uint8
        assert (back.n_channels, back.tick_fs) == (4, DEFAULT_TICK_FS)
        # the file is the header and the record buffer, byte for byte
        assert (tmp_path / "s.ttag").read_bytes() == stream.to_bytes()
        empty = TimeTagStream(np.array([], np.uint8), np.array([], np.uint64), 2, tick_fs=7)
        empty.write_file(tmp_path / "e.ttag")
        assert (tmp_path / "e.ttag").read_bytes() == empty.to_bytes()

    def test_parses_any_bytes_like_payload(self):
        stream = TimeTagStream(np.array([1, 0], np.uint8), np.array([4, 9], np.uint64), 2)
        payload = stream.to_bytes()
        for view in (bytearray(payload), memoryview(payload)):
            back = TimeTagStream.from_bytes(view)
            assert back.to_bytes() == payload

    def test_bad_magic(self):
        with pytest.raises(StreamFormatError, match="magic"):
            TimeTagStream.from_bytes(b"NOPE" + b"\x00" * 12)

    def test_truncated_record(self):
        stream = TimeTagStream(np.array([1], np.uint8), np.array([5], np.uint64), 4)
        with pytest.raises(StreamFormatError, match="truncated"):
            TimeTagStream.from_bytes(stream.to_bytes()[:-3])

    def test_non_monotonic_rejected_with_position(self):
        payload = TimeTagStream(np.array([0, 0], np.uint8),
                                np.array([10, 20], np.uint64), 2).to_bytes()
        swapped = payload[:16] + payload[28:] + payload[16:28]
        with pytest.raises(StreamFormatError, match="record 1"):
            TimeTagStream.from_bytes(swapped)

    def test_columns_are_aligned_copies(self):
        # the tick kernels get contiguous, aligned columns, not strided views
        # into the 12-byte records, and the payload is not kept alive
        payload = TimeTagStream(np.array([1, 0, 3], np.uint8),
                                np.array([5, 9, 9], np.uint64), 4).to_bytes()
        stream = TimeTagStream.from_bytes(payload)
        for column in (stream.ticks, stream.channels):
            assert column.flags.c_contiguous and column.flags.aligned and column.flags.owndata
            assert not np.shares_memory(column, np.frombuffer(payload, np.uint8))
        assert stream.ticks.tolist() == [5, 9, 9] and stream.channels.tolist() == [1, 0, 3]

    def test_zero_tick_size_rejected(self):
        payload = TimeTagStream(np.array([1], np.uint8), np.array([5], np.uint64), 4,
                                tick_fs=0).to_bytes()
        with pytest.raises(StreamFormatError, match="tick size"):
            TimeTagStream.from_bytes(payload)


class TestColumns:
    def test_column_dtypes_are_kept_uncopied(self):
        # the simulator, from_bytes and select hand over uint8 channels and
        # uint64 ticks, which the stream holds as they are
        channels, ticks = np.array([1, 0, 1], np.uint8), np.array([5, 9, 9], np.uint64)
        stream = TimeTagStream(channels, ticks, 2)
        assert stream.channels is channels and stream.ticks is ticks

    def test_integral_floats_are_valid(self):
        stream = TimeTagStream(np.array([0.0, 3.0]), np.array([7.0, 2.0 ** 60]), 4)
        assert stream.channels.dtype == np.uint8 and stream.ticks.dtype == np.uint64
        assert stream.channels.tolist() == [0, 3] and stream.ticks.tolist() == [7, 2 ** 60]

    @pytest.mark.parametrize("tick", [-1, 0.5, 1.7, np.nan, np.inf, 2.0 ** 64],
                             ids=["negative", "half", "fraction", "nan", "inf", "past-u64"])
    def test_tick_outside_the_u64_column_is_refused(self, tick):
        # before, -1 wrapped to 2**64 - 1, 0.5 and 1.7 became 0 and 1, and nan
        # became 2**63 with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StreamFormatError, match="tick .* at record 1 is not a whole"):
                TimeTagStream(np.array([0, 0], np.uint8), np.array([0, tick]), 2)

    @pytest.mark.parametrize("channel", [300, 256, -1, 1.5])
    def test_channel_outside_the_u8_column_is_refused(self, channel):
        # before, 300 was refused as channel 44 and 256 passed as channel 0
        with pytest.raises(StreamFormatError, match=f"channel {channel} at record 1"):
            TimeTagStream(np.array([0, channel]), np.array([0, 1], np.uint64), 2)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("kernel", [
    lambda s, x: extract_coincidences(s, window_ns=x),
    lambda s, x: extract_coincidences(s, window_ns=300.0, time_offset_ns=x),
    lambda s, x: cross_correlate(s, 0, 1, range_ns=x),
    lambda s, x: cross_correlate(s, 0, 1, range_ns=100.0, bin_width=x, pitch=x),
    lambda s, x: sliding_histogram(s, fold_period=x),
    lambda s, x: sliding_histogram(s, fold_period=664.0, bin_width=x, pitch=x),
], ids=["window", "offset", "range", "pitch", "fold period", "fold pitch"])
def test_non_finite_bounds_rejected(kernel, bad):
    # a bound must become whole femtoseconds, which inf and nan cannot
    with pytest.raises(ValueError):
        kernel(make_stream([0.0, 10.0], [0, 1], n_channels=2), bad)


class TestCsvFormat:
    def test_round_trip(self):
        stream = make_stream([10.0, 30.0, 31.0], [0, 2, 1])
        text = to_csv(stream)
        assert text.splitlines()[0] == "channel,tick"
        back = TimeTagStream.from_csv(text)
        assert np.array_equal(back.ticks, stream.ticks)
        assert np.array_equal(back.channels, stream.channels)
        # read at the default tick, with one channel past the highest named
        assert (back.n_channels, back.tick_fs) == (3, DEFAULT_TICK_FS)

    def test_bad_row_reported(self):
        with pytest.raises(StreamFormatError, match="row 2"):
            TimeTagStream.from_csv("channel,tick\n0,5\nbroken\n")

    @pytest.mark.parametrize("row", ["256,5", "-1,5", "1,-5", f"1,{2 ** 64}"])
    def test_out_of_range_row_reported(self, row):
        with pytest.raises(StreamFormatError, match="row 2"):
            TimeTagStream.from_csv(f"channel,tick\n0,5\n{row}\n")

    def test_extreme_values_accepted(self):
        stream = TimeTagStream.from_csv(f"0,5\n255,{2 ** 64 - 1}\n")
        assert stream.n_channels == 256
        assert int(stream.ticks[-1]) == 2 ** 64 - 1


class TestSlidingHistogram:
    def test_empty_stream_zero_profile(self):
        stream = TimeTagStream(np.array([], np.uint8), np.array([], np.uint64), 2)
        prof = sliding_histogram(stream, bin_width=40, pitch=4, fold_period=664.0)
        assert prof.counts.sum() == 0

    def test_poisson_stream_flat(self, rng):
        # 100 periods of uniform arrivals fold onto a flat profile
        times = np.sort(rng.uniform(0, 1e8, 20000))
        stream = make_stream(times, np.zeros(20000), n_channels=1)
        prof = sliding_histogram(stream, bin_width=1000.0, pitch=1000.0,
                                 fold_period=1e6)
        expected = 20.0
        dev = np.abs(prof.counts - expected) / np.sqrt(expected)
        assert np.mean(dev <= 3.0) >= 0.985  # per-bin 3-sigma counting noise
        assert dev.max() <= 5.0

    def test_instant_burst_plateau(self):
        times = np.full(500, 7 * 10000.0 + 5000.0)
        stream = make_stream(times, np.zeros(500), n_channels=1)
        prof = sliding_histogram(stream, bin_width=40.0, pitch=4.0, fold_period=10000.0)
        occupied = prof.counts >= 499
        width = occupied.sum() * prof.pitch
        assert abs(width - prof.bin_width) <= 2 * prof.pitch

    def test_simulated_pulse_profile_peak(self, default_source,
                                          default_detectors, mmi_layout):
        from mmi_lab import simulate_run
        stream = simulate_run(default_source, mmi_layout, default_detectors,
                              60000.0, seed=99)
        prof = sliding_histogram(stream, bin_width=40.0, pitch=4.0,
                                 fold_period=664.0)
        # quadratic vertex around the densest window tames the flat-top jitter
        top = np.argmax(prof.counts)
        sel = np.abs(prof.centers - prof.centers[top]) <= 40.0
        coef = np.polyfit(prof.centers[sel], prof.counts[sel], 2)
        peak = -coef[1] / (2 * coef[0])
        assert abs(peak - 150.0) <= 5.0

    def test_pitch_validation(self):
        stream = make_stream([1.0], [0], n_channels=1)
        with pytest.raises(ValueError):
            sliding_histogram(stream, bin_width=4.0, pitch=40.0, fold_period=664.0)

    @pytest.mark.parametrize("pitch", [2.0 ** 64 / 1e6, 1e300])
    def test_pitch_past_u64_is_value_error(self, pitch):
        # 2**64 fs and more cannot be a u64 divisor of the phase
        stream = make_stream([1.0, 700.0], [0, 0], n_channels=1)
        with pytest.raises(ValueError, match="past the u64 phase range"):
            sliding_histogram(stream, bin_width=pitch, pitch=pitch, fold_period=664.0)
        # the largest pitches below it fold everything into one bin
        prof = sliding_histogram(stream, bin_width=1e13, pitch=1e13, fold_period=664.0)
        assert prof.counts.tolist() == [2]

    @pytest.mark.parametrize("fold_period", [0.0, -664.0, 1e9])
    def test_fold_period_validation(self, fold_period):
        # 1 s on 81 ps ticks would overflow the exact u64 phase product
        stream = make_stream([1.0], [0], n_channels=1)
        with pytest.raises(ValueError, match="fold period"):
            sliding_histogram(stream, bin_width=8.0, pitch=8.0, fold_period=fold_period)


class TestCrossCorrelate:
    def test_single_pair_at_500ns(self):
        stream = make_stream([1000.0, 1500.0], [0, 1], n_channels=2)
        hist = cross_correlate(stream, 0, 1, range_ns=2000.0, bin_width=20.0,
                               pitch=20.0)
        centers = hist.fine_edges[:-1] + 10.0
        hit = np.abs(centers - 500.0) <= 10.0
        assert hist.fine_counts[hit].sum() == 1
        assert hist.fine_counts.sum() == 1

    def test_independent_poisson_flat(self, rng):
        n = 30000
        times = np.sort(rng.uniform(0, 3e7, n))
        chans = rng.integers(0, 2, n)
        stream = make_stream(times, chans, n_channels=2)
        hist = cross_correlate(stream, 0, 1, range_ns=5000.0, bin_width=500.0,
                               pitch=500.0)
        counts = hist.fine_counts.astype(float)
        mean = counts.mean()
        assert np.all(np.abs(counts - mean) <= 5 * np.sqrt(mean))

    def test_histogram_totals_count_qualifying_pairs(self):
        times = [0.0, 10.0, 20.0, 700.0]
        chans = [0, 1, 0, 1]
        stream = make_stream(times, chans, n_channels=2)
        hist = cross_correlate(stream, 0, 1, range_ns=1000.0, bin_width=50.0,
                               pitch=50.0)
        # qualifying (a, b) pairs: (0,10) (0,700) (20,10) (20,700)
        assert hist.total_pairs() == 4

    def test_same_channel_rejected(self):
        stream = make_stream([0.0, 10.0, 20.0], [1, 1, 0], n_channels=2)
        with pytest.raises(ValueError, match="two channels"):
            cross_correlate(stream, 1, 1, range_ns=100.0)

    def test_span_past_int64_separations_is_refused(self):
        # two tags 1e15 ns apart inside a 2e15 ns range: the int64 separation
        # in fs would wrap and count the pair at 3.875e12 ns
        stream = make_stream([0.0, 1e15], [0, 1], n_channels=2)
        with pytest.raises(ValueError, match=r"span of 2e\+15 ns reaches 2\*\*63 fs"):
            cross_correlate(stream, 0, 1, range_ns=2e15, bin_width=1e9, pitch=1e9)

    def test_span_limit_is_2_to_the_63_fs(self):
        # 2**20 fs pitches: the span n_half * 2**20 fs reaches 2**63 at 2**43 bins
        pitch = 2 ** 20 * 1e-6
        assert _half_bins((2 ** 43 - 1) * pitch, pitch, pitch) == (2 ** 43 - 1, 2 ** 20)
        with pytest.raises(ValueError, match="past the int64 pair separations"):
            _half_bins(2 ** 43 * pitch, pitch, pitch)

    def test_simulated_hbt_comb(self, default_source, default_detectors):
        from mmi_lab import Layout, simulate_run
        stream = simulate_run(default_source, Layout.hbt(), default_detectors,
                              60000.0, seed=13)
        hist = cross_correlate(stream, 0, 1, range_ns=9 * 664.0,
                               bin_width=100.0, pitch=20.0)
        res = g2_zero(hist, duty_cycle=664.0)
        side = {m: v for m, v in res.side_peak_counts.items() if m != 0}
        # comb: side peaks well above the inter-peak floor
        centers = hist.fine_edges[:-1] + hist.pitch / 2
        floor_sel = np.abs(np.abs(centers) % 664.0 - 332.0) < 100.0
        floor = hist.fine_counts[floor_sel].mean()
        assert min(side.values()) > 20 * max(floor, 0.05)
        # suppressed centre
        assert res.central_counts < 0.3 * np.mean(list(side.values()))
        # dark-state decay of the side-peak envelope
        ms = np.array(sorted(m for m in side if m > 0))
        vals = np.array([side[m] for m in ms])
        slope = np.polyfit(ms, vals, 1)[0]
        assert slope < 0


class TestG2Zero:
    def test_no_same_interval_pairs_gives_zero(self, rng):
        # one tag per driving interval, alternating channels
        n = 4000
        times = np.arange(n) * 664.0 + rng.uniform(100, 250, n)
        chans = np.arange(n) % 2
        stream = make_stream(times, chans, n_channels=2)
        hist = cross_correlate(stream, 0, 1, range_ns=9 * 664.0,
                               bin_width=100.0, pitch=20.0)
        res = g2_zero(hist, duty_cycle=664.0)
        assert res.g2_zero == pytest.approx(0.0, abs=0.02)

    def test_poisson_light_normalises_to_one(self, rng):
        lam = 0.35  # mean tags per interval per channel
        n_int = 40000
        times, chans = [], []
        for ch in (0, 1):
            counts = rng.poisson(lam, n_int)
            for interval in np.nonzero(counts)[0]:
                for _ in range(counts[interval]):
                    times.append(interval * 664.0 + rng.uniform(0, 300.0))
                    chans.append(ch)
        stream = make_stream(times, chans, n_channels=2)
        hist = cross_correlate(stream, 0, 1, range_ns=9 * 664.0,
                               bin_width=100.0, pitch=20.0)
        res = g2_zero(hist, duty_cycle=664.0)
        assert res.g2_zero == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("range_ns, n_peaks", [(3631.0, 4), (3641.0, 5), (3652.0, 5)])
    def test_peak_count_follows_the_histogram_span(self, range_ns, n_peaks):
        # peak m counts when its window, m duty cycles +/- half of one, lies
        # inside the histogram, whose span is the range rounded up to whole
        # 20 ns pitches: 3641 ns spans 3660 >= 5.5 * 664 = 3652, so peak 5
        # counts although the range stops 11 ns short of its window's edge
        stream = make_stream(np.arange(40) * 664.0 + 100.0, np.arange(40) % 2, n_channels=2)
        hist = cross_correlate(stream, 0, 1, range_ns=range_ns, bin_width=100.0, pitch=20.0)
        if n_peaks < 5:
            with pytest.raises(ValueError, match="covers only 4 side peaks"):
                g2_zero(hist, duty_cycle=664.0)
        else:
            res = g2_zero(hist, duty_cycle=664.0)
            assert sorted(res.side_peak_counts) == list(range(-n_peaks, n_peaks + 1))
            # 35 pairs five cycles apart: 18 with channel 0 first, 17 with 1 first
            assert (res.side_peak_counts[5], res.side_peak_counts[-5]) == (18.0, 17.0)

    def test_range_must_cover_side_peaks(self):
        stream = make_stream([0.0, 10.0], [0, 1], n_channels=2)
        hist = cross_correlate(stream, 0, 1, range_ns=2 * 664.0,
                               bin_width=100.0, pitch=20.0)
        with pytest.raises(ValueError, match="side peaks"):
            g2_zero(hist, duty_cycle=664.0)


class TestExtractCoincidences:
    def test_simple_pair(self):
        stream = make_stream([100.0, 110.0], [0, 2], n_channels=4)
        co = extract_coincidences(stream, window_ns=300.0)
        assert len(co) == 1
        assert co.pair_k.tolist() == [0]
        assert co.pair_l.tolist() == [2]
        assert co.dtau_ns[0] == pytest.approx(10.0, abs=0.1)

    def test_separation_beyond_window(self):
        stream = make_stream([100.0, 500.0], [0, 2], n_channels=4)
        co = extract_coincidences(stream, window_ns=300.0)
        assert len(co) == 0
        assert co.n_unmatched == 2

    def test_greedy_uses_each_tag_once(self):
        stream = make_stream([0.0, 50.0, 100.0], [0, 1, 2], n_channels=4)
        co = extract_coincidences(stream, window_ns=300.0)
        assert len(co) == 1  # earliest two pair up, third left unmatched
        assert co.pair_k.tolist() == [0] and co.pair_l.tolist() == [1]
        assert co.n_unmatched == 1

    def test_conservation_property(self, rng):
        n = 2001
        times = np.sort(rng.uniform(0, 1e6, n))
        stream = make_stream(times, rng.integers(0, 4, n))
        co = extract_coincidences(stream, window_ns=200.0)
        assert 2 * len(co) + co.n_unmatched == n
        assert len(co) <= n // 2

    def test_time_offset_selection(self):
        duty = 664.0
        times = [100.0, 130.0, 100.0 + 2 * duty, 150.0 + 2 * duty]
        chans = [0, 1, 1, 1]
        stream = make_stream(times, chans, n_channels=4)
        co = extract_coincidences(stream, window_ns=300.0,
                                  time_offset_ns=2 * duty)
        # pairs (tag0, tag2) and (tag1, tag3): separations 2*duty and 2*duty+20
        assert len(co) == 2
        assert np.allclose(sorted(np.abs(co.dtau_ns)), [0.0, 20.0], atol=0.1)
        assert co.counts[(0, 1)] == 1
        assert co.counts[(1, 1)] == 1


class TestDeadtimeCorrection:
    SPAN = 83 * 8.0  # |dtau| fit range: all 83 bins of the profile

    def _profile(self, envelope_like=True):
        # synthetic sin^2-shaped folded intensity profile
        t = (np.arange(83) + 0.5) * 8.0
        counts = np.where(t < 300.0, np.sin(np.pi * t / 300.0) ** 2, 0.0) * 1000
        from mmi_lab.tagstream import Histogram
        return Histogram(fine_edges=np.arange(84) * 8.0, fine_counts=counts, pitch=8.0,
                         bin_width=8.0, centers=t, counts=counts)

    def test_zero_recovery_time_is_identity(self, rng):
        measured = CoincidenceDistribution(4, rng.integers(0, 50, 10).astype(float))
        res = deadtime_correction(rng.uniform(0, 300, 500), self._profile(),
                                  0.0, np.ones(4), measured, self.SPAN)
        assert np.array_equal(res.corrected.values, measured.values)
        assert res.missed == 0.0

    def test_negative_deficit_clamped_with_warning(self, rng):
        # all events concentrated inside the window: fitted tail ~ 0
        measured = CoincidenceDistribution(4, np.ones(10))
        dtaus = rng.uniform(0, 40, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the flag is the only report
            res = deadtime_correction(dtaus, self._profile(), 50.0,
                                      np.ones(4), measured, self.SPAN)
        assert res.missed == 0.0
        assert res.clamped is True

    def test_profile_bin_width_does_not_move_correction(self, default_detectors, mmi_layout):
        # the fit reads the per-pitch folded histogram, never the sliding sums
        from mmi_lab import SourceConfig, simulate_run
        stream = simulate_run(SourceConfig(coherence_jitter_sd=0.0), mmi_layout,
                              default_detectors, 30_000.0, seed=40_000)
        meas = extract_coincidences(stream, window_ns=300.0)
        ref = extract_coincidences(stream, window_ns=300.0, time_offset_ns=2 * 664.0)
        results = [deadtime_correction(
            meas.dtau_ns, sliding_histogram(stream, fold_period=664.0, bin_width=width, pitch=8.0),
            50.0, ref.same_detector_counts(), meas.counts, max_dtau_ns=300.0)
            for width in (8.0, 16.0, 40.0)]
        assert results[0].missed > 0
        for res in results[1:]:
            assert (res.missed, res.missed_sigma, res.fit_scale) == (
                results[0].missed, results[0].missed_sigma, results[0].fit_scale)
            assert np.array_equal(res.corrected.values, results[0].corrected.values)

    def test_reference_validation(self, rng):
        measured = CoincidenceDistribution(4, np.ones(10))
        with pytest.raises(ValueError):
            deadtime_correction(rng.uniform(0, 300, 50), self._profile(), 50.0,
                                np.zeros(4), measured, self.SPAN)

    def test_bins_beyond_recovery_time(self, rng):
        # fewer than two bins past the recovery time is a matter of the
        # widths alone; a flat profile, all pedestal, is one of the data
        measured = CoincidenceDistribution(4, np.ones(10))
        with pytest.raises(ValueError, match="0 profile bins") as info:
            deadtime_correction(rng.uniform(0, 300, 50), self._profile(), 50.0,
                                np.ones(4), measured, max_dtau_ns=48.0)
        assert not isinstance(info.value, DegenerateDistributionError)
        flat = replace(self._profile(), fine_counts=np.full(83, 7.0))
        with pytest.raises(DegenerateDistributionError, match="profile is empty"):
            deadtime_correction(rng.uniform(0, 300, 50), flat, 50.0,
                                np.ones(4), measured, self.SPAN)

    def test_missed_counts_distributed_like_reference(self, rng):
        # half the pair mass removed below 50 ns; reference all on channel 1
        t = rng.uniform(0, 300, 40000)
        u = rng.uniform(0, 300, 40000)
        w = np.sin(np.pi * t / 300) ** 2 * np.sin(np.pi * u / 300) ** 2
        keep = rng.random(40000) < w / w.max()
        dt_all = np.abs(t - u)[keep]
        dt_kept = dt_all[dt_all > 50.0]
        measured = CoincidenceDistribution(4, np.zeros(10))
        ref = np.array([0.0, 3.0, 0.0, 1.0])
        res = deadtime_correction(dt_kept, self._profile(), 50.0, ref, measured,
                                  self.SPAN)
        added = res.corrected.same_detector_values()
        assert added[1] == pytest.approx(0.75 * res.missed, rel=1e-9)
        assert added[3] == pytest.approx(0.25 * res.missed, rel=1e-9)
        true_missing = (dt_all <= 50.0).sum()
        assert res.missed == pytest.approx(true_missing, rel=0.15)


class TestSortedOrderStatistics:
    """``median_sorted`` and ``quantile_sorted`` against ``np.median`` and
    ``np.quantile`` (linear method), bit for bit."""

    @staticmethod
    def check(values, q):
        s = np.sort(values)
        for got, want in ((median_sorted(s), np.median(values)),
                          (quantile_sorted(s, q), np.quantile(values, q))):
            assert type(got) is type(want) is np.float64
            assert got.view(np.int64) == want.view(np.int64), (got, want)

    def test_every_size_up_to_2000_with_ties(self):
        rng = np.random.default_rng(17)
        for n in range(1, 2001):
            levels = rng.integers(1, n + 1)  # 1 level: all tied; n levels: few ties
            values = rng.integers(0, levels, n) * 0.1 + rng.standard_normal(levels)[0]
            self.check(values, 0.9)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300).map(lambda x: x + 0.0), min_size=1, max_size=40),
           st.one_of(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0)))
    def test_any_finite_values_and_quantile(self, values, q):
        # x + 0.0 turns -0.0 into 0.0: np.quantile partitions instead of
        # sorting, so which of two tied zeros it returns is not defined
        self.check(np.array(values * 2 if len(values) % 3 == 0 else values), q)
