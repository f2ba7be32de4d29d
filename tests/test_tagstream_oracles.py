"""The array tag kernels against the loops in ``tagstream_oracles``.

Every comparison is exact: the kernels must reproduce the Python-int
loops bit for bit on every stream, and the original float64 loops on the
streams where float64 nanoseconds are exact (1 ns ticks below 2**53).
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tagstream_oracles import (_pair_greedy_loop, _pair_neighbours, _pair_offset,
                               int_oracle_cross_correlate, int_oracle_extract_coincidences,
                               int_oracle_fold_counts, oracle_cross_correlate,
                               oracle_extract_coincidences, oracle_pedestal,
                               oracle_same_detector_counts)
from tagstream_oracles import cross_correlate as parent_cross_correlate
from tagstream_oracles import g2_zero as oracle_g2_zero
from tagstream_oracles import sliding_histogram as parent_sliding_histogram

from mmi_lab import (DetectorConfig, Layout, SourceConfig, TimeTagStream, cross_correlate,
                     extract_coincidences, g2_zero, simulate_run, sliding_histogram)
from mmi_lab.tagstream import DEFAULT_TICK_FS, _histogram, _pair_greedy, _pedestal

UNIT_TICK_FS = 1_000_000  # 1 ns ticks: times, windows and offsets are exact
# start ticks of 81 ps streams near 380 ks (the headline run), near 1e6 s
# and at the top of the u64 range
LATE_STARTS = {"380 ks": 4_691_358_024_691_358, "1e6 s": 12_345_679_012_345_679,
               "u64 top": 2 ** 64 - 1 - 20_000}


def float_exact(stream):
    return stream.tick_fs == UNIT_TICK_FS and not np.any(stream.ticks >> np.uint64(53))


def assert_same_coincidences(got, want):
    for name in ("pair_k", "pair_l", "dtau_ns"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(got.counts.values, want.counts.values)
    assert got.n_unmatched == want.n_unmatched
    assert np.array_equal(got.same_detector_counts(), oracle_same_detector_counts(want))


def check_pairing(stream, window_ns, time_offset_ns=0.0, channels=None):
    sub = stream if channels is None else stream.select(channels)
    got = extract_coincidences(sub, window_ns, time_offset_ns=time_offset_ns)
    oracles = [int_oracle_extract_coincidences]
    if float_exact(stream):
        oracles.append(oracle_extract_coincidences)
    for oracle in oracles:
        assert_same_coincidences(got, oracle(stream, window_ns, channels=channels,
                                             time_offset_ns=time_offset_ns))
    return got


def check_correlation(stream, ch_a, ch_b, range_ns, pitch):
    if ch_a == ch_b:
        # same-channel correlation is not supported
        with pytest.raises(ValueError, match="two channels"):
            cross_correlate(stream, ch_a, ch_b, range_ns=range_ns, bin_width=pitch,
                            pitch=pitch)
        return None
    hist = cross_correlate(stream, ch_a, ch_b, range_ns=range_ns, bin_width=pitch,
                           pitch=pitch)
    oracles = [int_oracle_cross_correlate]
    if float_exact(stream):
        oracles.append(oracle_cross_correlate)
    for oracle in oracles:
        want = oracle(stream, ch_a, ch_b, range_ns, pitch)
        assert hist.fine_counts.dtype == want.dtype
        assert np.array_equal(hist.fine_counts, want)
    return hist


@pytest.mark.parametrize("tick_fs", [2 ** 62, 2 ** 63, 2 ** 64 - 1])
def test_correlation_with_ticks_longer_than_the_range(tick_fs):
    # only the simultaneous tags (ticks 5 and 9) pair, in the bin at 0; the
    # ticks' femtoseconds are past int64 from 2**63 on
    stream = TimeTagStream(np.array([0, 1, 1, 0, 1, 0], np.uint8),
                           np.array([5, 5, 6, 9, 9, 12], np.uint64), 2, tick_fs)
    hist = check_correlation(stream, 0, 1, 1000.0, 50.0)
    assert hist.fine_counts.sum() == 2 and hist.fine_counts[hist.fine_edges[:-1] == 0.0] == 2


@st.composite
def tag_streams(draw, n_channels=4, starts=st.integers(0, 1000)):
    """Streams whose gaps hit the window and offset edges, counted in ticks.

    Returns ``(stream, window_ns, time_offset_ns)``; gaps of zero put equal
    ticks on different channels, runs of small gaps make bursts denser
    than the window.  The first tag is at a tick drawn from ``starts``.
    """
    window = draw(st.integers(1, 20))
    offset = draw(st.integers(0, 60))
    edges = sorted({0, 1, window, offset, max(offset - window, 0), offset + window})
    gap = st.one_of(st.sampled_from(edges), st.integers(0, 2 * (offset + window) + 2))
    gaps = draw(st.lists(gap, max_size=60))
    ticks = np.uint64(draw(starts)) + np.cumsum(np.array(gaps, dtype=np.uint64))
    chans = draw(st.lists(st.integers(0, n_channels - 1), min_size=len(gaps),
                          max_size=len(gaps)))
    tick_fs = draw(st.sampled_from([UNIT_TICK_FS, DEFAULT_TICK_FS]))
    stream = TimeTagStream(np.array(chans, np.uint8), ticks.astype(np.uint64),
                           n_channels, tick_fs)
    scale = stream.tick_ns
    return stream, window * scale, offset * scale


channel_subsets = st.one_of(st.none(), st.lists(st.integers(0, 3), min_size=1,
                                                max_size=4, unique=True))


@settings(max_examples=300, deadline=None)
@given(tag_streams(), channel_subsets)
def test_zero_offset_pairing_matches_loop(case, channels):
    stream, window, _ = case
    check_pairing(stream, window, channels=channels)


@settings(max_examples=300, deadline=None)
@given(tag_streams(), channel_subsets)
def test_time_offset_pairing_matches_loop(case, channels):
    stream, window, offset = case
    check_pairing(stream, window, time_offset_ns=offset, channels=channels)


@settings(max_examples=300, deadline=None)
@given(tag_streams(), st.integers(0, 3), st.integers(0, 3), st.integers(1, 80),
       st.sampled_from([1.0, 2.5, 3.0, 7.0]))
def test_cross_correlate_matches_loop(case, ch_a, ch_b, range_ticks, pitch):
    stream, _, _ = case
    check_correlation(stream, ch_a, ch_b, range_ticks * stream.tick_ns, pitch)


late_starts = st.one_of(*(st.integers(a - 1000, a) for a in LATE_STARTS.values()))


@settings(max_examples=200, deadline=None)
@given(tag_streams(starts=late_starts), channel_subsets, st.booleans())
def test_pairing_matches_int_loop_at_late_ticks(case, channels, with_offset):
    stream, window, offset = case
    check_pairing(stream, window, time_offset_ns=offset if with_offset else 0.0,
                  channels=channels)


@settings(max_examples=200, deadline=None)
@given(tag_streams(starts=late_starts), st.integers(0, 3), st.integers(0, 3),
       st.integers(1, 80), st.sampled_from([1.0, 2.5, 3.0, 7.0]))
def test_cross_correlate_matches_int_loop_at_late_ticks(case, ch_a, ch_b, range_ticks,
                                                         pitch):
    stream, _, _ = case
    check_correlation(stream, ch_a, ch_b, range_ticks * stream.tick_ns, pitch)


@settings(max_examples=200, deadline=None)
@given(tag_streams(starts=st.one_of(st.integers(0, 1000), late_starts)),
       st.sampled_from([664.0, 100.0, 12.5, 0.081 * 7]), st.sampled_from([8.0, 4.0, 0.5]))
def test_fold_matches_int_loop(case, fold_period, pitch):
    stream, _, _ = case
    prof = sliding_histogram(stream, fold_period=fold_period, bin_width=pitch, pitch=pitch)
    want = int_oracle_fold_counts(stream, fold_period, pitch)
    assert prof.fine_counts.dtype == want.dtype
    assert np.array_equal(prof.fine_counts, want)


def test_dense_burst_across_chunks(monkeypatch):
    # bursts far denser than the range, split over many small chunks
    monkeypatch.setattr("mmi_lab.tagstream._CHUNK_TAGS", 7)
    rng = np.random.default_rng(5)
    ticks = np.sort(rng.integers(0, 400, 300)).astype(np.uint64)
    stream = TimeTagStream(rng.integers(0, 2, 300).astype(np.uint8), ticks, 2,
                           UNIT_TICK_FS)
    check_correlation(stream, 0, 1, 50.0, 2.5)
    check_correlation(stream, 1, 1, 50.0, 2.5)


# -- edge cases ------------------------------------------------------------


def _stream(ticks, chans, n_channels=4):
    return TimeTagStream(np.array(chans, np.uint8), np.array(ticks, np.uint64),
                         n_channels, UNIT_TICK_FS)


EDGE_STREAMS = {
    "empty": _stream([], []),
    "one tag": _stream([10], [2]),
    "single channel": _stream([0, 3, 5, 40, 41, 42, 100], [1] * 7),
}


@pytest.mark.parametrize("name", EDGE_STREAMS)
@pytest.mark.parametrize("offset", [0.0, 30.0])
def test_pairing_edge_streams(name, offset):
    stream = EDGE_STREAMS[name]
    co = check_pairing(stream, 5.0, time_offset_ns=offset)
    assert 2 * len(co) + co.n_unmatched == len(stream)


@pytest.mark.parametrize("name", EDGE_STREAMS)
@pytest.mark.parametrize("ch_a, ch_b", [(1, 1), (0, 1), (1, 2)])
def test_cross_correlate_edge_streams(name, ch_a, ch_b):
    check_correlation(EDGE_STREAMS[name], ch_a, ch_b, 50.0, 5.0)


def _same_channel(ticks, window, offset=0):
    return _stream(ticks, [0] * len(ticks)), float(window), float(offset)


U64_TOP = 2 ** 64 - 1
# bounds in ticks from a case's window w and offset o; a window narrower
# than a tick, half a tick past o, admits no separation at all (lo > hi)
PAIRING_BOUNDS = {"offset": lambda w, o: (o - w, o + w),
                  "zero offset": lambda w, o: (-w, w),
                  "sub-tick window": lambda w, o: (o + 1, o)}


@settings(max_examples=400, deadline=None)
@given(tag_streams(starts=st.one_of(st.integers(0, 1000), late_starts)),
       st.sampled_from(list(PAIRING_BOUNDS)))
@example(_same_channel([], 3), "zero offset")
@example(_same_channel([], 3, 5), "offset")
@example(_same_channel([7], 3), "zero offset")
@example(_same_channel([7], 3, 5), "offset")
@example(_same_channel([5, 5, 5, 5, 5], 2), "zero offset")
@example(_same_channel([5, 5, 5, 9, 9, 9], 2, 4), "offset")
@example(_same_channel([0, 3, 5, 6, 40, 41, 100], 2, 3), "sub-tick window")
@example(_same_channel([U64_TOP - 9, U64_TOP - 8, U64_TOP - 4, U64_TOP], 4), "zero offset")
@example(_same_channel([U64_TOP - 9, U64_TOP - 8, U64_TOP - 4, U64_TOP], 2, 5), "offset")
@example(_same_channel([0, 1, 2, 10, 11, 12, 13, 14, 30, 31, 32, 33, 34, 35], 2),
         "zero offset")
# bounds [3, 5]: a 12-tag run whose three fronts 0, 1, 2 are kept, then 0
# and 1 expire at 7, which pairs with 2
@example(_same_channel([0, 1, 2, 7, 8, 9, 10, 11, 12, 13, 14, 18], 1, 4), "offset")
# bounds [3, 5]: 4 pairs with 0 and empties the buffer, which 5 and 6 refill
@example(_same_channel([0, 4, 5, 6, 9, 10, 11], 1, 4), "offset")
# bounds [4, 3]: a 10-tag run in which nothing pairs and every front expires
@example(_same_channel(list(range(10)), 2, 3), "sub-tick window")
# bounds [3, 5] at the top of the u64 range, with a front expiring there
@example(_same_channel([U64_TOP - 12, U64_TOP - 11, U64_TOP - 10, U64_TOP - 6, U64_TOP - 5,
                        U64_TOP - 2, U64_TOP], 1, 4), "offset")
def test_pair_greedy_matches_the_kernels_it_replaced(case, bounds):
    stream, window, offset = case
    lo, hi = PAIRING_BOUNDS[bounds](round(window / stream.tick_ns),
                                    round(offset / stream.tick_ns))
    got = _pair_greedy(stream.ticks, lo, hi)
    for want in (_pair_neighbours(stream.ticks, hi) if lo <= 0
                 else _pair_offset(stream.ticks, lo, hi),
                 _pair_greedy_loop(stream.ticks, lo, hi)):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_empty_pairing_shapes():
    co = extract_coincidences(EDGE_STREAMS["empty"], window_ns=5.0)
    assert co.pair_k.shape == co.pair_l.shape == co.dtau_ns.shape == (0,)
    assert co.counts.values.sum() == 0 and co.n_unmatched == 0


# -- window edges at late ticks ----------------------------------------------

# 3703 ticks of 81 ps are 299.943 ns, 3704 are 300.024 ns: at these start
# ticks float64 nanoseconds cannot tell them apart from a 300 ns bound
EDGE_GAPS = (3703, 3704)


def _tag_pair(start, gap, chans=(0, 1)):
    return TimeTagStream(np.array(chans, np.uint8), np.array([start, start + gap], np.uint64),
                         4, DEFAULT_TICK_FS)


@pytest.mark.parametrize("anchor", LATE_STARTS)
@pytest.mark.parametrize("gap", EDGE_GAPS)
@pytest.mark.parametrize("window, offset, inside", [
    (300.0, 0.0, 3703),     # zero offset: upper bound at 300 ns
    (100.0, 200.0, 3703),   # time offset: upper bound at 300 ns
    (300.0, 600.0, 3704),   # time offset: lower bound at 300 ns
])
def test_pairing_window_edge_at_late_ticks(anchor, gap, window, offset, inside):
    for start in range(LATE_STARTS[anchor] - 9000, LATE_STARTS[anchor], 997):
        stream = _tag_pair(start, gap)
        co = extract_coincidences(stream, window, time_offset_ns=offset)
        want = [gap * stream.tick_ns - offset] if gap == inside else []
        assert co.dtau_ns.tolist() == want, start
        assert co.n_unmatched == 2 - 2 * len(want)


@pytest.mark.parametrize("anchor", LATE_STARTS)
@pytest.mark.parametrize("gap", EDGE_GAPS)
@pytest.mark.parametrize("chans", [(0, 1), (1, 0)])
def test_correlation_range_edge_at_late_ticks(anchor, gap, chans):
    for start in range(LATE_STARTS[anchor] - 9000, LATE_STARTS[anchor], 997):
        hist = cross_correlate(_tag_pair(start, gap, chans), 0, 1, range_ns=300.0,
                               bin_width=20.0, pitch=20.0)
        # +299.943 ns is the last bin, -299.943 ns the first
        edge_bin = -1 if chans == (0, 1) else 0
        assert hist.fine_counts[edge_bin] == (gap == 3703), start
        assert hist.total_pairs() == (gap == 3703), start


def test_bounds_round_to_the_nearest_fs():
    # 8.2 * 1e6 is 8199999.999999999 in float64; a truncated bound would
    # drop this pair, exactly 8.2 ns apart on a 1 ps tick
    stream = TimeTagStream(np.array([0, 1], np.uint8), np.array([0, 8200], np.uint64), 4,
                           tick_fs=1000)
    assert len(check_pairing(stream, 8.2)) == 1


def test_fold_up_to_the_u64_phase_limit():
    # (period_fs - 1) * tick_fs reaches 2**64 at a period of 227.7 ms on 81 ps ticks
    stream = _tag_pair(LATE_STARTS["u64 top"], 3703)
    prof = sliding_histogram(stream, fold_period=2.2e8, bin_width=1e5, pitch=1e5)
    assert np.array_equal(prof.fine_counts, int_oracle_fold_counts(stream, 2.2e8, 1e5))
    with pytest.raises(ValueError, match="too long"):
        sliding_histogram(stream, fold_period=2.3e8, bin_width=1e5, pitch=1e5)


# -- simulated streams -------------------------------------------------------


@pytest.fixture(scope="module")
def mmi_stream(default_source, default_detectors):
    return simulate_run(default_source, Layout.mmi(), default_detectors,
                        30000.0, seed=40000)


@pytest.fixture(scope="module")
def hbt_stream(default_source, default_detectors):
    return simulate_run(default_source, Layout.hbt(), default_detectors,
                        30000.0, seed=11)


@pytest.mark.parametrize("offset", [0.0, 2 * 664.0])
def test_simulated_mmi_pairing_matches_loop(mmi_stream, offset):
    co = check_pairing(mmi_stream, 300.0, time_offset_ns=offset)
    assert len(co) > 100


def test_simulated_mmi_subset_pairing_matches_loop(mmi_stream):
    check_pairing(mmi_stream, 300.0, channels=[0, 3])


@pytest.mark.parametrize("ch_a, ch_b", [(0, 1), (2, 2)])
def test_simulated_mmi_correlation_matches_loop(mmi_stream, ch_a, ch_b):
    check_correlation(mmi_stream, ch_a, ch_b, 9 * 664.0, 20.0)


@pytest.fixture(scope="module")
def criterion_9_stream():
    # the first of acceptance criterion 9's constant-coherence runs
    return simulate_run(SourceConfig(coherence_jitter_sd=0.0), Layout.mmi(),
                        DetectorConfig(), 30000.0, seed=40000)


@pytest.mark.parametrize("offset", [0.0, 2 * 664.0])
def test_criterion_9_pairing_matches_loop(criterion_9_stream, offset):
    stream = criterion_9_stream
    co = check_pairing(stream, 300.0, time_offset_ns=offset)
    # the per-tag loop over the same tick bounds gives the same pairs
    window_fs, offset_fs = round(300.0 * 1e6), round(offset * 1e6)
    lo = -(-(offset_fs - window_fs) // stream.tick_fs)
    hi = (offset_fs + window_fs) // stream.tick_fs
    first, second = _pair_greedy_loop(stream.ticks, lo, hi)
    assert len(co) == first.size > 500
    chans = stream.channels[np.stack((first, second))].astype(int)
    assert np.array_equal(co.pair_k, chans.min(axis=0))
    assert np.array_equal(co.pair_l, chans.max(axis=0))


def test_simulated_hbt_matches_loop(hbt_stream):
    hist = check_correlation(hbt_stream, 0, 1, 9 * 664.0, 20.0)
    assert hist.total_pairs() > 1000
    check_pairing(hbt_stream, 300.0)
    check_pairing(hbt_stream, 300.0, time_offset_ns=664.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 5).map(float),
                          st.floats(0.0, 1e6, allow_subnormal=False)), min_size=1, max_size=60))
@example([3.0])
@example([0.0, 2.0, 1.0, 5.0, 4.0, 4.0, 9.0, 7.0])  # a quarter of 2: the mean of both
@example([0.0, 2.0, 1.0, 5.0, 4.0, 4.0, 9.0, 7.0, 8.0, 6.0, 3.0, 2.0])  # of 3: the middle
def test_pedestal_is_numpys_median(profile):
    profile = np.array(profile)
    got, want = _pedestal(profile), oracle_pedestal(profile)
    assert type(got) is type(want) is np.float64
    assert got.view(np.int64) == want.view(np.int64)


# -- one histogram type --------------------------------------------------------

# sliding widths in pitches: one pitch, whole and rounded multiples, and one
# wider than some of the correlation ranges below
WIDTHS = [1.0, 1.4, 2.0, 2.6, 5.0, 40.0]


def assert_same_histogram(got, want):
    """Every field the ``Histogram`` shares with the type it replaced, bit
    for bit."""
    for name in ("fine_edges", "fine_counts", "centers", "counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (got.pitch, got.bin_width) == (want.pitch, want.bin_width)


@settings(max_examples=300, deadline=None)
@given(tag_streams(starts=st.one_of(st.integers(0, 1000), late_starts)),
       st.sampled_from([(0, 1), (1, 0), (1, 2)]), st.integers(1, 80),
       st.sampled_from([1.0, 2.5, 3.0, 7.0]), st.sampled_from(WIDTHS))
@example((_stream([], []), 1.0, 0.0), (0, 1), 9, 2.5, 2.0)  # empty; range not whole pitches
def test_cross_correlate_matches_the_parent(case, channels, range_ticks, pitch, width):
    stream, _, _ = case
    args = (stream, *channels, range_ticks * stream.tick_ns, width * pitch, pitch)
    assert_same_histogram(cross_correlate(*args), parent_cross_correlate(*args))


@settings(max_examples=300, deadline=None)
@given(tag_streams(starts=st.one_of(st.integers(0, 1000), late_starts)),
       st.sampled_from([664.0, 100.0, 12.5, 7.5, 0.081 * 7]),
       st.sampled_from([8.0, 4.0, 2.5, 0.5]), st.sampled_from(WIDTHS))
# the wrap: 5 bins of 2.5 ns round a 7.5 ns circle, so centres fall together
@example((_stream([0, 3, 4, 11], [0, 1, 2, 3]), 1.0, 0.0), 7.5, 2.5, 2.0)
@example((_stream([], []), 1.0, 0.0), 664.0, 8.0, 5.0)
def test_sliding_histogram_matches_the_parent(case, fold_period, pitch, width):
    stream, _, _ = case
    args = (stream, fold_period, width * pitch, pitch)
    assert_same_histogram(sliding_histogram(*args), parent_sliding_histogram(*args))


def test_simulated_histograms_match_the_parent(hbt_stream, mmi_stream):
    args = (hbt_stream, 0, 1, 5976.0, 100.0, 20.0)  # the [analysis] defaults
    assert_same_histogram(cross_correlate(*args), parent_cross_correlate(*args))
    for bin_width, pitch in ((8.0, 8.0), (40.0, 4.0)):
        args = (mmi_stream, 664.0, bin_width, pitch)
        assert_same_histogram(sliding_histogram(*args), parent_sliding_histogram(*args))


def check_g2(hist, duty):
    """``g2_zero`` against the per-peak mask loop: the same result, or the
    same error."""
    try:
        want = oracle_g2_zero(hist, duty)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            g2_zero(hist, duty)
        return None
    got = g2_zero(hist, duty)
    assert got == want
    assert list(got.side_peak_counts) == list(want.side_peak_counts)
    return got


def on_boundary(hist, duty):
    """The fine bins whose centre lies exactly half a duty cycle from a peak."""
    centers = hist.fine_edges[:-1] + np.diff(hist.fine_edges) / 2.0
    return np.abs(centers - np.round(centers / duty + 0.5) * duty) == duty / 2.0


@pytest.mark.parametrize("pitch, duty, n_half, top", [
    (8.0, 664.0, 600, 50),        # centres 8k + 4: every +/- 332 + 664 m is one
    (1.0, 3.0, 30, 2 ** 40),      # centres k + 1/2 on the 1.5 boundaries, huge counts
    (20.0, 664.0, 300, 50),       # the default pitch: no centre on a boundary
    (0.3, 664.1, 20000, 3),       # steps with no exact float product
    (4.0, 100 / 3, 60, 9),
    (1000.0, 664.0, 10, 50),      # wider than a duty cycle: some peaks hold no centre
    (20.0, 664.0, 182, 50),       # 4 side peaks: too few
], ids=["pitch-8", "boundaries-huge-counts", "pitch-20", "inexact", "third", "wide-bins",
        "too-few-peaks"])
def test_g2_zero_matches_the_peak_loop(pitch, duty, n_half, top):
    rng = np.random.default_rng(n_half)
    fine = rng.integers(0, top, 2 * n_half, endpoint=True)
    edges = (np.arange(2 * n_half + 1) - n_half) * pitch
    hist = _histogram(fine, edges, pitch, pitch)
    if pitch in (8.0, 1.0):
        assert np.count_nonzero(fine[on_boundary(hist, duty)]) > 10
    check_g2(hist, duty)
    fine[np.abs(edges[:-1]) < 5 * duty] = 0  # no side counts: both refuse
    check_g2(hist, duty)


@pytest.mark.parametrize("range_ns, pitch", [(9 * 664.0, 20.0), (40 * 664.0, 8.0)])
def test_simulated_g2_matches_the_peak_loop(hbt_stream, range_ns, pitch):
    # pulses of 300 ns put no pair on a boundary, 332 ns from two peaks
    hist = cross_correlate(hbt_stream, 0, 1, range_ns=range_ns, bin_width=100.0, pitch=pitch)
    assert check_g2(hist, 664.0).g2_zero < 0.2
