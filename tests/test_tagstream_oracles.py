"""The array tag kernels against the loops in ``tagstream_oracles``.

Every comparison is exact: the kernels must reproduce the Python-int
loops bit for bit on every stream, and the original float64 loops on the
streams where float64 nanoseconds are exact (1 ns ticks below 2**53).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tagstream_oracles import (_pair_neighbours, _pair_offset, int_oracle_cross_correlate,
                               int_oracle_extract_coincidences, int_oracle_fold_counts,
                               oracle_cross_correlate, oracle_extract_coincidences,
                               oracle_same_detector_counts)

from mmi_lab import (Layout, TimeTagStream, cross_correlate, extract_coincidences,
                     simulate_run, sliding_histogram)
from mmi_lab.tagstream import DEFAULT_TICK_FS, _pair_greedy

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
def test_pair_greedy_matches_the_kernels_it_replaced(case, bounds):
    stream, window, offset = case
    lo, hi = PAIRING_BOUNDS[bounds](round(window / stream.tick_ns),
                                    round(offset / stream.tick_ns))
    got = _pair_greedy(stream.ticks, lo, hi)
    want = _pair_neighbours(stream.ticks, hi) if lo <= 0 else _pair_offset(stream.ticks, lo, hi)
    for a, b in zip(got, want):
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


def test_simulated_hbt_matches_loop(hbt_stream):
    hist = check_correlation(hbt_stream, 0, 1, 9 * 664.0, 20.0)
    assert hist.total_pairs() > 1000
    check_pairing(hbt_stream, 300.0)
    check_pairing(hbt_stream, 300.0, time_offset_ns=664.0)
