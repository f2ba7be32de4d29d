"""The array tag kernels against the original loops (``tagstream_oracles``).

Every comparison is exact: the kernels must reproduce the loops bit for
bit on the same float64 nanosecond times.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tagstream_oracles import (oracle_cross_correlate, oracle_extract_coincidences,
                               oracle_same_detector_counts)

from mmi_lab import (Layout, TimeTagStream, cross_correlate, extract_coincidences,
                     simulate_run)
from mmi_lab.tagstream import DEFAULT_TICK_FS

UNIT_TICK_FS = 1_000_000  # 1 ns ticks: times, windows and offsets are exact


def assert_same_coincidences(got, want):
    for name in ("pair_k", "pair_l", "dtau_ns"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(got.counts.values, want.counts.values)
    assert got.n_unmatched == want.n_unmatched
    assert np.array_equal(got.same_detector_counts(), oracle_same_detector_counts(want))


def check_pairing(stream, window_ns, time_offset_ns=0.0, channels=None):
    got = extract_coincidences(stream, window_ns, channels=channels,
                               time_offset_ns=time_offset_ns)
    want = oracle_extract_coincidences(stream, window_ns, channels=channels,
                                       time_offset_ns=time_offset_ns)
    assert_same_coincidences(got, want)
    return got


def check_correlation(stream, ch_a, ch_b, range_ns, pitch):
    hist = cross_correlate(stream, ch_a, ch_b, range_ns=range_ns, bin_width=pitch,
                           pitch=pitch, allow_same=ch_a == ch_b)
    want = oracle_cross_correlate(stream, ch_a, ch_b, range_ns, pitch)
    assert hist.fine_counts.dtype == want.dtype
    assert np.array_equal(hist.fine_counts, want)
    return hist


@st.composite
def tag_streams(draw, n_channels=4):
    """Small-tick streams whose gaps hit the window and offset edges.

    Returns ``(stream, window_ns, time_offset_ns)``; gaps of zero put equal
    ticks on different channels, runs of small gaps make bursts denser
    than the window.
    """
    window = draw(st.integers(1, 20))
    offset = draw(st.integers(0, 60))
    edges = sorted({0, 1, window, offset, max(offset - window, 0), offset + window})
    gap = st.one_of(st.sampled_from(edges), st.integers(0, 2 * (offset + window) + 2))
    gaps = draw(st.lists(gap, max_size=60))
    ticks = draw(st.integers(0, 1000)) + np.cumsum(np.array(gaps, dtype=np.int64))
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


def test_empty_pairing_shapes():
    co = extract_coincidences(EDGE_STREAMS["empty"], window_ns=5.0)
    assert co.pair_k.shape == co.pair_l.shape == co.dtau_ns.shape == (0,)
    assert co.counts.total() == 0 and co.n_unmatched == 0


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
