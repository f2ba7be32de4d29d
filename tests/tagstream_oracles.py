"""Reference implementations of the tag-stream kernels.

``oracle_extract_coincidences`` and ``oracle_cross_correlate`` are the
original single-pass loops over float64 nanosecond times, kept verbatim
apart from converting the ticks inline and no longer storing the window
and offset on the ``CoincidenceSet``.  They are oracles only where
float64 is exact: 1 ns ticks below 2**53.

The ``int_oracle_*`` loops state the integer rule of ``mmi_lab.tagstream``
directly on Python-int femtosecond times (``tick * tick_fs``, which never
wraps): a pair qualifies when ``lo_fs <= t_j - t_i <= hi_fs``, a bin is
``floor(dt_fs / pitch_fs)`` and a phase is ``t_fs % period_fs``.  The
array kernels must match them bit for bit at any u64 tick.

``_pair_neighbours`` (the closed form for ``lo <= 0``) and ``_pair_offset``
(the per-tag buffer loop for ``lo > 0``) are the two pairing kernels that
``mmi_lab.tagstream._pair_greedy`` replaced, kept verbatim; they work on
raw tick arrays with bounds in ticks.  ``_pair_greedy_loop`` is the
``_pair_greedy`` that followed them, kept verbatim under a new name: it
pairs 2-tag runs in array code and loops per tag over the longer runs,
which the kernel now walks all together, one run position at a time.

``oracle_pedestal`` is ``deadtime_correction``'s dark-count floor as it was
taken before ``mmi_lab.tagstream._pedestal``: ``np.median`` of the lowest
quarter of the folded profile.

``SlidingProfile``/``sliding_histogram`` and ``CorrelationHistogram``/
``cross_correlate`` are the two result types and the two sliding-sum
implementations that ``mmi_lab.tagstream.Histogram`` and its one
``_histogram`` replaced, kept verbatim; the kernels must give the same
bits in every field they share.

``g2_zero``, which summed each peak through a mask over every fine bin, and
the ``_side_peaks`` it called, which read the span from the histogram, are
kept verbatim; the one-pass sum must give the same result, boundary bins
counted in both of their peaks included.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from mmi_lab.core import CoincidenceDistribution, mode_pairs
from mmi_lab.tagstream import (_CHUNK_TAGS, CoincidenceSet, DataError, G2Result, Histogram,
                               TimeTagStream)


def oracle_cross_correlate(stream, ch_a, ch_b, range_ns, pitch=20.0):
    """``fine_counts`` of the rolling-buffer cross-correlator."""
    n_half = int(np.ceil(range_ns / pitch))
    edges = (np.arange(2 * n_half + 1) - n_half) * pitch
    fine = np.zeros(2 * n_half, dtype=np.int64)
    span = edges[-1]

    sub = stream.select([ch_a] if ch_a == ch_b else [ch_a, ch_b])
    times = sub.ticks.astype(np.float64) * sub.tick_ns
    chans = sub.channels
    buf: deque[tuple[float, int]] = deque()
    for t, c in zip(times, chans):
        while buf and t - buf[0][0] > span:
            buf.popleft()
        for t_old, c_old in buf:
            if ch_a == ch_b:
                dts = (t - t_old, t_old - t)
            elif c_old == ch_a and c == ch_b:
                dts = (t - t_old,)
            elif c_old == ch_b and c == ch_a:
                dts = (t_old - t,)
            else:
                continue
            for dt in dts:
                idx = int(np.floor(dt / pitch)) + n_half
                if 0 <= idx < fine.size:
                    fine[idx] += 1
        buf.append((t, c))
    return fine


def oracle_extract_coincidences(stream, window_ns, channels=None,
                                time_offset_ns=0.0):
    """The greedy chronological pairing loop, both modes."""
    sub = stream if channels is None else stream.select(channels)
    times = sub.ticks.astype(np.float64) * sub.tick_ns
    chans = sub.channels
    lo = time_offset_ns - window_ns
    hi = time_offset_ns + window_ns
    buf: deque[tuple[float, int]] = deque()
    out_k, out_l, out_dt = [], [], []
    n_unmatched = 0
    for t, c in zip(times, chans):
        while buf and t - buf[0][0] > hi:
            buf.popleft()
            n_unmatched += 1
        if buf and t - buf[0][0] >= lo:
            t_old, c_old = buf.popleft()
            k, l = sorted((int(c_old), int(c)))
            out_k.append(k)
            out_l.append(l)
            out_dt.append((t - t_old) - time_offset_ns)
        else:
            buf.append((t, float(c)))
    n_unmatched += len(buf)
    n = sub.n_channels
    pairs = mode_pairs(n)
    vals = np.zeros(len(pairs))
    for k, l in zip(out_k, out_l):
        vals[pairs.index((k, l))] += 1
    return CoincidenceSet(
        pair_k=np.array(out_k, dtype=int),
        pair_l=np.array(out_l, dtype=int),
        dtau_ns=np.array(out_dt, dtype=float),
        counts=CoincidenceDistribution(n, vals),
        n_unmatched=n_unmatched,
    )


def oracle_same_detector_counts(co):
    n = co.counts.n_modes
    out = np.zeros(n)
    for k, l, in zip(co.pair_k, co.pair_l):
        if k == l:
            out[k] += 1
    return out


def _fs(ns):
    return round(ns * 1e6)


def int_oracle_extract_coincidences(stream, window_ns, channels=None,
                                    time_offset_ns=0.0):
    """The greedy chronological pairing loop on femtosecond integers."""
    sub = stream if channels is None else stream.select(channels)
    lo = _fs(time_offset_ns) - _fs(window_ns)
    hi = _fs(time_offset_ns) + _fs(window_ns)
    buf: deque[tuple[int, int, int]] = deque()
    out_k, out_l, out_dt = [], [], []
    n_unmatched = 0
    for tick, c in zip(sub.ticks.tolist(), sub.channels.tolist()):
        t = tick * sub.tick_fs
        while buf and t - buf[0][0] > hi:
            buf.popleft()
            n_unmatched += 1
        if buf and t - buf[0][0] >= lo:
            _, tick_old, c_old = buf.popleft()
            out_k.append(min(c_old, c))
            out_l.append(max(c_old, c))
            out_dt.append(float(tick - tick_old) * sub.tick_ns - time_offset_ns)
        else:
            buf.append((t, tick, c))
    n_unmatched += len(buf)
    n = sub.n_channels
    pairs = mode_pairs(n)
    vals = np.zeros(len(pairs))
    for k, l in zip(out_k, out_l):
        vals[pairs.index((k, l))] += 1
    return CoincidenceSet(
        pair_k=np.array(out_k, dtype=int),
        pair_l=np.array(out_l, dtype=int),
        dtau_ns=np.array(out_dt, dtype=float),
        counts=CoincidenceDistribution(n, vals),
        n_unmatched=n_unmatched,
    )


def int_oracle_cross_correlate(stream, ch_a, ch_b, range_ns, pitch=20.0):
    """``fine_counts`` of the rolling-buffer correlator on femtosecond integers."""
    pitch_fs = _fs(pitch)
    n_half = -(-_fs(range_ns) // pitch_fs)
    span = n_half * pitch_fs
    fine = np.zeros(2 * n_half, dtype=np.int64)
    sub = stream.select([ch_a] if ch_a == ch_b else [ch_a, ch_b])
    buf: deque[tuple[int, int]] = deque()
    for tick, c in zip(sub.ticks.tolist(), sub.channels.tolist()):
        t = tick * sub.tick_fs
        while buf and t - buf[0][0] > span:
            buf.popleft()
        for t_old, c_old in buf:
            if ch_a == ch_b:
                dts = (t - t_old, t_old - t)
            elif c_old == ch_a and c == ch_b:
                dts = (t - t_old,)
            elif c_old == ch_b and c == ch_a:
                dts = (t_old - t,)
            else:
                continue
            for dt in dts:
                idx = dt // pitch_fs + n_half
                if 0 <= idx < fine.size:
                    fine[idx] += 1
        buf.append((t, c))
    return fine


def int_oracle_fold_counts(stream, fold_period, pitch):
    """Per-pitch counts of the tags' phases ``t_fs % period_fs``."""
    period_fs, pitch_fs = _fs(fold_period), _fs(pitch)
    fine = np.zeros(-(-period_fs // pitch_fs), dtype=np.int64)
    for tick in stream.ticks.tolist():
        fine[tick * stream.tick_fs % period_fs // pitch_fs] += 1
    return fine


def _pair_neighbours(ticks: np.ndarray, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy pairing when every earlier tag within ``hi`` ticks qualifies.

    The buffer then never holds more than the previous tag: runs of tags
    spaced at most ``hi`` apart pair up 1-2, 3-4, ... and an odd last tag
    of a run is unmatched.
    """
    starts = np.ones(ticks.size, dtype=bool)
    starts[1:] = np.diff(ticks) > hi
    pos = np.arange(ticks.size)
    run_start = np.maximum.accumulate(np.where(starts, pos, 0))
    second = pos[(pos - run_start) % 2 == 1]
    return second - 1, second


def _pair_offset(ticks: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy pairing with separations in [lo, hi] ticks, lo > 0: the
    oldest unmatched tag still within ``hi`` is paired first."""
    buf: deque[tuple[int, int]] = deque()
    first, second = [], []
    for j, t in enumerate(ticks.tolist()):
        while buf and t - buf[0][0] > hi:
            buf.popleft()
        if buf and t - buf[0][0] >= lo:
            first.append(buf.popleft()[1])
            second.append(j)
        else:
            buf.append((t, j))
    return np.array(first, dtype=np.intp), np.array(second, dtype=np.intp)


def _pair_greedy_loop(ticks: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy pairing with separations in [lo, hi] ticks: the oldest
    unmatched tag still within ``hi`` pairs first.  A gap wider than ``hi``
    expires every buffered tag, so each run between such gaps pairs alone:
    a 2-tag run when its gap is at least ``lo``, a longer run through the
    buffer loop.  Pairs are ordered by their second tag."""
    edges = np.concatenate(([0], np.flatnonzero(np.diff(ticks) > hi) + 1, [ticks.size]))
    sizes = np.diff(edges)
    two = edges[:-1][sizes == 2]
    two = two[ticks[two + 1] - ticks[two] >= lo]
    rest = np.flatnonzero(np.repeat(sizes > 2, sizes))
    buf: deque[tuple[int, int]] = deque()
    first, second = [], []
    for j, t in zip(rest.tolist(), ticks[rest].tolist()):
        while buf and t - buf[0][0] > hi:
            buf.popleft()
        if buf and t - buf[0][0] >= lo:
            first.append(buf.popleft()[1])
            second.append(j)
        else:
            buf.append((t, j))
    first = np.concatenate((two, np.array(first, dtype=np.intp)))
    second = np.concatenate((two + 1, np.array(second, dtype=np.intp)))
    order = np.argsort(second)
    return first[order], second[order]


def oracle_pedestal(profile):
    return np.median(np.sort(profile)[:max(1, profile.size // 4)])


@dataclass(frozen=True)
class SlidingProfile:
    """Folded count-rate profile from overlapping bins (width >= pitch)."""

    centers: np.ndarray
    counts: np.ndarray
    bin_width: float
    pitch: float
    fine_counts: np.ndarray
    fine_edges: np.ndarray


def sliding_histogram(stream: TimeTagStream, fold_period: float,
                      bin_width: float = 40.0, pitch: float = 4.0) -> SlidingProfile:
    """Overlapping-bin count profile of detection times folded modulo
    ``fold_period`` (circular windows), which is how pulse intensity
    profiles are accumulated."""
    period_fs, pitch_fs = _fs(fold_period), _fs(pitch)
    if pitch_fs <= 0 or bin_width < pitch:
        raise ValueError("need pitch >= 1 fs and bin_width >= pitch")
    if period_fs <= 0:
        raise ValueError("fold period must be positive")
    step = stream.tick_fs % period_fs
    if (period_fs - 1) * step >= 1 << 64:
        raise ValueError(f"fold period {fold_period} ns too long for an exact u64 phase")
    width = max(1, int(round(bin_width / pitch)))
    n_fine = max(width, -(-period_fs // pitch_fs))
    period = np.uint64(period_fs)
    phase = stream.ticks % period * np.uint64(step) % period
    fine = np.bincount((phase // np.uint64(pitch_fs)).astype(np.intp), minlength=n_fine)
    circular = np.concatenate([fine, fine[:width - 1]]).astype(float)
    counts = np.convolve(circular, np.ones(width), mode="valid")
    centers = (np.arange(n_fine) + width / 2.0) * pitch % fold_period
    order = np.argsort(centers)
    return SlidingProfile(centers=centers[order], counts=counts[order],
                          bin_width=bin_width, pitch=pitch, fine_counts=fine,
                          fine_edges=np.arange(n_fine + 1) * pitch)


@dataclass(frozen=True)
class CorrelationHistogram:
    """Histogram of pairwise time differences t_b - t_a.

    ``fine_counts`` are non-overlapping pitch-resolution bins; ``counts``
    are the sliding (width ``bin_width``) sums used for display.
    """

    range_ns: float
    bin_width: float
    pitch: float
    fine_edges: np.ndarray
    fine_counts: np.ndarray
    centers: np.ndarray
    counts: np.ndarray

    def total_pairs(self) -> int:
        return int(self.fine_counts.sum())


def cross_correlate(stream: TimeTagStream, ch_a: int, ch_b: int,
                    range_ns: float, bin_width: float = 100.0,
                    pitch: float = 20.0) -> CorrelationHistogram:
    """Histogram every pair of detections on the two distinct channels
    with |t_b - t_a| inside the range.

    Each tag's earlier partners, those at most the histogram span before
    it, are found with ``searchsorted`` on the ticks (Laurence, Fore &
    Huser, Opt. Lett. 31, 829 (2006)).  Tags are processed in chunks of
    ``_CHUNK_TAGS``.
    """
    if ch_a == ch_b:
        raise ValueError(f"cross-correlation needs two channels, got {ch_a} twice")
    pitch_fs = _fs(pitch)
    if pitch_fs <= 0 or bin_width < pitch:
        raise ValueError("need pitch >= 1 fs and bin_width >= pitch")
    n_half = -(-_fs(range_ns) // pitch_fs)
    edges = (np.arange(2 * n_half + 1) - n_half) * pitch
    fine = np.zeros(2 * n_half, dtype=np.int64)

    sub = stream.select([ch_a, ch_b])
    t = sub.ticks
    chans = sub.channels
    span = n_half * pitch_fs // sub.tick_fs
    for r0 in range(0, t.size, _CHUNK_TAGS):
        rows = np.arange(r0, min(r0 + _CHUNK_TAGS, t.size))
        # the earliest partner tick, clamped at 0 instead of wrapping
        first = np.searchsorted(t, t[rows] - np.minimum(t[rows], span))
        m = rows - first
        jj = np.repeat(rows, m)
        ii = np.arange(jj.size) + np.repeat(first - (np.cumsum(m) - m), m)
        dt = (t[jj] - t[ii]).astype(np.int64) * sub.tick_fs
        cross = chans[ii] != chans[jj]
        dt = np.where(chans[jj[cross]] == ch_b, dt[cross], -dt[cross])
        # a separation of exactly +span lands one past the last bin
        fine += np.bincount(dt // pitch_fs + n_half, minlength=fine.size + 1)[:fine.size]

    width = max(1, int(round(bin_width / pitch)))
    counts = np.convolve(fine.astype(float), np.ones(width), mode="valid")
    centers = edges[:counts.size] + (width / 2.0) * pitch
    return CorrelationHistogram(range_ns=range_ns, bin_width=bin_width, pitch=pitch,
                                fine_edges=edges, fine_counts=fine,
                                centers=centers, counts=counts)


def _side_peaks(hist: Histogram, duty_cycle: float) -> int:
    """Side peaks per side whose windows, m duty cycles +/- half of one, lie
    inside the histogram: (m + 1/2) duty <= span.  At least 5 must."""
    n_peaks = int(np.floor(hist.fine_edges[-1] / duty_cycle - 0.5))
    if n_peaks < 5:
        raise ValueError(f"histogram range covers only {n_peaks} side peaks; "
                         "need at least 5 per side")
    return n_peaks


def g2_zero(hist: Histogram, duty_cycle: float) -> G2Result:
    """Second-order correlation at zero delay from a peaked correlogram.

    Integrates each peak over a window of +/- half the duty cycle and
    normalises the central peak by the uncorrelated level extrapolated to
    zero separation (linear fit against |peak index|, which removes the
    decay of the side peaks caused by finite emission sequences).
    """
    n_peaks = _side_peaks(hist, duty_cycle)
    centers = hist.fine_edges[:-1] + np.diff(hist.fine_edges) / 2.0
    peak_counts = {}
    for m in range(-n_peaks, n_peaks + 1):
        sel = np.abs(centers - m * duty_cycle) <= duty_cycle / 2.0
        peak_counts[m] = float(hist.fine_counts[sel].sum())
    ms = [m for m in range(-4, 5) if m != 0]  # the baseline fit uses 4 per side
    side = np.array([peak_counts[m] for m in ms], dtype=float)
    if side.sum() == 0:
        raise DataError("no side peaks found; cannot normalise g2")
    slope, intercept = np.polyfit(np.abs(ms), side, 1)
    if intercept <= 0:
        intercept = float(side.mean())
    return G2Result(g2_zero=peak_counts[0] / intercept,
                    central_counts=peak_counts[0],
                    side_peak_counts=peak_counts,
                    extrapolated_uncorrelated=float(intercept))
