"""Time-tag ingestion and correlation analysis.

Detection events are (channel, tick) records with an 81 ps tick.  A
stream is loaded into memory whole.  Pairing cuts the ticks at gaps no
pair can span; it pairs the 2-tag runs at once and walks the longer runs
all together in array code, one run position per step (at most 9 steps
on the 380 ks headline stream), so no Python loop runs per tag.  The
simulator's dead-time rule (``instrument._apply_dead_time``) keeps its
per-tag loop over runs of close tags: an exact array version of that walk
measured slower on a 30 ks stream (0.34 against 0.23 ms) and no faster at
380 ks (3.6 against 3.8 ms) on a 2-core host.  The cross-correlator is
array code that works through the stream in chunks, so its temporaries
grow with the chunk size and the correlation range rather than the stream
length.

Every window and bin decision is exact integer arithmetic on the u64
ticks.  A bound in ns becomes whole femtoseconds, ``_fs(ns) = round(ns *
1e6)``.  Two tags ``d`` ticks apart fall within [lo, hi] when ``lo_fs <=
d * tick_fs <= hi_fs``, tested as ``ceil(lo_fs / tick_fs) <= d <=
floor(hi_fs / tick_fs)``; their correlation bin of pitch p is ``floor(d *
tick_fs / p_fs)``; a tag's phase in a fold period P is ``((ticks % P_fs) *
(tick_fs % P_fs)) % P_fs``.  Only differences and residues are multiplied,
so nothing wraps or overflows at any tick.  Float ns appear only in
results: ``dtau_ns = d * tick_ns - time_offset_ns`` and bin edges and centres.

Binary file layout (little endian):

    offset 0   4 bytes  magic ``TTAG``
    offset 4   u16      format version (1)
    offset 6   u16      channel count
    offset 8   u64      tick size in femtoseconds (81 ps -> 81000, exact)
    offset 16  records  12 bytes each: u64 tick, u8 channel, 3 reserved

The CSV alternative is ``channel,tick`` rows with a header line.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._runtime import DataError
from .core import CoincidenceDistribution, DegenerateDistributionError, pair_index

MAGIC = b"TTAG"
VERSION = 1
DEFAULT_TICK_FS = 81_000  # 81 ps
_HEADER = "<4sHHQ"  # magic, format version, channel count, tick size in fs
_RECORD = np.dtype([("tick", "<u8"), ("channel", "u1"), ("reserved", "V3")])
# tags per cross-correlation chunk and per chunk of records written
_CHUNK_TAGS = 1 << 14


class StreamFormatError(DataError):
    """Malformed time-tag payload; carries the offending byte/row position."""


def _fs(ns: float) -> int:
    """A time bound in ns as whole femtoseconds."""
    if not np.isfinite(ns):
        raise ValueError(f"time bound {ns} ns is not finite")
    return round(ns * 1e6)


def _column(values, dtype, what: str) -> np.ndarray:
    """``values`` as a ``dtype`` array, uncopied when it is one already; StreamFormatError
    at the first value it cannot hold: negative, fractional, non-finite or too large."""
    arr = np.asarray(values)
    if arr.dtype == dtype:
        return arr
    top = np.iinfo(dtype).max
    whole = (arr >= 0) & (arr < top + 1)  # not <= top, which a float 2**64 passes
    if arr.dtype.kind == "f":
        whole &= np.trunc(arr) == arr
    bad = np.flatnonzero(~whole)
    if bad.size:
        raise StreamFormatError(f"{what} {arr.flat[bad[0]]} at record {bad[0]} "
                                f"is not a whole number in [0, {top}]")
    return arr.astype(dtype)


@dataclass
class TimeTagStream:
    """Chronologically ordered detector events."""

    channels: np.ndarray
    ticks: np.ndarray
    n_channels: int
    tick_fs: int = DEFAULT_TICK_FS

    def __post_init__(self):
        ch = _column(self.channels, np.uint8, "channel")
        tk = _column(self.ticks, np.uint64, "tick")
        if ch.shape != tk.shape or ch.ndim != 1:
            raise ValueError("channels and ticks must be matching 1-D arrays")
        if ch.size and int(ch.max()) >= self.n_channels:
            raise StreamFormatError(f"channel {int(ch.max())} outside the "
                                    f"{self.n_channels}-channel map")
        if np.any(tk[1:] < tk[:-1]):
            pos = int(np.argmax(tk[1:] < tk[:-1])) + 1
            raise StreamFormatError(f"non-monotonic timestamps at record {pos}")
        self.channels = ch
        self.ticks = tk

    def __len__(self) -> int:
        return int(self.ticks.size)

    @property
    def tick_ns(self) -> float:
        return self.tick_fs * 1e-6

    def counts_per_channel(self) -> np.ndarray:
        return np.bincount(self.channels, minlength=self.n_channels)

    def select(self, channels) -> "TimeTagStream":
        mask = np.isin(self.channels, list(channels))
        return TimeTagStream(self.channels[mask], self.ticks[mask],
                             self.n_channels, self.tick_fs)

    # -- binary format ---------------------------------------------------

    def _header(self) -> bytes:
        return struct.pack(_HEADER, MAGIC, VERSION, self.n_channels, self.tick_fs)

    def _records(self, part: slice = slice(None)) -> np.ndarray:
        ticks = self.ticks[part]
        rec = np.zeros(ticks.size, dtype=_RECORD)
        rec["tick"] = ticks
        rec["channel"] = self.channels[part]
        return rec

    def to_bytes(self) -> bytes:
        return self._header() + self._records().tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "TimeTagStream":
        if len(payload) < 16:
            raise StreamFormatError(f"header truncated: {len(payload)} bytes")
        magic, version, n_channels, tick_fs = struct.unpack_from(_HEADER, payload)
        if magic != MAGIC:
            raise StreamFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise StreamFormatError(f"unsupported format version {version}")
        if tick_fs == 0:
            raise StreamFormatError("tick size of 0 fs in the header")
        body = memoryview(payload)[16:]  # a view, not a copy of the payload
        if len(body) % _RECORD.itemsize:
            raise StreamFormatError(f"truncated record at byte {16 + len(body) - len(body) % _RECORD.itemsize}")
        rec = np.frombuffer(body, dtype=_RECORD)
        # aligned columns for the tick kernels; the payload is not kept
        return cls(rec["channel"].copy(), rec["tick"].copy(), n_channels, tick_fs)

    def write_file(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self._header())
            # a chunk of record buffers at a time, not a bytes copy of them all
            for a in range(0, len(self), _CHUNK_TAGS):
                fh.write(self._records(slice(a, a + _CHUNK_TAGS)))

    @classmethod
    def from_file(cls, path) -> "TimeTagStream":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    # -- CSV alternative ---------------------------------------------------

    @classmethod
    def from_csv(cls, text: str) -> "TimeTagStream":
        rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if rows and rows[0].lower().replace(" ", "") == "channel,tick":
            rows = rows[1:]
        channels, ticks = [], []
        for nr, row in enumerate(rows, start=1):
            try:
                c, t = (int(x) for x in row.split(","))
            except ValueError as exc:
                raise StreamFormatError(f"bad CSV row {nr}: {row!r}") from exc
            if not (0 <= c <= 255 and 0 <= t < 1 << 64):
                raise StreamFormatError(f"CSV row {nr} out of range: {row!r}")
            channels.append(c)
            ticks.append(t)
        return cls(np.array(channels, np.uint8), np.array(ticks, np.uint64),
                   max(channels, default=0) + 1)


# -- histograms --------------------------------------------------------------


@dataclass(frozen=True)
class Histogram:
    """Counts of folded tag times or of pair separations t_b - t_a:
    ``fine_counts`` in the pitch bins between ``fine_edges``, ``counts``
    their sliding sums over ``bin_width``, centred at ``centers``."""

    fine_edges: np.ndarray
    fine_counts: np.ndarray
    pitch: float
    bin_width: float
    centers: np.ndarray
    counts: np.ndarray

    def total_pairs(self) -> int:
        return int(self.fine_counts.sum())


def _pitch_fs(pitch: float, bin_width: float) -> int:
    """The histogram pitch in whole femtoseconds, checked against the bin."""
    pitch_fs = _fs(pitch)
    if pitch_fs <= 0 or bin_width < pitch:
        raise ValueError("need pitch >= 1 fs and bin_width >= pitch")
    return pitch_fs


def _half_bins(range_ns: float, bin_width: float, pitch: float) -> tuple[int, int]:
    """``(n_half, pitch_fs)``: a correlation histogram over +/- ``range_ns``
    has ``n_half`` bins of ``pitch_fs`` per side, the range rounded up to
    whole pitches.  Separations are int64 fs, so a span of 2**63 fs or more
    raises ValueError."""
    pitch_fs = _pitch_fs(pitch, bin_width)
    n_half = -(-_fs(range_ns) // pitch_fs)
    if n_half * pitch_fs >= 1 << 63:
        raise ValueError(f"a histogram span of {n_half * pitch:g} ns reaches 2**63 fs, "
                         "past the int64 pair separations")
    return n_half, pitch_fs


def _histogram(fine: np.ndarray, edges: np.ndarray, bin_width: float, pitch: float,
               fold_period: float | None = None) -> Histogram:
    """``fine``, the counts between ``edges``, with its sliding sums over
    ``bin_width``: along the axis, or round the circle of ``fold_period``
    (the first bins follow the last) with the centres sorted."""
    width = round(bin_width / pitch)  # at least 1: bin_width >= pitch
    ring = fine if fold_period is None else np.concatenate([fine, fine[:width - 1]])
    counts = np.convolve(ring.astype(float), np.ones(width), mode="valid")
    if fold_period is None:
        return Histogram(edges, fine, pitch, bin_width,
                         edges[:counts.size] + (width / 2.0) * pitch, counts)
    centers = (np.arange(fine.size) + width / 2.0) * pitch % fold_period
    order = np.argsort(centers)
    return Histogram(edges, fine, pitch, bin_width, centers[order], counts[order])


def sliding_histogram(stream: TimeTagStream, fold_period: float,
                      bin_width: float = 40.0, pitch: float = 4.0) -> Histogram:
    """Overlapping-bin count profile of detection times folded modulo
    ``fold_period`` (circular windows), which is how pulse intensity
    profiles are accumulated."""
    period_fs, pitch_fs = _fs(fold_period), _pitch_fs(pitch, bin_width)
    if period_fs <= 0:
        raise ValueError("fold period must be positive")
    if pitch_fs >= 1 << 64:
        raise ValueError(f"pitch {pitch:g} ns is past the u64 phase range")
    step = stream.tick_fs % period_fs
    if (period_fs - 1) * step >= 1 << 64:
        raise ValueError(f"fold period {fold_period} ns too long for an exact u64 phase")
    n_fine = max(round(bin_width / pitch), -(-period_fs // pitch_fs))
    period = np.uint64(period_fs)
    phase = stream.ticks % period * np.uint64(step) % period
    fine = np.bincount((phase // np.uint64(pitch_fs)).astype(np.intp), minlength=n_fine)
    return _histogram(fine, np.arange(n_fine + 1) * pitch, bin_width, pitch, fold_period)


def cross_correlate(stream: TimeTagStream, ch_a: int, ch_b: int,
                    range_ns: float, bin_width: float = 100.0,
                    pitch: float = 20.0) -> Histogram:
    """Histogram every pair of detections on the two distinct channels
    with |t_b - t_a| inside the range, rounded up to whole pitches.

    Each tag's earlier partners, those at most the histogram span before
    it, are found with ``searchsorted`` on the ticks (Laurence, Fore &
    Huser, Opt. Lett. 31, 829 (2006)).  Tags are processed in chunks of
    ``_CHUNK_TAGS``.
    """
    if ch_a == ch_b:
        raise ValueError(f"cross-correlation needs two channels, got {ch_a} twice")
    n_half, pitch_fs = _half_bins(range_ns, bin_width, pitch)
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
        # pairs are at most span ticks apart: with a span of 0 (a tick longer
        # than the range, perhaps one past int64) only simultaneous tags pair
        dt = (t[jj] - t[ii]).astype(np.int64) * (sub.tick_fs if span else 0)
        cross = chans[ii] != chans[jj]
        dt = np.where(chans[jj[cross]] == ch_b, dt[cross], -dt[cross])
        # a separation of exactly +span lands one past the last bin
        fine += np.bincount(dt // pitch_fs + n_half, minlength=fine.size + 1)[:fine.size]
    return _histogram(fine, edges, bin_width, pitch)


@dataclass(frozen=True)
class G2Result:
    g2_zero: float
    central_counts: float
    side_peak_counts: dict
    extrapolated_uncorrelated: float


def _side_peaks(span: float, duty_cycle: float) -> int:
    """Side peaks per side whose windows, m duty cycles +/- half of one, lie
    inside a histogram over +/- ``span``: (m + 1/2) duty <= span.  At least 5
    must."""
    n_peaks = int(np.floor(span / duty_cycle - 0.5))
    if n_peaks < 5:
        raise ValueError(f"histogram range covers only {n_peaks} side peaks; "
                         "need at least 5 per side")
    return n_peaks


def g2_zero(hist: Histogram, duty_cycle: float) -> G2Result:
    """Second-order correlation at zero delay from a peaked correlogram.

    Integrates each peak over a window of +/- half the duty cycle and
    normalises the central peak by the uncorrelated level extrapolated to
    zero separation (linear fit against |peak index|, which removes the
    decay of the side peaks caused by finite emission sequences).  One pass
    per candidate peak sums the integer counts: a bin's centre lies within
    half a duty cycle of its nearest peak, or of the one beside it too when
    it sits on the boundary, and then counts in both.
    """
    n_peaks = _side_peaks(hist.fine_edges[-1], duty_cycle)
    centers = hist.fine_edges[:-1] + np.diff(hist.fine_edges) / 2.0
    nearest = np.floor(centers / duty_cycle + 0.5)
    sums = np.zeros(2 * n_peaks + 1, dtype=hist.fine_counts.dtype)
    for m in (nearest - 1, nearest, nearest + 1):
        sel = (np.abs(centers - m * duty_cycle) <= duty_cycle / 2.0) & (np.abs(m) <= n_peaks)
        np.add.at(sums, (m[sel] + n_peaks).astype(np.intp), hist.fine_counts[sel])
    peak_counts = dict(zip(range(-n_peaks, n_peaks + 1), map(float, sums.tolist())))
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


# -- coincidence extraction ------------------------------------------------


@dataclass(frozen=True)
class CoincidenceSet:
    """Greedily paired detection events.

    ``dtau_ns`` is the separation of the later minus the earlier tag,
    minus the pairing offset, so time-offset (distinguishable reference)
    extractions are centred at zero as well.
    """

    pair_k: np.ndarray
    pair_l: np.ndarray
    dtau_ns: np.ndarray
    counts: CoincidenceDistribution
    n_unmatched: int

    def __len__(self) -> int:
        return int(self.dtau_ns.size)

    def same_detector_counts(self) -> np.ndarray:
        return self.counts.same_detector_values()


def _pair_greedy(ticks: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy pairing with separations in [lo, hi] ticks: the oldest
    unmatched tag still within ``hi`` pairs first.  A gap wider than ``hi``
    expires every buffered tag, so each run between such gaps pairs alone:
    a 2-tag run when its gap is at least ``lo``, the longer runs together,
    one run position per step, longest first so the open runs are a
    prefix.  Pairs are ordered by their second tag.

    A run's buffer is a queue of the tags it kept, ``queue[base + k]`` its
    k-th (a free slot holds ``t.size``): ``n`` kept, the first ``head``
    gone.  With ``kept[i]`` the number kept before tag ``i``, a step drops
    every front more than ``hi`` back by moving ``head`` to
    ``kept[reach[i]]``; the front then pairs if it lies before ``lim[i]``,
    at least ``lo`` back, and otherwise the tag is kept.
    """
    edges = np.concatenate(([0], np.flatnonzero(np.diff(ticks) > hi) + 1, [ticks.size]))
    sizes = np.diff(edges)
    runs = np.flatnonzero(sizes > 1)
    lens = sizes[runs]
    two = edges[runs[lens == 2]]
    two = two[ticks[two + 1] - ticks[two] >= lo]
    runs, lens = runs[lens > 2], lens[lens > 2]
    base = np.cumsum(lens) - lens
    rest = np.arange(lens.sum()) + np.repeat(edges[runs] - base, lens)
    t = ticks[rest]

    def back(d: int) -> np.ndarray:
        """Each tag's first run-mate at most ``d >= 0`` ticks before it."""
        return np.searchsorted(t, t - np.minimum(t, min(d, (1 << 64) - 1)))

    reach = back(hi)
    lim = back(lo - 1) if lo > 0 else np.arange(1, t.size + 1)  # lo <= 0: all earlier
    mate = np.empty(t.size, dtype=np.intp)
    queue = np.full(t.size, t.size)  # never below lim, so a free slot never pairs
    kept = np.empty(t.size, dtype=np.intp)
    longest = np.argsort(-lens, kind="stable")
    lens, base = lens[longest], base[longest]
    head = np.zeros(lens.size, dtype=np.intp)
    n = np.zeros(lens.size, dtype=np.intp)
    n_open = np.searchsorted(-lens, -np.arange(lens.max(initial=0)))
    for p, m in enumerate(n_open.tolist()):
        b = base[:m]
        i = b + p
        kept[i] = n[:m]
        h = np.maximum(head[:m], kept[reach[i]])
        mate[i] = front = queue[b + h]
        pair = front < lim[i]
        head[:m] = h + pair
        queue[b + n[:m]] = np.where(pair, t.size, i)
        n[:m] += ~pair
    second = np.flatnonzero(mate < lim)
    first = np.concatenate((two, rest[mate[second]]))
    second = np.concatenate((two + 1, rest[second]))
    order = np.argsort(second, kind="stable")  # two sorted runs: a linear merge
    return first[order], second[order]


def extract_coincidences(stream: TimeTagStream, window_ns: float,
                         time_offset_ns: float = 0.0) -> CoincidenceSet:
    """Pair detection events whose separation falls within
    ``time_offset_ns +/- window_ns``, chronologically and greedily.

    Every tag is used at most once: the oldest unmatched tag that can
    still form a pair is matched first.  ``time_offset_ns`` selects
    events a fixed number of duty cycles apart, which is how the
    fully-distinguishable same-detector reference is measured.
    """
    if window_ns <= 0:
        raise ValueError("window must be positive")
    if time_offset_ns < 0:
        raise ValueError("time offset must be non-negative")
    window_fs, offset_fs = _fs(window_ns), _fs(time_offset_ns)
    lo = -(-(offset_fs - window_fs) // stream.tick_fs)
    hi = (offset_fs + window_fs) // stream.tick_fs
    first, second = _pair_greedy(stream.ticks, lo, hi)
    ch_a, ch_b = stream.channels[first].astype(int), stream.channels[second].astype(int)
    pair_k, pair_l = np.minimum(ch_a, ch_b), np.maximum(ch_a, ch_b)
    n = stream.n_channels
    vals = np.bincount(pair_index(pair_k, pair_l, n), minlength=n * (n + 1) // 2)
    return CoincidenceSet(
        pair_k=pair_k,
        pair_l=pair_l,
        dtau_ns=(stream.ticks[second] - stream.ticks[first]) * stream.tick_ns - time_offset_ns,
        counts=CoincidenceDistribution(n, vals.astype(float)),
        n_unmatched=len(stream) - 2 * len(first),
    )


# -- dead-time correction ---------------------------------------------------


@dataclass(frozen=True)
class DeadtimeCorrectionResult:
    corrected: CoincidenceDistribution
    missed: float
    missed_sigma: float
    fit_scale: float
    clamped: bool


def median_sorted(s: np.ndarray) -> np.float64:
    """``np.median`` of the ascending array ``s``, bit for bit: the mean of
    its middle one or two values, without the ``numpy.ma`` import that
    ``np.median`` costs on its first call."""
    return s[(s.size - 1) // 2:s.size // 2 + 1].mean()


def quantile_sorted(s: np.ndarray, q: float) -> np.float64:
    """``np.quantile(s, q)`` (linear method) of the ascending array ``s``,
    bit for bit: numpy's virtual index ``(n - 1) q``, its clamped neighbours
    and its lerp, which counts down from the upper neighbour when the weight
    is 0.5 or more."""
    v = (s.size - 1) * q
    lo, hi = (-1, -1) if v >= s.size - 1 else (int(v), int(v) + 1)
    t = v - lo
    a, b = s[lo], s[hi]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _pedestal(profile: np.ndarray) -> np.float64:
    """Median of the lowest quarter of ``profile``."""
    return median_sorted(np.sort(profile)[:max(1, profile.size // 4)])


def deadtime_correction(dtau_ns, intensity: Histogram, tau_r_ns: float,
                        reference_same, measured: CoincidenceDistribution,
                        max_dtau_ns: float) -> DeadtimeCorrectionResult:
    """Recover same-detector coincidences lost to detector recovery time.

    The time-difference distribution of all coincidences follows the
    autoconvolution of the photon intensity profile, taken from the
    per-pitch folded histogram ``intensity.fine_counts`` (the sliding sums
    in ``counts`` would smooth it).  Its amplitude is fitted to the
    measured |dtau| histogram outside the recovery time; the deficit
    inside |dtau| <= tau_r is the number of missed pairs, distributed over
    the same-detector channels proportionally to the distinguishable-photon
    reference (that relative distribution does not depend on photon
    interference).  A negative deficit is a statistical fluctuation: it is
    reported as zero with ``clamped`` set.
    """
    ref = np.asarray(reference_same, dtype=float)
    if ref.ndim != 1 or ref.size != measured.n_modes:
        raise ValueError("reference must hold one entry per detector channel")
    if np.any(ref < 0) or ref.sum() <= 0:
        raise ValueError("reference same-detector distribution must be "
                         "non-negative with positive total")
    if tau_r_ns <= 0:
        return DeadtimeCorrectionResult(corrected=measured, missed=0.0,
                                        missed_sigma=0.0, fit_scale=0.0,
                                        clamped=False)
    dtau = np.abs(np.asarray(dtau_ns, dtype=float))
    step = intensity.pitch
    profile = intensity.fine_counts.astype(float)
    # dark counts add a flat pedestal to the folded profile whose
    # autoconvolution would fake a broad coincidence background
    profile = np.clip(profile - _pedestal(profile), 0.0, None)
    auto = np.correlate(profile, profile, mode="full")
    mid = profile.size - 1
    # expected |dtau| histogram: continuous separations straddle adjacent
    # lags triangularly, so bin b collects lags b and b+1 (half each,
    # already folded over the sign)
    n_bins = profile.size
    lags = np.concatenate([auto[mid:], [0.0]])
    shape = lags[:n_bins] + lags[1:n_bins + 1]
    # drop any bin only partially covered by the coincidence window
    n_use = min(n_bins, int(max_dtau_ns / step))
    shape = shape[:n_use]
    hist, _ = np.histogram(dtau, bins=np.arange(n_use + 1) * step)
    # a bin straddling the recovery time is partially suppressed, so it
    # belongs to the deficit window, not the amplitude fit
    left_edges = np.arange(n_use) * step
    inside = left_edges < tau_r_ns
    a_out, h_out = shape[~inside], hist[~inside].astype(float)
    if a_out.size < 2:
        raise ValueError(f"{a_out.size} profile bins lie beyond the recovery time "
                         "inside the window; the fit needs 2")
    if np.all(a_out == 0):
        raise DegenerateDistributionError("the intensity profile is empty beyond the "
                                          "recovery time")
    scale = float(np.dot(a_out, h_out) / np.dot(a_out, a_out))
    resid = h_out - scale * a_out
    # Poisson noise concentrates in the large-amplitude bins that dominate
    # the fit, so take the larger of the empirical and Poisson variances
    var_emp = float(resid @ resid) / max(a_out.size - 1, 1) / float(a_out @ a_out)
    var_poisson = max(scale, 0.0) * float((a_out ** 3).sum()) / float(a_out @ a_out) ** 2
    var_scale = max(var_emp, var_poisson)
    expected_inside = scale * shape[inside].sum()
    measured_inside = float(hist[inside].sum())
    missed = expected_inside - measured_inside
    # the Poisson term uses the expected in-window total: the deficit is
    # a difference against a fluctuating count of that size
    sigma = float(np.sqrt(var_scale * shape[inside].sum() ** 2
                          + max(expected_inside, measured_inside)))
    clamped = bool(missed < 0)
    missed = max(missed, 0.0)
    add = missed * ref / ref.sum()
    vals = measured.values.copy()
    diag = np.arange(measured.n_modes)
    vals[pair_index(diag, diag, measured.n_modes)] += add
    corrected = CoincidenceDistribution(measured.n_modes, vals)
    return DeadtimeCorrectionResult(corrected=corrected, missed=float(missed),
                                    missed_sigma=sigma, fit_scale=scale,
                                    clamped=clamped)
