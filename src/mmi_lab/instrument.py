"""Phenomenological simulator of the source-routing-interferometer-detector chain.

An atom transiting the cavity is driven by a fixed train of pulses, each
attempt emitting 0, 1 or 2 photons with alternating polarisation until a
spontaneous decay parks the atom in a dark state.  One polarisation is
routed through a fibre delay of one duty cycle so that sequentially
emitted photons arrive at the interference element simultaneously;
simultaneous pairs at different inputs are drawn from the time-resolved
joint detection density (its kappa = 0 limit for orthogonal polarisations),
everything else propagates as independent single photons.  Detection
applies the loss chain, timing jitter, per-channel dead time and dark
counts, and quantises to converter ticks.

Runs are simulated in blocks of whole atom transits.  One root generator,
``default_rng(seed)``, draws the transit count, the sorted transit intervals
and the dark counts.  The transits are then split where one starts more
than a train after the one before it, so no two blocks share an arrival
interval and no pair spans two blocks; block ``b`` draws the rest of its
photons' history from ``SeedSequence(seed, spawn_key=(b,))``.  A block's
generator calls are fixed in method, order and size (:func:`_simulate_block`),
and the costly inversions of its uniforms (emission times, pair cells and
outputs) run only for the photons that survive the detection chain, after
its draw.  Blocks run on up to MMI_LAB_THREADS threads, and identical seeds
give bit-identical streams at any thread count.  Every table the photons
are drawn from is built once per configuration, before the root generator
draws, and cached (:func:`_draw_tables`), so repeated runs only draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ._runtime import MAX_ELEMENTS, ConfigError, _ordered_map, check_size
from .core import mode_pairs
from .matrix import TransferMatrix, balanced_splitter, measured_chip_matrix
from .tagstream import TimeTagStream
from .temporal import (CoherenceModel, Wavepacket, calibrate_gaussian_jitter,
                       joint_density, sin2_envelope)

_BLOCK_TRANSITS = 2048  # transits a simulated block reaches before it may end


@dataclass(frozen=True)
class SourceConfig:
    """Photon-source phenomenology.

    ``overall_efficiency`` is the per-attempt probability that a produced
    photon ends up recorded (emission, transmission and detection
    combined); the simulator derives the downstream per-photon survival
    from it as ``overall_efficiency / emission_prob``.

    ``dark_state_prob`` and ``routing_error_prob`` are fitted so that the
    simulated correlation combs resemble the measured ones; they are not
    direct measurements.
    """

    duty_cycle_ns: float = 664.0
    pulse_length_ns: float = 300.0
    pulses_per_transit: int = 100
    emission_prob: float = 0.30
    two_photon_prob: float = 0.003
    dark_state_prob: float = 0.05
    routing_error_prob: float = 0.05
    atom_transit_rate: float = 0.2
    overall_efficiency: float = 0.094
    coherence_jitter_sd: float | None = None   # rad/ns; None -> calibrated
    hom_visibility_target: float = 0.708

    def __post_init__(self):
        probs = {
            "emission_prob": self.emission_prob,
            "two_photon_prob": self.two_photon_prob,
            "dark_state_prob": self.dark_state_prob,
            "routing_error_prob": self.routing_error_prob,
            "overall_efficiency": self.overall_efficiency,
        }
        for name, p in probs.items():
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {p}")
        if self.two_photon_prob > self.emission_prob:
            raise ConfigError("two_photon_prob cannot exceed emission_prob")
        # the envelope has 1 ns cells and needs at least 50
        if not 50 <= self.pulse_length_ns < self.duty_cycle_ns:
            raise ConfigError("pulse_length_ns must be at least 50 and below duty_cycle_ns")
        if not 1 <= self.pulses_per_transit <= MAX_ELEMENTS:  # one transit draws them at once
            raise ConfigError(f"pulses_per_transit must be in [1, {MAX_ELEMENTS}], "
                              f"got {self.pulses_per_transit}")
        if self.atom_transit_rate < 0:
            raise ConfigError("transit rate must be non-negative")
        if self.emission_prob > 0 and self.overall_efficiency > self.emission_prob:
            raise ConfigError("overall_efficiency cannot exceed emission_prob")
        if self.coherence_jitter_sd is not None and self.coherence_jitter_sd < 0:
            raise ConfigError("coherence_jitter_sd must be non-negative")
        if not 0 < self.hom_visibility_target < 1:
            raise ConfigError("hom_visibility_target must be in (0, 1)")

    def detection_chain_prob(self) -> float:
        """Per emitted photon: probability it survives to a recorded tag."""
        if self.emission_prob <= 0:
            return 0.0
        return min(1.0, self.overall_efficiency / self.emission_prob)

    def envelope(self) -> Wavepacket:
        return sin2_envelope(self.pulse_length_ns)

    def coherence(self) -> CoherenceModel:
        if self.coherence_jitter_sd is not None:
            return CoherenceModel.gaussian(self.coherence_jitter_sd)
        try:
            return calibrate_gaussian_jitter(self.envelope(), self.hom_visibility_target)
        except ValueError as exc:
            raise ConfigError(f"[source] hom_visibility_target: {exc}") from None


@dataclass(frozen=True)
class DetectorConfig:
    jitter_sd_ps: float = 50.0
    dead_time_ns: float = 50.0
    dark_rate_per_hour: float = 30.0
    tick_fs: int = 81_000

    def __post_init__(self):
        if self.dead_time_ns < 0 or self.jitter_sd_ps < 0 or self.dark_rate_per_hour < 0:
            raise ConfigError("detector parameters must be non-negative")
        if not 0 < self.tick_fs < 2 ** 64:
            raise ConfigError(f"tick_fs must be in [1, 2**64) (a header u64), got {self.tick_fs}")

    @property
    def tick_ns(self) -> float:
        return self.tick_fs * 1e-6


LAYOUT_KINDS = ("hbt", "hom_splitter", "mmi")
POLARIZATIONS = ("parallel", "orthogonal")


def check_layout_names(kind: str, polarization: str) -> None:
    """ConfigError unless ``kind`` is in LAYOUT_KINDS and ``polarization`` in POLARIZATIONS."""
    if kind not in LAYOUT_KINDS:
        raise ConfigError(f"layout kind must be one of {LAYOUT_KINDS}, got {kind!r}")
    if polarization not in POLARIZATIONS:
        raise ConfigError(f"polarization must be one of {POLARIZATIONS}, got {polarization!r}")


@dataclass(frozen=True)
class Layout:
    """Optical layout downstream of the source.

    ``hbt`` splits the undelayed photon stream onto two detectors;
    ``hom_splitter`` and ``mmi`` route the two polarisations onto the
    interference element's ``input_delayed`` / ``input_direct`` modes with
    a one-duty-cycle delay on the former.  ``orthogonal`` polarisation
    makes the paired photons fully distinguishable (kappa = 0).
    """

    kind: str = "mmi"
    interference_matrix: TransferMatrix = field(default_factory=measured_chip_matrix)
    input_delayed: int = 0
    input_direct: int = 1
    polarization: str = "parallel"

    def __post_init__(self):
        check_layout_names(self.kind, self.polarization)
        if self.kind != "hbt":
            n = self.interference_matrix.n_modes
            if self.kind == "hom_splitter" and n != 2:
                raise ConfigError("hom_splitter layout needs a 2-mode matrix")
            if not (0 <= self.input_delayed < n and 0 <= self.input_direct < n):
                raise ConfigError("layout input indices out of range")
            if self.input_delayed == self.input_direct:
                raise ConfigError("input mapping must be injective")

    @property
    def n_detectors(self) -> int:
        return 2 if self.kind == "hbt" else self.interference_matrix.n_modes

    @classmethod
    def hbt(cls) -> "Layout":
        return cls(kind="hbt", interference_matrix=balanced_splitter())

    @classmethod
    def mmi(cls) -> "Layout":
        return cls(kind="mmi")


@dataclass(frozen=True)
class TruthRecord:
    """Oracle bookkeeping from a simulation run.

    ``pre_deadtime`` is the stream the detectors would have recorded with
    zero recovery time (identical thinning, jitter and dark counts).

    The funnel from photons to tags: ``n_kept`` photons survive the
    detection chain, ``n_dark`` dark counts join them, ``n_outside`` of
    those fall outside ``[0, wall)`` and ``n_suppressed`` fall in a dead
    time, so ``n_kept + n_dark - n_outside - n_suppressed`` tags remain.
    The photons came from ``n_transits`` atom transits, simulated in
    ``n_blocks`` blocks.
    """

    pre_deadtime: TimeTagStream
    n_emitted: int
    delivered_pairs: int
    detected_pairs: int
    n_suppressed: int
    n_kept: int
    n_dark: int
    n_outside: int
    n_transits: int
    n_blocks: int


_CHUNK_ATTEMPTS = 2 ** 15  # emission attempts per chunk of a block's uniform draws
_TIME_BINS = 2 ** 16  # a power of two: u * _TIME_BINS and the bin edges are exact


def _cdf(weights: np.ndarray, what: str) -> np.ndarray:
    """Read-only running sum of ``weights`` ending at exactly 1, so every draw in
    [0, 1) finds a cell; ConfigError ``what`` if the weights sum to 0.  The sum
    is taken in place: ``weights`` becomes the CDF, so pass an array that
    nothing else holds."""
    cdf = np.cumsum(weights, out=weights)
    if cdf[-1] <= 0:
        raise ConfigError(what)
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


def _time_table(envelope: Wavepacket) -> tuple[np.ndarray, np.ndarray]:
    """The intensity CDF over ``envelope``'s cells, and for each bin edge ``b
    / _TIME_BINS`` of [0, 1] the number of CDF values below it; read-only."""
    cdf = _cdf(envelope.intensity() * envelope.dt, "the emission envelope has no intensity")
    bins = np.searchsorted(cdf, np.arange(_TIME_BINS + 1) / _TIME_BINS)
    bins.setflags(write=False)
    return cdf, bins


@dataclass(frozen=True, eq=False)
class _DrawTables:
    """Every table a run draws from, read-only; no pair fields for hbt."""

    dt: float  # ns, the cell width of every time grid
    time_cdf: np.ndarray  # the emission envelope's _time_table
    time_bins: np.ndarray
    route_cdf: np.ndarray  # rows: the direct input's CDF over the outputs, then the delayed one's
    pair_cdf: np.ndarray | None = None  # the CDF of the pairs' joint detection density
    pair_shape: tuple = ()  # over this grid of (mode pair, t1 cell, t2 cell)
    pair_modes: np.ndarray | None = None  # each mode pair's outputs (k, l)


@lru_cache(maxsize=4)
def _draw_tables(source: SourceConfig, layout: Layout) -> _DrawTables:
    """The configuration's :class:`_DrawTables`, cached so the coherence
    calibration and the joint density run once per configuration."""
    envelope = source.envelope()
    matrix = layout.interference_matrix
    delayed, direct = (_cdf(np.abs(matrix.elements[i]) ** 2,
                            f"input mode {i + 1} has zero transmission")
                       for i in (layout.input_delayed, layout.input_direct))
    route_cdf = np.stack((direct, delayed))
    route_cdf.setflags(write=False)
    tables = _DrawTables(envelope.dt, *_time_table(envelope), route_cdf)
    if layout.kind == "hbt":
        return tables
    coherence = (source.coherence() if layout.polarization == "parallel"
                 else CoherenceModel.incoherent())
    flat = joint_density(matrix, layout.input_delayed, layout.input_direct, envelope,
                         envelope, coherence, t_max=envelope.duration).densities
    modes = np.array(mode_pairs(matrix.n_modes))
    modes.setflags(write=False)
    pair_cdf = _cdf(flat.ravel(), "joint density vanishes; cannot sample pairs")
    return replace(tables, pair_cdf=pair_cdf, pair_shape=flat.shape, pair_modes=modes)


def _emission_times(tables: _DrawTables, u: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Inverse-CDF emission times (ns) of the uniform pairs ``(u, frac)`` from
    ``tables``' :func:`_time_table`: ``u`` picks the cell, ``frac`` the place
    in it.  A ``u`` in a bin of [0, 1) that holds no CDF value takes its cell
    from the bin table, which is what a search of the CDF gives; only the
    others search it."""
    b = (u * _TIME_BINS).astype(np.intp)
    cell = tables.time_bins[b]
    split = np.flatnonzero(cell != tables.time_bins[b + 1])
    cell[split] = np.searchsorted(tables.time_cdf, u[split])
    return (cell + frac) * tables.dt


def _pair_cells(tables: _DrawTables, u: np.ndarray):
    """Inverse-CDF (mode pair row, t1 cell, t2 cell) of the joint density at
    each uniform ``u``."""
    # sorted keys search faster; each index is the same
    order = np.argsort(u)
    cell = np.empty(u.size, dtype=np.intp)
    cell[order] = np.searchsorted(tables.pair_cdf, u[order])
    return np.unravel_index(cell, tables.pair_shape)


def _route(tables: _DrawTables, delayed: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Output of each single photon at the delayed (else the direct) input
    with uniform ``u``: the count of its input's CDF values below ``u``, the
    index ``np.searchsorted`` gives."""
    out = np.zeros(u.size, dtype=np.uint8)
    for direct, late in tables.route_cdf.T[:-1]:  # the last values are 1, above every draw
        out += np.where(delayed, late, direct) < u
    return out


def _emit_photons(source: SourceConfig, transit_intervals: np.ndarray,
                  rng: np.random.Generator):
    """Vectorised emission phase.

    Returns flat arrays (global attempt interval, int8 polarisation parity);
    parity 0 is the delayed polarisation.  The block's two (transits,
    attempts) uniform draws are taken a chunk of transits at a time, which
    gives the same values with a chunk's memory.
    """
    block, n_att = transit_intervals.size, source.pulses_per_transit
    step = max(1, _CHUNK_ATTEMPTS // n_att)
    chunks = [slice(a, a + step) for a in range(0, block, step)]
    one = np.empty((block, n_att), dtype=bool)  # at least one photon
    two = np.empty_like(one)  # two_photon_prob <= emission_prob: two within one
    for c in chunks:
        u = rng.random(one[c].shape)
        np.less(u, source.emission_prob, out=one[c])
        np.less(u, source.two_photon_prob, out=two[c])
    # a spontaneous-decay branch replaces the emission and silences the
    # rest of the transit
    for c in chunks:
        dark = rng.random(one[c].shape) < source.dark_state_prob
        dark &= one[c]
        first_dark = np.where(dark.any(axis=1), dark.argmax(axis=1), n_att)
        one[c] &= np.arange(n_att) < first_dark[:, None]
    phase = rng.integers(0, 2, size=block)
    slots = np.flatnonzero(one)
    reps = two.ravel()[slots] + np.int8(1)
    slots = np.repeat(slots, reps)
    rows = slots // n_att  # faster than np.divmod
    att = slots - rows * n_att
    pols = ((att + phase[rows]) & 1).astype(np.int8)
    # a double emission flips the spin twice: the second photon carries
    # the opposite polarisation, so the routing splits the pair; the k-th
    # double's second photon is k + 1 places after its slot's index
    doubles = np.flatnonzero(reps == 2)
    pols[doubles + np.arange(1, doubles.size + 1)] ^= 1
    return transit_intervals[rows] + att, pols


def _block_bounds(transit_intervals: np.ndarray, pulses: int,
                  target: int = _BLOCK_TRANSITS) -> list[int]:
    """Block ``b`` holds the sorted transits ``bounds[b]:bounds[b + 1]``.

    A block ends before the first transit, ``target`` or more transits into
    it, that starts more than ``pulses`` intervals after the transit before
    it.  A train of ``pulses`` attempts arrives, delay included, over
    ``pulses + 1`` intervals, so no two blocks share an arrival interval.
    No transits give no block.
    """
    cuts = np.flatnonzero(np.diff(transit_intervals) > pulses) + 1
    bounds = [0]
    while (i := int(np.searchsorted(cuts, bounds[-1] + target))) < cuts.size:
        bounds.append(int(cuts[i]))
    if transit_intervals.size:
        bounds.append(int(transit_intervals.size))
    return bounds


def _simulate_block(source: SourceConfig, layout: Layout, detectors: DetectorConfig,
                    transit_intervals: np.ndarray, rng: np.random.Generator, tables: _DrawTables):
    """Emission, routing, pair sampling, the detection chain and jitter of one
    block's transits, drawn from ``rng`` by way of ``tables``.

    Returns the surviving photons' channels and times (ns) and the block's
    counts of emitted photons, delivered pairs and detected pairs.

    The generator calls are fixed in method, order and size: emission, dark
    branch and phase per transit; two uniforms per photon for its emission
    time; the hbt channels or the routing errors; three joint draws per
    pair; one output draw per other photon; every photon's detection draw;
    each survivor's jitter.
    Until the detection draw only the routing errors are read, since they
    decide the pairs; the other uniforms stay raw, and then the emission
    times, pair cells and outputs are inverted for the survivors alone,
    each pair with a survivor once.

    Photons are routed pair photons first (the pairs' first photons, then
    their second ones), then every other photon in arrival order, and the
    survivors keep that order.
    """
    duty, keep = source.duty_cycle_ns, source.detection_chain_prob()
    g_interval, pol = _emit_photons(source, transit_intervals, rng)
    n_emitted = int(g_interval.size)
    u_time, u_frac = rng.random(n_emitted), rng.random(n_emitted)

    delivered_pairs = detected_pairs = 0
    if layout.kind == "hbt":
        del pol
        channel = rng.integers(0, 2, size=n_emitted).astype(np.uint8)
        # index arrays gather faster than a random boolean mask
        kept = np.flatnonzero(rng.random(n_emitted) < keep)
        t_emit = _emission_times(tables, u_time[kept], u_frac[kept])
        del u_time, u_frac
        channel = channel[kept]
        t_ns = g_interval[kept] * duty
        del g_interval, kept
        t_ns += t_emit
    else:
        # the wrong path flips delay and input: a photon is delayed when its
        # parity (0 = delayed) equals its routing error
        delayed = pol == (rng.random(n_emitted) < source.routing_error_prob)
        del pol
        arrival = g_interval  # in place: a delayed photon arrives one cycle later
        arrival += delayed
        order = np.argsort(arrival, kind="stable")  # photon at each arrival position
        arrival, delayed = arrival[order], delayed[order]
        del g_interval

        # a pair is a run of exactly two equal arrivals at different inputs
        starts = np.ones(n_emitted + 1, dtype=bool)
        np.not_equal(arrival[1:], arrival[:-1], out=starts[1:n_emitted])
        pair_first = np.flatnonzero(starts[:-2] & ~starts[1:-1] & starts[2:]
                                    & (delayed[:-1] != delayed[1:]))
        del starts
        delivered_pairs = n_pairs = int(pair_first.size)
        two = 2 * n_pairs
        u_pair, f1, f2 = rng.random(n_pairs), rng.random(n_pairs), rng.random(n_pairs)
        # one output draw per other photon, the lower input mode's first
        u_single = rng.random(n_emitted - two)

        kept = np.flatnonzero(rng.random(n_emitted) < keep)
        split = int(np.searchsorted(kept, two))
        r = kept[:split]
        second = r >= n_pairs
        j = r - n_pairs * second
        per_pair = np.bincount(j, minlength=n_pairs)
        detected_pairs = int(np.count_nonzero(per_pair == 2))
        live = np.flatnonzero(per_pair)
        pair, c1, c2 = _pair_cells(tables, u_pair[live])
        at = np.searchsorted(live, j)
        pair_channel = tables.pair_modes[pair[at], second.view(np.uint8)]
        t_pair = arrival[pair_first[j]] * duty
        t_pair += (np.where(second, c2[at], c1[at])
                   + np.where(second, f2[j], f1[j])) * tables.dt

        # the q-th single photon follows every pair with at most q singles
        # before it; the photons at the higher-numbered input mode draw after
        # the lower one's, and each pair before a single holds one of them
        high = delayed if layout.input_delayed > layout.input_direct else ~delayed
        q = kept[split:] - two
        n_before = np.searchsorted(pair_first - 2 * np.arange(n_pairs), q, side="right")
        s = q + 2 * n_before
        high_before = np.cumsum(high)[s] - high[s] - n_before  # singles only
        low_singles = n_emitted - two - (np.count_nonzero(high) - n_pairs)
        draw = np.where(high[s], low_singles + high_before, q - high_before)
        single_channel = _route(tables, delayed[s], u_single[draw])
        photon = order[s]
        t_single = arrival[s] * duty
        t_single += _emission_times(tables, u_time[photon], u_frac[photon])
        # the block's outputs are allocated once its photon arrays are freed
        del arrival, order, delayed, high, u_time, u_frac, u_single, kept, s, photon
        channel = np.concatenate((pair_channel, single_channel)).astype(np.uint8, copy=False)
        t_ns = np.concatenate((t_pair, t_single))

    if detectors.jitter_sd_ps > 0 and t_ns.size:
        t_ns += rng.normal(0.0, detectors.jitter_sd_ps * 1e-3, t_ns.size)
    return channel, t_ns, n_emitted, delivered_pairs, detected_pairs


def simulate_run(source: SourceConfig, layout: Layout, detectors: DetectorConfig,
                 wall_time_s: float, seed: int, with_truth: bool = False):
    """Produce a deterministic time-tag stream for the configured chain.

    Returns the stream, or ``(stream, TruthRecord)`` when ``with_truth``
    is set.  ``default_rng(seed)`` draws the transit count, the sorted
    transit intervals and the dark counts; each block of transits
    (:func:`_block_bounds`) is simulated from
    ``SeedSequence(seed, spawn_key=(b,))`` by :func:`_simulate_block`, on up
    to MMI_LAB_THREADS threads.  The blocks' surviving photons, joined in
    block order, and the dark counts then pass the window, tick conversion,
    time order and dead time.  So only the survivors are held for the whole
    run, every other per-photon array is one block's per thread, and the
    stream is a pure function of the configuration, seed and run length.
    """
    if not np.isfinite(wall_time_s) or wall_time_s <= 0:
        raise ConfigError(f"wall time must be positive and finite, got {wall_time_s}")
    wall_ns = wall_time_s * 1e9
    if wall_ns / detectors.tick_ns >= 2.0 ** 63:
        raise ConfigError(
            f"--seconds {wall_time_s:g} runs past the last int64 tick of the stream "
            f"({2.0 ** 63 * detectors.tick_ns * 1e-9:.4g} s at {detectors.tick_fs} fs per tick)")
    n_det = layout.n_detectors
    transits = source.atom_transit_rate * wall_time_s
    dark_mean = detectors.dark_rate_per_hour * wall_time_s / 3600.0
    expected = (transits * (1 + source.pulses_per_transit * source.overall_efficiency)
                + n_det * dark_mean)
    check_size(expected, f"{expected:g} expected transits and tags are too many to allocate: "
               "lower --seconds, [source] atom_transit_rate or [detectors] dark_rate_per_hour")
    # before any draw: a configuration that cannot route photons fails even with none
    tables = _draw_tables(source, layout)
    rng = np.random.default_rng(seed)

    # -- root draws: transits and dark counts ------------------------------
    n_transits = int(rng.poisson(transits))
    n_intervals = int(wall_ns // source.duty_cycle_ns)
    transit_intervals = np.sort(rng.integers(0, max(n_intervals, 1),
                                             size=n_transits)).astype(np.int64)
    dark_ch = np.repeat(np.arange(n_det, dtype=np.uint8), rng.poisson(dark_mean, n_det))
    dark_t = rng.random(dark_ch.size) * wall_ns

    # -- blocks of whole transits ----------------------------------------
    bounds = _block_bounds(transit_intervals, source.pulses_per_transit)
    # a block draws (transits, pulses_per_transit) emission attempts at once
    attempts = float(np.diff(bounds).max(initial=0)) * source.pulses_per_transit
    check_size(attempts, f"{attempts:g} emission attempts in one block of transits are too "
               "many to allocate: lower [source] pulses_per_transit")

    def block(b):
        block_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        return _simulate_block(source, layout, detectors,
                               transit_intervals[bounds[b]:bounds[b + 1]], block_rng, tables)

    blocks = _ordered_map(block, range(len(bounds) - 1))
    del transit_intervals
    channel = np.concatenate([b[0] for b in blocks] + [dark_ch])
    t_ns = np.concatenate([b[1] for b in blocks] + [dark_t])
    n_emitted, delivered_pairs, detected_pairs = (sum(b[i] for b in blocks)
                                                  for i in (2, 3, 4))
    n_dark = dark_ch.size
    del blocks, dark_ch, dark_t

    inside = (t_ns >= 0) & (t_ns < wall_ns)
    n_kept = int(channel.size) - n_dark
    n_outside = int(channel.size - np.count_nonzero(inside))
    channel, t_ns = channel[inside], t_ns[inside]
    del inside
    t_ns /= detectors.tick_ns  # in place: the tick count, then rounded
    ticks = np.round(t_ns, out=t_ns).astype(np.uint64)
    del t_ns
    order = np.lexsort((channel, ticks))
    channel, ticks = channel[order], ticks[order]
    del order

    dead_ticks = int(round(detectors.dead_time_ns / detectors.tick_ns))
    keep = _apply_dead_time(channel, ticks, n_det, dead_ticks)
    stream = TimeTagStream(channel[keep], ticks[keep], n_channels=n_det,
                           tick_fs=detectors.tick_fs)
    if not with_truth:
        return stream
    truth = TruthRecord(
        pre_deadtime=TimeTagStream(channel, ticks, n_channels=n_det,
                                   tick_fs=detectors.tick_fs),
        n_emitted=n_emitted,
        delivered_pairs=delivered_pairs,
        detected_pairs=detected_pairs,
        n_suppressed=int(np.sum(~keep)),
        n_kept=n_kept,
        n_dark=n_dark,
        n_outside=n_outside,
        n_transits=n_transits,
        n_blocks=len(bounds) - 1,
    )
    return stream, truth


def _apply_dead_time(channel: np.ndarray, ticks: np.ndarray, n_channels: int,
                     dead_ticks: int) -> np.ndarray:
    """Keep mask of tags in time order (ticks non-negative, channels below
    ``n_channels``): a tag within ``dead_ticks`` of the last kept tag on its
    channel is dropped.

    A tag at least ``dead_ticks`` after the previous tag on its channel is
    kept whatever became of that one, and so is each channel's first tag.
    Only the runs of closer tags need the tag-by-tag rule, starting from
    the kept tag just before the run; the run's first tag always falls.
    The channels are taken one at a time, so besides the mask only one
    channel's tags are held.
    """
    keep = np.ones(channel.size, dtype=bool)
    for c in range(n_channels):
        tags = np.flatnonzero(channel == c)  # in time order
        t = ticks[tags]
        close = np.zeros(t.size, dtype=bool)
        close[1:] = np.diff(t) < dead_ticks
        edges = np.diff(close.view(np.int8), prepend=np.int8(0), append=np.int8(0))
        starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
        kept = ~close
        long = ends - starts > 1
        for a, b in zip(starts[long].tolist(), ends[long].tolist()):
            last = int(t[a - 1])
            for n, tick in enumerate(t[a + 1:b].tolist(), a + 1):
                if tick - last >= dead_ticks:
                    kept[n] = True
                    last = tick
        keep[tags] = kept
    return keep


def expected_pair_rate(source: SourceConfig, layout: Layout) -> float:
    """Analytic mean rate of recorded coincident pairs (both photons
    detected), to first order in the routing-error and two-photon rates.

    A delivered pair needs two consecutive attempts to emit exactly one
    photon each (delayed polarisation first), neither emission to branch
    into the dark state, correct routing of both photons and survival of
    the detection chain for both.  The per-attempt atom survival is
    ``a = 1 - emission_prob * dark_state_prob``; the two equally likely
    alternation phases see slightly different numbers of usable slots
    (floor(n/2) and floor((n-1)/2) for n pulses).

    For the ``hbt`` layout there is no pair delivery; the returned rate is
    that of detected same-interval pairs from two-photon emissions.
    """
    p1, p2 = source.emission_prob, source.two_photon_prob
    keep = source.detection_chain_prob()
    n = source.pulses_per_transit
    a = 1.0 - p1 * source.dark_state_prob
    if layout.kind == "hbt":
        alive = float(n) if a == 1.0 else (1.0 - a ** n) / (1.0 - a)
        return source.atom_transit_rate * alive * p2 * keep ** 2
    n_even = n // 2            # slots (0,1), (2,3), ... for the aligned phase
    n_odd = (n - 1) // 2       # slots (1,2), (3,4), ... for the shifted phase
    if a == 1.0:
        slots = 0.5 * (n_even + n_odd)
    else:
        s_even = (1.0 - a ** (2 * n_even)) / (1.0 - a * a)
        s_odd = a * (1.0 - a ** (2 * n_odd)) / (1.0 - a * a)
        slots = 0.5 * (s_even + s_odd)
    # each of the two emissions must also dodge its own dark-state branch
    per_slot = ((p1 - p2) ** 2
                * (1.0 - source.dark_state_prob) ** 2
                * (1.0 - source.routing_error_prob) ** 2
                * keep ** 2)
    return source.atom_transit_rate * slots * per_slot
