"""Reference implementations of the simulator's pair sampling and routing.

``JointDensity`` with its dict of per-pair arrays, the dict-building
``joint_density``, ``_PairSampler`` (which concatenates that dict again on
every run), ``sample_times`` (which rebuilds the envelope's CDF on every
call), ``_emit_photons``, the tag-by-tag ``_apply_dead_time`` loop and
``simulate_run`` with its three routing branches are kept verbatim as
oracles for ``mmi_lab.temporal`` and ``mmi_lab.instrument``; only the
emission chunk size, ``_TRANSIT_CHUNK`` (4,096 transits) in ``simulate_run``,
became a parameter of ``_emit_photons``.  The stacked
density array must give the same numbers.  ``simulate_run`` also counts the
funnel fields the truth record gained later; it draws the whole run from one
generator, so the block-seeded simulator matches it in distribution only.

``hom_profile`` is the balanced-splitter profile as the anti-diagonal sums
of two full 2-D joint densities, verbatim; the one-dimensional correlation
in ``mmi_lab.temporal`` must agree with it to rounding.  The stacked
density's anti-diagonal marginal, ``JointDensity.dtau_marginal`` of
``mmi_lab.temporal``, is kept as ``stacked_dtau_marginal``.

``simulate_block`` is the single-generator simulator's phases from emission
through jitter, verbatim, as a function of the transit intervals, the
generator and the emission chunk size, with its pair sampler
(``_pair_sampler``, normalised by the sum of the density, and
``_sample_pairs``, which drew from its positional tuple) and
``_route_singles`` (normalised per row before the running sum).  The
block-seeded simulator emits each block's transits in one pass, so each of
its blocks must equal ``simulate_block`` with a chunk of the whole block bit
for bit.

``dense_simulate_block`` is the block simulator that inverted every
photon's draws as it drew them, with its ``dense_emit_photons``,
``dense_sample_times``, ``dense_sample_pairs`` and ``dense_route_singles``,
verbatim but for the ``dense_`` prefix of their names.  They read the draw
tables with each input's routing CDF keyed by its input mode, as
``dense_tables`` builds them from the layout's matrix.  The block that
inverts only the survivors' draws must equal ``dense_simulate_block`` bit for
bit and make the same generator calls (``DrawLog``).  Over tables without
the pair fields, which the simulator built for orthogonal layouts before
their pairs were drawn from the kappa = 0 joint density, it routes the pair
photons one by one: the replaced rule, which the new one must match in
distribution.

``amplitude_at`` (once the ``Wavepacket`` method that resampled an envelope
at arbitrary times, which this module's ``joint_density`` needs to shift an
envelope by a delay) and the ``_on_grid`` that sampled both envelopes with
it are kept verbatim from ``mmi_lab.temporal``; ``amplitude_at`` takes the
envelope as its first argument in place of ``self``.  At the grid's own cell
centres it reads each cell once, so the zero-padded envelopes of
``mmi_lab.temporal._on_grid`` must be bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from mmi_lab.core import CoincidenceDistribution, _check_input_pair, mode_pairs, pair_index
from mmi_lab.instrument import (_TIME_BINS, ConfigError, DetectorConfig, Layout, SourceConfig,
                                TruthRecord, _cdf, _draw_tables, _DrawTables)
from mmi_lab.matrix import TransferMatrix, balanced_splitter
from mmi_lab.tagstream import TimeTagStream
from mmi_lab.temporal import CoherenceModel, HomProfile, Wavepacket
from mmi_lab.temporal import joint_density as stacked_joint_density

_TRANSIT_CHUNK = 4096  # transits per emission chunk of the single-generator simulator


def amplitude_at(envelope: Wavepacket, t: np.ndarray) -> np.ndarray:
    """Envelope amplitude at arbitrary times (zero outside the support)."""
    t = np.asarray(t, dtype=float)
    idx = np.floor(t / envelope.dt).astype(int)
    inside = (t >= 0) & (idx >= 0) & (idx < envelope.amplitudes.size)
    out = np.zeros(t.shape, dtype=complex)
    out[inside] = envelope.amplitudes[idx[inside]]
    return out


def _on_grid(env_1: Wavepacket, env_2: Wavepacket, t_max: float):
    """Cell centres of [0, ``t_max``) on the envelopes' common step, and
    both envelopes' amplitudes there."""
    if env_1.dt != env_2.dt:
        raise ValueError("envelope grids must share the same step")
    t = (np.arange(int(round(t_max / env_1.dt))) + 0.5) * env_1.dt
    return t, amplitude_at(env_1, t), amplitude_at(env_2, t)


@dataclass(frozen=True)
class JointDensity:
    """Joint first/second detection-time densities per output pair.

    ``densities[(k, l)]`` has shape (nt, nt); axis 0 is the detection time
    at output k, axis 1 at output l.  Units 1/ns^2.
    """

    n_modes: int
    t: np.ndarray
    dt: float
    densities: dict

    def integrate(self) -> CoincidenceDistribution:
        """Integrate each pair density over both times (raw table)."""
        vals = np.array([self.densities[p].sum() * self.dt ** 2
                         for p in mode_pairs(self.n_modes)])
        return CoincidenceDistribution(self.n_modes, vals)

    def dtau_marginal(self, pair: tuple[int, int] | None = None):
        """Marginal density over the detection time difference t2 - t1.

        Sums the named pair (or all pairs) along anti-diagonals; returns
        (dtau grid, density per ns).
        """
        nt = self.t.size
        if pair is None:
            mat = sum(self.densities[p] for p in mode_pairs(self.n_modes))
        else:
            mat = self.densities[(min(pair), max(pair))]
        i1, i2 = np.meshgrid(np.arange(nt), np.arange(nt), indexing="ij")
        offsets = (i2 - i1).ravel() + nt - 1
        marg = np.bincount(offsets, weights=mat.ravel(), minlength=2 * nt - 1) * self.dt
        dtau = np.arange(-(nt - 1), nt) * self.dt
        return dtau, marg


def joint_density(matrix: TransferMatrix, i: int, j: int,
                  env_i: Wavepacket, env_j: Wavepacket,
                  coherence: CoherenceModel,
                  delay_offset: float = 0.0,
                  t_max: float | None = None) -> JointDensity:
    """Joint detection-time density for pair inputs (i, j).

    For the first detection at output k (time t1) and the second at l (t2):

        p_kl = [ |M_ik M_jl|^2 I_i(t1) I_j(t2)
               + |M_il M_jk|^2 I_j(t1) I_i(t2)
               + 2 kappa(t2 - t1) Re( M_ik M_jl conj(M_il M_jk)
                   zeta_i(t1) zeta_j(t2) conj(zeta_j(t1) zeta_i(t2)) ) ] / (1 + delta_kl)

    ``delay_offset`` shifts the second photon's envelope by a relative
    arrival delay.  With perfect coherence and matched envelopes the
    integrated table equals the indistinguishable closed form; with
    kappa = 0 it equals the distinguishable one.
    """
    _check_input_pair(matrix.n_modes, i, j)
    if env_i.dt != env_j.dt:
        raise ValueError("envelope grids must share the same step")
    dt = env_i.dt
    if t_max is None:
        t_max = 2.0 * max(env_i.duration, env_j.duration + max(delay_offset, 0.0))
    t = (np.arange(int(round(t_max / dt))) + 0.5) * dt
    zi = amplitude_at(env_i, t)
    zj = amplitude_at(env_j, t - delay_offset)
    ii = np.abs(zi) ** 2
    ij = np.abs(zj) ** 2
    u = zi * np.conj(zj)
    cross = np.outer(u, np.conj(u))
    kap = coherence.kappa(np.subtract.outer(t, t).T)  # kappa(t2 - t1)
    m = matrix.elements
    densities = {}
    for k, l in mode_pairs(matrix.n_modes):
        a = m[i, k] * m[j, l]
        b = m[i, l] * m[j, k]
        dup = 2.0 if k == l else 1.0
        p = (abs(a) ** 2 * np.outer(ii, ij)
             + abs(b) ** 2 * np.outer(ij, ii)
             + 2.0 * kap * (a * np.conj(b) * cross).real) / dup
        # interference can only redistribute, never push below zero;
        # anything beyond float dust indicates a broken kernel
        floor = p.min()
        if floor < -1e-9 * max(p.max(), 1.0):
            raise AssertionError(f"negative joint density {floor} at pair ({k}, {l})")
        densities[(k, l)] = np.clip(p, 0.0, None)
    return JointDensity(n_modes=matrix.n_modes, t=t, dt=dt, densities=densities)


def stacked_dtau_marginal(jd, pair: tuple[int, int]):
    """Marginal density of output pair ``pair`` over the detection time
    difference t2 - t1 (anti-diagonal sums); returns (dtau grid, density
    per ns).  ``jd`` is a stacked ``mmi_lab.temporal.JointDensity``."""
    nt = jd.t.size
    mat = jd.densities[pair_index(min(pair), max(pair), jd.n_modes)]
    i1, i2 = np.meshgrid(np.arange(nt), np.arange(nt), indexing="ij")
    offsets = (i2 - i1).ravel() + nt - 1
    marg = np.bincount(offsets, weights=mat.ravel(), minlength=2 * nt - 1) * jd.dt
    dtau = np.arange(-(nt - 1), nt) * jd.dt
    return dtau, marg


def hom_profile(env_1: Wavepacket, env_2: Wavepacket,
                coherence: CoherenceModel) -> HomProfile:
    """Balanced-splitter cross-coincidence profile and visibility of two
    photons that arrive together (see :func:`joint_density`)."""
    bs = balanced_splitter()
    par = joint_density(bs, 0, 1, env_1, env_2, coherence)
    orth = joint_density(bs, 0, 1, env_1, env_2, CoherenceModel.incoherent())
    dtau, p_par = par.dtau_marginal((0, 1))
    _, p_orth = orth.dtau_marginal((0, 1))
    total_orth = p_orth.sum()
    if total_orth <= 0:
        raise ValueError("no cross coincidences in the distinguishable reference")
    vis = float(1.0 - p_par.sum() / total_orth)
    return HomProfile(dtau=dtau, parallel=p_par, orthogonal=p_orth,
                      visibility_integrated=vis)


class _PairSampler:
    """Inverse-CDF sampler over the discretised joint detection density."""

    def __init__(self, matrix: TransferMatrix, i: int, j: int,
                 envelope: Wavepacket, coherence: CoherenceModel):
        jd = joint_density(matrix, i, j, envelope, envelope, coherence,
                           t_max=envelope.duration)
        pairs = mode_pairs(matrix.n_modes)
        self.pair_k, self.pair_l = np.array(pairs).T
        self.nt = jd.t.size
        self.dt = jd.dt
        flat = np.concatenate([jd.densities[p].ravel() for p in pairs])
        total = flat.sum()
        if total <= 0:
            raise ConfigError("joint density vanishes; cannot sample pairs")
        self.cdf = np.cumsum(flat) / total

    def sample(self, rng: np.random.Generator, size: int):
        u = rng.random(size)
        flat_idx = np.searchsorted(self.cdf, u)
        cells = self.nt * self.nt
        pair_idx = flat_idx // cells
        rem = flat_idx % cells
        c1, c2 = rem // self.nt, rem % self.nt
        t1 = (c1 + rng.random(size)) * self.dt
        t2 = (c2 + rng.random(size)) * self.dt
        return self.pair_k[pair_idx], self.pair_l[pair_idx], t1, t2


def sample_times(envelope: Wavepacket, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw detection times from the |amplitude|^2 intensity profile."""
    pdf = envelope.intensity() * envelope.dt
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    u = rng.random(size)
    cell = np.searchsorted(cdf, u)
    return (cell + rng.random(size)) * envelope.dt


def _apply_dead_time(channel: np.ndarray, ticks: np.ndarray, n_channels: int,
                     dead_ticks: int) -> np.ndarray:
    keep = np.ones(channel.size, dtype=bool)
    if dead_ticks <= 0:
        return keep
    last = [-dead_ticks - 1] * n_channels
    ch_list = channel.tolist()
    tk_list = ticks.tolist()
    for idx, (ch, t) in enumerate(zip(ch_list, tk_list)):
        if t - last[ch] < dead_ticks:
            keep[idx] = False
        else:
            last[ch] = t
    return keep


def _emit_photons(source: SourceConfig, n_transits: int, transit_intervals,
                  rng: np.random.Generator, envelope: Wavepacket,
                  chunk: int = _TRANSIT_CHUNK):
    """Vectorised emission phase, ``chunk`` transits at a time.

    Returns flat arrays (global attempt interval, polarisation parity,
    emission time within the interval); parity 0 is the delayed
    polarisation.
    """
    n_att = source.pulses_per_transit
    out_interval, out_pol, out_t = [], [], []
    for a in range(0, n_transits, chunk):
        b = min(a + chunk, n_transits)
        block = b - a
        u = rng.random((block, n_att))
        photons = np.zeros((block, n_att), dtype=np.int8)
        photons[u < source.emission_prob] = 1
        photons[u < source.two_photon_prob] = 2
        # a spontaneous-decay branch replaces the emission and silences the
        # rest of the transit
        dark = (photons > 0) & (rng.random((block, n_att)) < source.dark_state_prob)
        has_dark = dark.any(axis=1)
        first_dark = np.where(has_dark, dark.argmax(axis=1), n_att)
        cols = np.arange(n_att)[None, :]
        photons[cols >= first_dark[:, None]] = 0
        phase = rng.integers(0, 2, size=block)
        pol = (cols + phase[:, None]) % 2
        rows, att = np.nonzero(photons)
        reps = photons[rows, att]
        rows = np.repeat(rows, reps)
        att = np.repeat(att, reps)
        pols = pol[rows, att]
        # a double emission flips the spin twice: the second photon carries
        # the opposite polarisation, so the routing splits the pair
        if np.any(reps == 2):
            second = np.zeros(rows.size, dtype=bool)
            second[np.cumsum(reps)[reps == 2] - 1] = True
            pols = np.where(second, 1 - pols, pols)
        out_interval.append(transit_intervals[a + rows] + att)
        out_pol.append(pols)
        out_t.append(sample_times(envelope, rng, rows.size))
    if not out_interval:
        empty = np.array([], dtype=np.int64)
        return empty, empty.astype(np.int8), np.array([], dtype=float)
    return (np.concatenate(out_interval),
            np.concatenate(out_pol).astype(np.int8),
            np.concatenate(out_t))


def simulate_run(source: SourceConfig, layout: Layout, detectors: DetectorConfig,
                 wall_time_s: float, seed: int, with_truth: bool = False):
    """Produce a deterministic time-tag stream for the configured chain.

    Returns the stream, or ``(stream, TruthRecord)`` when ``with_truth``
    is set.
    """
    if wall_time_s <= 0:
        raise ConfigError("wall time must be positive")
    rng = np.random.default_rng(seed)
    duty = source.duty_cycle_ns
    wall_ns = wall_time_s * 1e9
    n_intervals = int(wall_ns // duty)
    envelope = source.envelope()

    # -- transits and raw emissions ------------------------------------
    n_transits = int(rng.poisson(source.atom_transit_rate * wall_time_s))
    transit_intervals = np.sort(rng.integers(0, max(n_intervals, 1),
                                             size=n_transits)).astype(np.int64)
    g_interval, pol, t_emit = _emit_photons(source, n_transits,
                                            transit_intervals, rng, envelope)
    n_emitted = int(g_interval.size)

    # -- routing and interference ---------------------------------------
    delivered_pairs = 0
    if layout.kind == "hbt":
        channel = rng.integers(0, 2, size=n_emitted)
        t_ns = g_interval.astype(float) * duty + t_emit
        pair_id = np.full(n_emitted, -1, dtype=np.int64)
    else:
        err = rng.random(n_emitted) < source.routing_error_prob
        eff_pol = np.where(err, 1 - pol, pol)  # wrong path flips delay and input
        input_idx = np.where(eff_pol == 0, layout.input_delayed, layout.input_direct)
        arrival = g_interval + (eff_pol == 0).astype(np.int64)
        order = np.argsort(arrival, kind="stable")
        arrival, input_idx, t_arr = arrival[order], input_idx[order], t_emit[order]

        _, start, counts = np.unique(arrival, return_index=True, return_counts=True)
        pair_first = start[(counts == 2)]
        pair_first = pair_first[input_idx[pair_first] != input_idx[pair_first + 1]]
        delivered_pairs = int(pair_first.size)
        is_pair = np.zeros(arrival.size, dtype=bool)
        is_pair[pair_first] = True
        is_pair[pair_first + 1] = True

        chans, times, pids = [], [], []
        if delivered_pairs and layout.polarization == "parallel":
            # indistinguishable pairs: joint draw over output pair and times
            sampler = _PairSampler(layout.interference_matrix,
                                   layout.input_delayed, layout.input_direct,
                                   envelope, source.coherence())
            k, l, t1, t2 = sampler.sample(rng, delivered_pairs)
            base = arrival[pair_first].astype(float) * duty
            pid = np.arange(delivered_pairs, dtype=np.int64)
            chans += [k, l]
            times += [base + t1, base + t2]
            pids += [pid, pid]
            singles = ~is_pair
        elif delivered_pairs:
            # distinguishable pairs: route both photons independently but
            # keep the pair bookkeeping
            pid_arr = np.full(arrival.size, -1, dtype=np.int64)
            pid_arr[pair_first] = np.arange(delivered_pairs)
            pid_arr[pair_first + 1] = np.arange(delivered_pairs)
            chans.append(_route_singles(layout.interference_matrix,
                                        input_idx[is_pair], rng))
            times.append(arrival[is_pair].astype(float) * duty + t_arr[is_pair])
            pids.append(pid_arr[is_pair])
            singles = ~is_pair
        else:
            singles = np.ones(arrival.size, dtype=bool)
        n_single = int(singles.sum())
        if n_single:
            chans.append(_route_singles(layout.interference_matrix,
                                        input_idx[singles], rng))
            times.append(arrival[singles].astype(float) * duty + t_arr[singles])
            pids.append(np.full(n_single, -1, dtype=np.int64))
        channel = np.concatenate(chans) if chans else np.array([], dtype=np.int64)
        t_ns = np.concatenate(times) if times else np.array([], dtype=float)
        pair_id = np.concatenate(pids) if pids else np.array([], dtype=np.int64)

    # -- detection chain -------------------------------------------------
    kept = rng.random(channel.size) < source.detection_chain_prob()
    channel, t_ns, pair_id = channel[kept], t_ns[kept], pair_id[kept]
    n_kept = channel.size
    if delivered_pairs:
        surviving = pair_id[pair_id >= 0]
        per_pair = np.bincount(surviving, minlength=delivered_pairs)
        detected_pairs = int(np.sum(per_pair == 2))
    else:
        detected_pairs = 0
    if detectors.jitter_sd_ps > 0 and t_ns.size:
        t_ns = t_ns + rng.normal(0.0, detectors.jitter_sd_ps * 1e-3, t_ns.size)

    n_det = layout.n_detectors
    dark_mean = detectors.dark_rate_per_hour * wall_time_s / 3600.0
    dark_ch = [np.full(int(rng.poisson(dark_mean)), ch, dtype=np.int64)
               for ch in range(n_det)]
    dark_t = [rng.random(c.size) * wall_ns for c in dark_ch]
    channel = np.concatenate([channel] + dark_ch)
    t_ns = np.concatenate([t_ns] + dark_t)

    inside = (t_ns >= 0) & (t_ns < wall_ns)
    n_dark = inside.size - n_kept
    n_outside = int(np.sum(~inside))
    channel, t_ns = channel[inside], t_ns[inside]
    ticks = np.round(t_ns / detectors.tick_ns).astype(np.int64)
    order = np.lexsort((channel, ticks))
    channel, ticks = channel[order], ticks[order]

    dead_ticks = int(round(detectors.dead_time_ns / detectors.tick_ns))
    keep = _apply_dead_time(channel, ticks, n_det, dead_ticks)
    stream = TimeTagStream(channel[keep].astype(np.uint8),
                           ticks[keep].astype(np.uint64),
                           n_channels=n_det, tick_fs=detectors.tick_fs)
    if not with_truth:
        return stream
    truth = TruthRecord(
        pre_deadtime=TimeTagStream(channel.astype(np.uint8),
                                   ticks.astype(np.uint64),
                                   n_channels=n_det, tick_fs=detectors.tick_fs),
        n_emitted=n_emitted,
        delivered_pairs=delivered_pairs,
        detected_pairs=detected_pairs,
        n_suppressed=int(np.sum(~keep)),
        n_kept=n_kept,
        n_dark=n_dark,
        n_outside=n_outside,
        n_transits=n_transits,
        n_blocks=1,  # one generator draws the whole run
    )
    return stream, truth


def _route_singles(matrix: TransferMatrix, inputs: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Independent single-photon propagation, renormalised per input row."""
    m = np.abs(matrix.elements) ** 2
    out = np.empty(inputs.size, dtype=np.uint8)
    for i in np.flatnonzero(np.bincount(inputs)):  # the input modes in use, in order
        sel = inputs == i
        row = m[i, :]
        if row.sum() <= 0:
            raise ConfigError(f"input mode {i} has zero transmission")
        out[sel] = np.searchsorted(np.cumsum(row / row.sum()),
                                   rng.random(np.count_nonzero(sel)))
    return out


@lru_cache(maxsize=4)
def _pair_sampler(source: SourceConfig, layout: Layout):
    """``(cdf, shape, n_modes, dt)``: the read-only normalised CDF of the joint
    detection density of ``layout``'s pairs over (mode pair, t1 cell, t2 cell),
    the shape of that grid, the number of modes and the cell width.  Cached,
    so the coherence calibration and the density run once per configuration."""
    envelope = source.envelope()
    flat = stacked_joint_density(layout.interference_matrix, layout.input_delayed,
                                 layout.input_direct, envelope, envelope, source.coherence(),
                                 t_max=envelope.duration).densities
    shape = flat.shape
    flat = flat.ravel()
    total = flat.sum()
    if total <= 0:
        raise ConfigError("joint density vanishes; cannot sample pairs")
    cdf = np.cumsum(flat)
    cdf /= total
    cdf.setflags(write=False)
    return cdf, shape, layout.interference_matrix.n_modes, envelope.dt


def _sample_pairs(sampler, rng: np.random.Generator, size: int):
    """Inverse-CDF draw of (output k, output l, t1, t2) for ``size`` pairs
    from a :func:`_pair_sampler`."""
    cdf, shape, n_modes, dt = sampler
    u = rng.random(size)
    # sorted keys search faster; each index is the same
    order = np.argsort(u)
    cell = np.empty(size, dtype=np.intp)
    cell[order] = np.searchsorted(cdf, u[order])
    pair, c1, c2 = np.unravel_index(cell, shape)
    k, l = np.triu_indices(n_modes)  # the mode_pairs order of the rows
    t1 = (c1 + rng.random(size)) * dt
    t2 = (c2 + rng.random(size)) * dt
    return k[pair], l[pair], t1, t2


def simulate_block(source: SourceConfig, layout: Layout, detectors: DetectorConfig,
                   transit_intervals: np.ndarray, rng: np.random.Generator, chunk: int):
    """The single-generator ``simulate_run`` from emission through jitter.

    Returns the surviving photons' channels and times (ns) and the counts
    of emitted photons, delivered pairs and detected pairs.  The emission
    call takes this module's ``_emit_photons``, ``chunk`` transits at a
    time; a chunk of all the transits draws what the simulator's one
    emission pass per block draws.
    """
    sampler = (_pair_sampler(source, layout)
               if layout.kind != "hbt" and layout.polarization == "parallel" else None)
    duty = source.duty_cycle_ns
    g_interval, pol, t_emit = _emit_photons(source, transit_intervals.size, transit_intervals,
                                            rng, source.envelope(), chunk)
    n_emitted = int(g_interval.size)

    # -- routing and interference ---------------------------------------
    # Photons leave in routed order: the pair photons first (pair_of holds
    # their pair ids), then every other photon.
    delivered_pairs = 0
    if layout.kind == "hbt":
        channel = rng.integers(0, 2, size=n_emitted).astype(np.uint8)
        t_ns = g_interval * duty
        t_ns += t_emit
        del g_interval, pol, t_emit
        pair_of = np.array([], dtype=np.intp)
    else:
        # the wrong path flips delay and input: a photon is delayed when its
        # parity (0 = delayed) equals its routing error
        delayed = pol == (rng.random(n_emitted) < source.routing_error_prob)
        del pol
        arrival = g_interval  # in place: a delayed photon arrives one cycle later
        arrival += delayed
        times = arrival * duty
        times += t_emit
        del g_interval, t_emit
        order = np.argsort(arrival, kind="stable")
        arrival.sort()  # the values of arrival[order], without a copy
        delayed = delayed[order]

        # a pair is a run of exactly two equal arrivals at different inputs
        starts = np.ones(n_emitted + 1, dtype=bool)
        np.not_equal(arrival[1:], arrival[:-1], out=starts[1:n_emitted])
        pair_first = np.flatnonzero(starts[:-2] & ~starts[1:-1] & starts[2:]
                                    & (delayed[:-1] != delayed[1:]))
        del starts
        delivered_pairs = int(pair_first.size)
        base = arrival[pair_first] * duty
        del arrival
        times = times[order]
        del order
        is_pair = np.zeros(n_emitted, dtype=bool)
        is_pair[pair_first] = is_pair[pair_first + 1] = True
        del pair_first
        inputs = np.full(n_emitted, layout.input_direct, dtype=np.uint8)
        inputs[delayed] = layout.input_delayed
        del delayed

        # pairs route first: indistinguishable ones by a joint draw over output
        # pair and times, the others photon by photon keeping their pair id
        matrix = layout.interference_matrix
        two = 2 * delivered_pairs
        channel = np.empty(n_emitted, dtype=np.uint8)
        if delivered_pairs and sampler is not None:
            k, l, t1, t2 = _sample_pairs(sampler, rng, delivered_pairs)
            channel[:two] = np.concatenate((k, l))
            pair_times = np.concatenate((base + t1, base + t2))
            pair_of = np.tile(np.arange(delivered_pairs), 2)
            del k, l, t1, t2
        else:
            channel[:two] = _route_singles(matrix, inputs[is_pair], rng)
            pair_times = times[is_pair]
            pair_of = np.repeat(np.arange(delivered_pairs), 2)
        single = ~is_pair
        del is_pair, base
        channel[two:] = _route_singles(matrix, inputs[single], rng)
        del inputs
        t_ns = np.concatenate((pair_times, times[single]))
        del pair_times, times, single

    # -- detection chain -------------------------------------------------
    # index arrays gather faster than a random boolean mask
    kept = np.flatnonzero(rng.random(channel.size) < source.detection_chain_prob())
    channel, t_ns = channel[kept], t_ns[kept]
    per_pair = np.bincount(pair_of[kept[kept < pair_of.size]], minlength=delivered_pairs)
    detected_pairs = int(np.sum(per_pair == 2))
    if detectors.jitter_sd_ps > 0 and t_ns.size:
        t_ns += rng.normal(0.0, detectors.jitter_sd_ps * 1e-3, t_ns.size)
    return channel, t_ns, n_emitted, delivered_pairs, detected_pairs


def dense_tables(source: SourceConfig, layout: Layout) -> _DrawTables:
    """The configuration's draw tables with ``route_cdf`` keyed by input mode,
    each built from its row of the layout's matrix."""
    matrix = layout.interference_matrix
    route_cdf = {i: _cdf(np.abs(matrix.elements[i]) ** 2,
                         f"input mode {i + 1} has zero transmission")
                 for i in (layout.input_delayed, layout.input_direct)}
    return replace(_draw_tables(source, layout), route_cdf=route_cdf)


class DrawLog:
    """A generator stand-in that forwards every call to ``rng`` and logs it
    as ``(method, arguments, keyword arguments, result)``.

    :meth:`consumption` is what the log fixes of the bit stream: ``random``
    takes one 64-bit output per double whatever the calls' sizes, so a run
    of ``random`` calls is one entry, their total count of doubles; a call
    that draws nothing takes nothing; any other call is its method and
    arguments.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng, self.calls = rng, []

    def __getattr__(self, method):
        def call(*args, **kwargs):
            result = getattr(self.rng, method)(*args, **kwargs)
            self.calls.append((method, args, kwargs, result))
            return result
        return call

    def consumption(self) -> list:
        out = []
        for method, args, kwargs, result in self.calls:
            if np.size(result) == 0:
                continue
            if method == "random":
                total = out.pop()[1] if out and out[-1][0] == "random" else 0
                out.append(("random", total + result.size))
            else:
                out.append((method, args, sorted(kwargs.items())))
        return out


def dense_sample_times(tables: _DrawTables, rng: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-CDF draw of emission times from ``tables``' :func:`_time_table`: a
    draw in a bin of [0, 1) that holds no CDF value takes its cell from the bin
    table, which is what a search of the CDF gives; only the others search it."""
    u = rng.random(size)
    b = (u * _TIME_BINS).astype(np.intp)
    cell = tables.time_bins[b]
    split = np.flatnonzero(cell != tables.time_bins[b + 1])
    cell[split] = np.searchsorted(tables.time_cdf, u[split])
    return (cell + rng.random(size)) * tables.dt


def dense_sample_pairs(tables: _DrawTables, rng: np.random.Generator, size: int):
    """Inverse-CDF draw of (output k, output l, t1, t2) for ``size`` pairs."""
    u = rng.random(size)
    # sorted keys search faster; each index is the same
    order = np.argsort(u)
    cell = np.empty(size, dtype=np.intp)
    cell[order] = np.searchsorted(tables.pair_cdf, u[order])
    pair, c1, c2 = np.unravel_index(cell, tables.pair_shape)
    t1 = (c1 + rng.random(size)) * tables.dt
    t2 = (c2 + rng.random(size)) * tables.dt
    return (*tables.pair_modes[pair].T, t1, t2)


def dense_emit_photons(source: SourceConfig, transit_intervals: np.ndarray,
                       rng: np.random.Generator, tables: _DrawTables):
    """Vectorised emission phase.

    Returns flat arrays (global attempt interval, int8 polarisation parity,
    emission time within the interval); parity 0 is the delayed
    polarisation.
    """
    block, n_att = transit_intervals.size, source.pulses_per_transit
    u = rng.random((block, n_att))
    # two_photon_prob <= emission_prob, so the sum is 0, 1 or 2
    photons = (u < source.emission_prob).view(np.int8) + (u < source.two_photon_prob)
    del u
    # a spontaneous-decay branch replaces the emission and silences the
    # rest of the transit
    dark = (photons > 0) & (rng.random((block, n_att)) < source.dark_state_prob)
    has_dark = dark.any(axis=1)
    first_dark = np.where(has_dark, dark.argmax(axis=1), n_att)
    photons *= np.arange(n_att)[None, :] < first_dark[:, None]
    phase = rng.integers(0, 2, size=block)
    slots = np.flatnonzero(photons > 0)  # numpy finds bools faster
    reps = photons.ravel()[slots]
    rows, att = np.divmod(slots, n_att)
    rows = np.repeat(rows, reps)
    att = np.repeat(att, reps)
    pols = ((att + phase[rows]) & 1).astype(np.int8)
    # a double emission flips the spin twice: the second photon carries
    # the opposite polarisation, so the routing splits the pair
    pols[np.cumsum(reps)[reps == 2] - 1] ^= 1
    return transit_intervals[rows] + att, pols, dense_sample_times(tables, rng, rows.size)


def dense_route_singles(tables: _DrawTables, inputs: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Independent single-photon propagation from each input's output CDF."""
    out = np.empty(inputs.size, dtype=np.uint8)
    for i in np.flatnonzero(np.bincount(inputs)):  # the input modes in use, in order
        sel = inputs == i
        out[sel] = np.searchsorted(tables.route_cdf[i], rng.random(np.count_nonzero(sel)))
    return out


def dense_simulate_block(source: SourceConfig, layout: Layout, detectors: DetectorConfig,
                         transit_intervals: np.ndarray, rng: np.random.Generator, tables: _DrawTables):
    """Emission, routing, pair sampling, the detection chain and jitter of one
    block's transits, drawn from ``rng`` in that order by way of ``tables``.

    Returns the surviving photons' channels and times (ns) and the block's
    counts of emitted photons, delivered pairs and detected pairs.  Each
    phase deletes the arrays the next one does not need.
    """
    duty = source.duty_cycle_ns
    g_interval, pol, t_emit = dense_emit_photons(source, transit_intervals, rng, tables)
    n_emitted = int(g_interval.size)

    # -- routing and interference ---------------------------------------
    # Photons leave in routed order: the pair photons first (pair_of holds
    # their pair ids), then every other photon.
    delivered_pairs = 0
    if layout.kind == "hbt":
        channel = rng.integers(0, 2, size=n_emitted).astype(np.uint8)
        t_ns = g_interval * duty
        t_ns += t_emit
        del g_interval, pol, t_emit
        pair_of = np.array([], dtype=np.intp)
    else:
        # the wrong path flips delay and input: a photon is delayed when its
        # parity (0 = delayed) equals its routing error
        delayed = pol == (rng.random(n_emitted) < source.routing_error_prob)
        del pol
        arrival = g_interval  # in place: a delayed photon arrives one cycle later
        arrival += delayed
        times = arrival * duty
        times += t_emit
        del g_interval, t_emit
        order = np.argsort(arrival, kind="stable")
        arrival.sort()  # the values of arrival[order], without a copy
        delayed = delayed[order]

        # a pair is a run of exactly two equal arrivals at different inputs
        starts = np.ones(n_emitted + 1, dtype=bool)
        np.not_equal(arrival[1:], arrival[:-1], out=starts[1:n_emitted])
        pair_first = np.flatnonzero(starts[:-2] & ~starts[1:-1] & starts[2:]
                                    & (delayed[:-1] != delayed[1:]))
        del starts
        delivered_pairs = int(pair_first.size)
        base = arrival[pair_first] * duty
        del arrival
        times = times[order]
        del order
        is_pair = np.zeros(n_emitted, dtype=bool)
        is_pair[pair_first] = is_pair[pair_first + 1] = True
        del pair_first
        inputs = np.full(n_emitted, layout.input_direct, dtype=np.uint8)
        inputs[delayed] = layout.input_delayed
        del delayed

        # pairs route first: indistinguishable ones by a joint draw over output
        # pair and times, the others photon by photon keeping their pair id
        two = 2 * delivered_pairs
        channel = np.empty(n_emitted, dtype=np.uint8)
        if delivered_pairs and tables.pair_cdf is not None:
            k, l, t1, t2 = dense_sample_pairs(tables, rng, delivered_pairs)
            channel[:two] = np.concatenate((k, l))
            pair_times = np.concatenate((base + t1, base + t2))
            pair_of = np.tile(np.arange(delivered_pairs), 2)
            del k, l, t1, t2
        else:
            channel[:two] = dense_route_singles(tables, inputs[is_pair], rng)
            pair_times = times[is_pair]
            pair_of = np.repeat(np.arange(delivered_pairs), 2)
        single = ~is_pair
        del is_pair, base
        channel[two:] = dense_route_singles(tables, inputs[single], rng)
        del inputs
        t_ns = np.concatenate((pair_times, times[single]))
        del pair_times, times, single

    # -- detection chain -------------------------------------------------
    # index arrays gather faster than a random boolean mask
    kept = np.flatnonzero(rng.random(channel.size) < source.detection_chain_prob())
    channel, t_ns = channel[kept], t_ns[kept]
    per_pair = np.bincount(pair_of[kept[kept < pair_of.size]], minlength=delivered_pairs)
    detected_pairs = int(np.sum(per_pair == 2))
    if detectors.jitter_sd_ps > 0 and t_ns.size:
        t_ns += rng.normal(0.0, detectors.jitter_sd_ps * 1e-3, t_ns.size)
    return channel, t_ns, n_emitted, delivered_pairs, detected_pairs
