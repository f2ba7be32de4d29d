"""Reference implementations of the simulator's pair sampling and routing.

``JointDensity`` with its dict of per-pair arrays, the dict-building
``joint_density``, ``_PairSampler`` (which concatenates that dict again on
every run), ``_emit_photons`` and ``simulate_run`` with its three routing
branches are kept verbatim as oracles for ``mmi_lab.temporal`` and
``mmi_lab.instrument``: the same seed must give bit-identical streams and
truth records, and the stacked density array the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mmi_lab.core import CoincidenceDistribution, _check_input_pair, mode_pairs
from mmi_lab.instrument import (_TRANSIT_CHUNK, ConfigError, DetectorConfig, Layout,
                                SourceConfig, TruthRecord, _apply_dead_time,
                                _route_singles)
from mmi_lab.matrix import TransferMatrix
from mmi_lab.tagstream import TimeTagStream
from mmi_lab.temporal import CoherenceModel, Wavepacket


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
    zi = env_i.amplitude_at(t)
    zj = env_j.amplitude_at(t - delay_offset)
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


def _emit_photons(source: SourceConfig, n_transits: int, transit_intervals,
                  rng: np.random.Generator, envelope: Wavepacket):
    """Vectorised emission phase.

    Returns flat arrays (global attempt interval, polarisation parity,
    emission time within the interval); parity 0 is the delayed
    polarisation.
    """
    n_att = source.pulses_per_transit
    out_interval, out_pol, out_t = [], [], []
    for a in range(0, n_transits, _TRANSIT_CHUNK):
        b = min(a + _TRANSIT_CHUNK, n_transits)
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
        out_t.append(envelope.sample_times(rng, rows.size))
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
    )
    return stream, truth
