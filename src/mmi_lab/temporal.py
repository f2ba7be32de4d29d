"""Time-resolved two-photon interference.

Narrowband photons are long enough that detector timing resolves the
interference within the photon envelope.  The joint detection-time
density at a pair of interferometer outputs combines the two possible
photon-to-detector assignments with an interference term damped by the
mutual coherence kernel kappa(tau); integrating it back over both times
recovers the static coincidence tables, while windowing in the time
difference exposes the gradual loss of indistinguishability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CoincidenceDistribution, _check_input_pair, mode_pairs, pair_index
from .matrix import TransferMatrix, balanced_splitter


@dataclass(frozen=True)
class Wavepacket:
    """Temporal amplitude envelope on a uniform grid of cell centres."""

    duration: float
    dt: float
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        norm = float(np.sum(np.abs(a) ** 2) * self.dt)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"wavepacket intensity integrates to {norm}, expected 1")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def amplitude_at(self, t: np.ndarray) -> np.ndarray:
        """Envelope amplitude at arbitrary times (zero outside the support)."""
        t = np.asarray(t, dtype=float)
        idx = np.floor(t / self.dt).astype(int)
        inside = (t >= 0) & (idx >= 0) & (idx < self.amplitudes.size)
        out = np.zeros(t.shape, dtype=complex)
        out[inside] = self.amplitudes[idx[inside]]
        return out

    def sample_times(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw detection times from the |amplitude|^2 intensity profile."""
        pdf = self.intensity() * self.dt
        cdf = np.cumsum(pdf)
        cdf /= cdf[-1]
        u = rng.random(size)
        cell = np.searchsorted(cdf, u)
        return (cell + rng.random(size)) * self.dt


def sin2_envelope(duration: float, dt: float = 1.0) -> Wavepacket:
    """Normalised sin^2-intensity envelope: amplitude sin(pi t / T) on [0, T]."""
    if not 0 < dt <= duration / 50:
        raise ValueError(f"grid step {dt} too coarse for duration {duration}; "
                         "need dt <= duration / 50")
    t = (np.arange(int(round(duration / dt))) + 0.5) * dt
    amp = np.sin(np.pi * t / duration).astype(complex)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * dt)
    return Wavepacket(duration=duration, dt=dt, amplitudes=amp)


@dataclass(frozen=True)
class CoherenceModel:
    """Mutual coherence kernel of a photon pair.

    ``gaussian_jitter`` models a Gaussian-distributed relative frequency
    offset between the interfering photons with standard deviation
    ``jitter_sd`` (rad/ns), giving kappa(tau) = exp(-sd^2 tau^2 / 2).
    ``perfect`` is the sd = 0 limit; ``incoherent`` is the fully
    distinguishable reference with kappa identically zero.
    """

    kind: str = "perfect"
    jitter_sd: float = 0.0

    def __post_init__(self):
        if self.kind not in ("perfect", "gaussian_jitter", "incoherent"):
            raise ValueError(f"unknown coherence kind {self.kind!r}")
        if self.jitter_sd < 0:
            raise ValueError("jitter_sd must be non-negative")

    @classmethod
    def perfect(cls) -> "CoherenceModel":
        return cls("perfect", 0.0)

    @classmethod
    def gaussian(cls, jitter_sd: float) -> "CoherenceModel":
        return cls("gaussian_jitter", jitter_sd)

    @classmethod
    def incoherent(cls) -> "CoherenceModel":
        return cls("incoherent", 0.0)

    def kappa(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if self.kind == "incoherent":
            return np.zeros_like(tau)
        if self.kind == "perfect" or self.jitter_sd == 0.0:
            return np.ones_like(tau)
        return np.exp(-0.5 * (self.jitter_sd * tau) ** 2)


@dataclass(frozen=True)
class JointDensity:
    """Joint first/second detection-time densities per output pair.

    ``densities`` is one float64 array of shape (n_pairs, nt, nt) whose rows
    follow :func:`mode_pairs` order, so outputs k <= l sit in row
    ``pair_index(k, l, n_modes)``; within a row, axis 0 is the detection
    time at output k and axis 1 at output l.  Units 1/ns^2.
    """

    n_modes: int
    t: np.ndarray
    dt: float
    densities: np.ndarray

    def integrate(self) -> CoincidenceDistribution:
        """Integrate each pair density over both times (raw table)."""
        return CoincidenceDistribution(self.n_modes, self.densities.sum(axis=(1, 2)) * self.dt ** 2)

    def dtau_marginal(self, pair: tuple[int, int] | None = None):
        """Marginal density over the detection time difference t2 - t1.

        Sums the named pair (or all pairs) along anti-diagonals; returns
        (dtau grid, density per ns).
        """
        nt = self.t.size
        mat = (self.densities.sum(axis=0) if pair is None
               else self.densities[pair_index(min(pair), max(pair), self.n_modes)])
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
    pairs = mode_pairs(matrix.n_modes)
    # pair by pair: broadcasting over all pairs multiplies the complex temporaries
    densities = np.empty((len(pairs), t.size, t.size))
    for n, (k, l) in enumerate(pairs):
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
        np.clip(p, 0.0, None, out=densities[n])
    return JointDensity(n_modes=matrix.n_modes, t=t, dt=dt, densities=densities)


@dataclass(frozen=True)
class HomProfile:
    """Two-photon interference of a pair on a balanced splitter.

    Cross-detector coincidence density versus detection time difference,
    for the given coherence (parallel) and for the fully distinguishable
    reference (orthogonal); the integrated visibility is the fractional
    suppression of the parallel cross-coincidence rate.
    """

    dtau: np.ndarray
    parallel: np.ndarray
    orthogonal: np.ndarray
    visibility_integrated: float

    def windowed_visibility(self, half_window: float) -> float:
        mask = np.abs(self.dtau) <= half_window
        ref = self.orthogonal[mask].sum()
        if ref <= 0:
            raise ValueError("orthogonal reference vanishes inside the window")
        return float(1.0 - self.parallel[mask].sum() / ref)


def hom_profile(env_1: Wavepacket, env_2: Wavepacket,
                coherence: CoherenceModel,
                delay_offset: float = 0.0) -> HomProfile:
    """Balanced-splitter cross-coincidence profile and visibility."""
    bs = balanced_splitter()
    par = joint_density(bs, 0, 1, env_1, env_2, coherence, delay_offset)
    orth = joint_density(bs, 0, 1, env_1, env_2, CoherenceModel.incoherent(), delay_offset)
    dtau, p_par = par.dtau_marginal((0, 1))
    _, p_orth = orth.dtau_marginal((0, 1))
    total_orth = p_orth.sum()
    if total_orth <= 0:
        raise ValueError("no cross coincidences in the distinguishable reference")
    vis = float(1.0 - p_par.sum() / total_orth)
    return HomProfile(dtau=dtau, parallel=p_par, orthogonal=p_orth,
                      visibility_integrated=vis)


def integrated_visibility(envelope: Wavepacket, coherence: CoherenceModel) -> float:
    """Visibility of identical-envelope pairs, via the intensity
    autocorrelation (same discrete sum as the full 2-D integral)."""
    intensity = envelope.intensity() * envelope.dt
    auto = np.correlate(intensity, intensity, mode="full")
    tau = np.arange(-(intensity.size - 1), intensity.size) * envelope.dt
    return float(np.sum(auto * coherence.kappa(tau)) / np.sum(auto))


def calibrate_gaussian_jitter(envelope: Wavepacket,
                              target_visibility: float = 0.708) -> CoherenceModel:
    """Find the jitter level that reproduces a target integrated visibility.

    Bisects ``jitter_sd`` in [1e-6, 500 / duration] to adjacent floats.  The
    integrated visibility decreases monotonically in ``jitter_sd``, since
    kappa does at every tau; a target outside the bracket raises ValueError."""
    if not 0 < target_visibility < 1:
        raise ValueError("target visibility must be in (0, 1)")

    def gap(sd):
        return integrated_visibility(envelope, CoherenceModel.gaussian(sd)) - target_visibility

    lo, hi = 1e-6, 500.0 / envelope.duration
    if gap(lo) < 0 or gap(hi) > 0:
        raise ValueError(f"target visibility {target_visibility} not reached in [{lo}, {hi}]")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
    return CoherenceModel.gaussian(mid)
