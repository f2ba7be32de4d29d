"""Two-photon coincidence tables for a multimode interferometer.

For two photons entering distinct input modes, computes the coincidence
distributions over unordered output pairs for indistinguishable (``Q``)
and fully distinguishable (``C``) photons, their visibility-weighted
mixture, and the visibility that best fits measured counts.  A
brute-force two-photon Fock-space oracle cross-checks the closed forms.

Mode indices are 0-based throughout the library; the command line uses
1-based labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._runtime import ConfigError, DataError
from .matrix import TransferMatrix


class ModeIndexError(ConfigError, IndexError):
    """Mode index out of range or otherwise unusable."""


class DegenerateDistributionError(DataError):
    """Coincidence distribution is identically zero and cannot be normalised."""


def mode_pairs(n_modes: int) -> list[tuple[int, int]]:
    """Canonical ordering of unordered output pairs {k, l}, k <= l."""
    return [(k, l) for k in range(n_modes) for l in range(k, n_modes)]


def pair_index(k, l, n_modes: int):
    """Position of the pair {k, l}, k <= l, in :func:`mode_pairs` order;
    elementwise on integer arrays."""
    return k * n_modes - k * (k - 1) // 2 + (l - k)


def cross_pair_index(k, l, n_modes: int):
    """:func:`pair_index` in a cross-detector-only table (no k == l entries)."""
    return pair_index(k, l, n_modes) - (k + 1)


@lru_cache(maxsize=None)
def _table_pairs(n_modes: int, cross_only: bool) -> tuple[tuple[int, int], ...]:
    return tuple(p for p in mode_pairs(n_modes) if not cross_only or p[0] != p[1])


def _check_input_pair(n_modes: int, i: int, j: int) -> None:
    for idx in (i, j):
        if not 0 <= idx < n_modes:
            raise ModeIndexError(f"mode index {idx} out of range for "
                                 f"{n_modes}-mode interferometer")
    if i == j:
        raise ModeIndexError("both photons in one input mode is not supported")


@dataclass(frozen=True)
class CoincidenceDistribution:
    """Probabilities or counts over unordered output pairs {k, l}.

    ``values`` follows the ordering of :func:`mode_pairs`.  When
    ``cross_detector_only`` is set only pairs with k < l are present.
    """

    n_modes: int
    values: np.ndarray
    cross_detector_only: bool = False
    renormalized: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("coincidence entries must be finite and non-negative")
        expected = len(self.pairs)
        if v.shape != (expected,):
            raise ValueError(f"expected {expected} entries, got {v.shape}")
        if self.renormalized and not self.cross_detector_only:
            if abs(v.sum() - 1.0) > 1e-9:
                raise ValueError("renormalized distribution must sum to 1")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return _table_pairs(self.n_modes, self.cross_detector_only)

    def __getitem__(self, pair: tuple[int, int]) -> float:
        k, l = min(pair), max(pair)
        if not 0 <= k <= l < self.n_modes or (self.cross_detector_only and k == l):
            raise ValueError(f"{(k, l)} is not a pair of this distribution")
        index = cross_pair_index if self.cross_detector_only else pair_index
        return float(self.values[index(k, l, self.n_modes)])

    def cross_only(self) -> "CoincidenceDistribution":
        if self.cross_detector_only:
            return self
        k, l = np.triu_indices(self.n_modes)
        return CoincidenceDistribution(self.n_modes, self.values[k != l],
                                       cross_detector_only=True,
                                       renormalized=False)

    def same_detector_values(self) -> np.ndarray:
        if self.cross_detector_only:
            raise ValueError("cross-detector-only distribution has no same-detector entries")
        k, l = np.triu_indices(self.n_modes)
        return self.values[k == l]

    def as_dict(self) -> dict[str, float]:
        """``"k,l" -> value`` with 1-based detector labels."""
        return {f"{k + 1},{l + 1}": float(v)
                for (k, l), v in zip(self.pairs, self.values)}


# -- coincidence distributions ------------------------------------------


def _pair_amplitudes(matrix: TransferMatrix, i: int, j: int) -> list[tuple]:
    """``(a = M_ik M_jl, b = M_il M_jk, dup = 1 + delta_kl)`` for every
    output pair {k, l}, in :func:`mode_pairs` order."""
    m = matrix.elements
    return [(m[i, k] * m[j, l], m[i, l] * m[j, k], 2.0 if k == l else 1.0)
            for k, l in mode_pairs(matrix.n_modes)]


def _pair_table(matrix: TransferMatrix, i: int, j: int, quantum: bool) -> np.ndarray:
    amps = _pair_amplitudes(matrix, i, j)
    if quantum:
        return np.array([abs(a + b) ** 2 / dup for a, b, dup in amps])
    return np.array([(abs(a) ** 2 + abs(b) ** 2) / dup for a, b, dup in amps])


def _as_distribution(n_modes: int, values: np.ndarray,
                     renormalized: bool) -> CoincidenceDistribution:
    if renormalized:
        s = values.sum()
        if s <= 0:
            raise DegenerateDistributionError("all coincidence probabilities vanish")
        return CoincidenceDistribution(n_modes, values / s, renormalized=True)
    return CoincidenceDistribution(n_modes, values)


def coincidence_quantum(matrix: TransferMatrix, i: int, j: int,
                        renormalized: bool = True) -> CoincidenceDistribution:
    """Coincidence probabilities for an indistinguishable photon pair.

    ``Q_ij^{kl} = |M_ik M_jl + M_il M_jk|^2 / (1 + delta_kl)``.  For a
    unitary matrix the table sums to 1; measured matrices need the
    renormalisation (on by default, matching how predictions are compared
    to data; switch off for identity checks against the Fock oracle).
    """
    _check_input_pair(matrix.n_modes, i, j)
    return _as_distribution(matrix.n_modes, _pair_table(matrix, i, j, True), renormalized)


def coincidence_classical(matrix: TransferMatrix, i: int, j: int,
                          renormalized: bool = True) -> CoincidenceDistribution:
    """Coincidence probabilities for fully distinguishable photons:
    ``C_ij^{kl} = (|M_ik M_jl|^2 + |M_il M_jk|^2) / (1 + delta_kl)``."""
    _check_input_pair(matrix.n_modes, i, j)
    return _as_distribution(matrix.n_modes, _pair_table(matrix, i, j, False), renormalized)


def _mixture(matrix: TransferMatrix, i: int, j: int, visibility, renormalized: bool,
             cross_only: bool = False) -> np.ndarray:
    """``visibility * Q + (1 - visibility) * C`` for one visibility or a
    column of them, each table renormalised first when ``renormalized`` is
    set, over the cross-detector pairs only when ``cross_only`` is."""
    q, c = (f(matrix, i, j, renormalized) for f in (coincidence_quantum, coincidence_classical))
    if cross_only:
        q, c = q.cross_only(), c.cross_only()
    return visibility * q.values + (1.0 - visibility) * c.values


def coincidence_mixture(matrix: TransferMatrix, i: int, j: int, visibility: float,
                        renormalized: bool = True) -> CoincidenceDistribution:
    """Two-photon-visibility-weighted mixture
    ``R(V) = V * Q + (1 - V) * C`` (elementwise, each term renormalised
    first when ``renormalized`` is set)."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    vals = _mixture(matrix, i, j, visibility, renormalized)
    return CoincidenceDistribution(matrix.n_modes, vals, renormalized=renormalized)


def fock_oracle(matrix: TransferMatrix, i: int, j: int,
                distinguishable: bool = False) -> CoincidenceDistribution:
    """Brute-force coincidence table from explicit Fock-space evolution.

    Indistinguishable photons are routed photon by photon over every ordered
    output pair, ``d[k1, k2] = M[i, k1] M[j, k2]``, and projected onto the
    two-photon Fock basis: ``d[k, l] + d[l, k]`` on |1_k 1_l> and
    ``sqrt(2) d[k, k]`` on |2_k>, with no closed-form pair formula.
    Distinguishable photons are routed independently and the order-resolved
    products summed.  Always returns the raw (unrenormalised) table, which
    must equal the closed forms.
    """
    _check_input_pair(matrix.n_modes, i, j)
    n = matrix.n_modes
    m = matrix.elements
    if distinguishable:
        pi = np.abs(m[i, :]) ** 2
        pj = np.abs(m[j, :]) ** 2
        vals = []
        for k, l in mode_pairs(n):
            if k == l:
                vals.append(pi[k] * pj[k])
            else:
                vals.append(pi[k] * pj[l] + pi[l] * pj[k])
        return CoincidenceDistribution(n, np.array(vals))
    d = [[m[i, k1] * m[j, k2] for k2 in range(n)] for k1 in range(n)]
    amplitudes = [np.sqrt(2.0) * d[k][k] if k == l else d[k][l] + d[l][k]
                  for k, l in mode_pairs(n)]
    return CoincidenceDistribution(n, np.abs(np.array(amplitudes)) ** 2)


def renormalization_magnitude(matrix: TransferMatrix) -> float:
    """Average coincidence-normalisation correction |1 - sum| over all
    input pairs, for both the interfering and non-interfering predictions.

    Zero for a unitary matrix; about 1.9% for the measured chip.
    """
    n = matrix.n_modes
    return float(np.mean([abs(1.0 - _pair_table(matrix, i, j, quantum).sum())
                          for i in range(n) for j in range(i + 1, n)
                          for quantum in (True, False)]))


def fit_visibility(measured: CoincidenceDistribution, matrix: TransferMatrix,
                   i: int, j: int) -> tuple[float, float]:
    """Find the two-photon visibility whose mixture best matches measured
    counts, maximising the similarity S over V on a 0.001 grid in [0, 1].

    Returns ``(V*, S at V*)``.  The measured distribution may be
    cross-detector-only; the prediction is restricted to the same channels.
    """
    from .stats import similarity

    counts = np.asarray(measured.values, dtype=float)
    if counts.sum() <= 0:
        raise DataError("measured counts are empty")
    grid = np.arange(0.0, 1.0005, 0.001)[:, None]
    s = similarity(counts, _mixture(matrix, i, j, grid, True, measured.cross_detector_only))
    best = int(np.argmax(s))  # the first of tied maxima, as a strict > scan keeps
    return float(grid[best, 0]), float(s[best])
