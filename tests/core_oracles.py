"""Reference implementations of the two-photon coincidence tables.

``_pair_table`` (the per-pair loop that wrote out ``a = M_ik M_jl`` and
``b = M_il M_jk`` inline), ``renormalization_magnitude`` (its loop of
appends), ``coincidence_mixture`` and ``fit_visibility`` (each with the
mixture written out) are kept verbatim from ``mmi_lab.core`` as it was
before ``_pair_amplitudes`` and ``_mixture`` replaced them.
``coincidence_quantum`` and ``coincidence_classical`` are copied too, so
that the mixture oracles read this module's ``_pair_table``.  The single
implementations do the same scalar arithmetic in the same order, so they
must give bit-identical output.

``TwoPhotonState`` (a general two-photon Fock state, with superpositions and
doubly occupied inputs) and the ``fock_oracle`` that evolved one input pair
through it are kept verbatim from ``mmi_lab.core`` as it was before
``fock_oracle`` routed the pair itself.  For a single input pair both route
the photons over every ordered output assignment and project the same
coefficients onto the Fock basis, so their tables must be bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mmi_lab.core import (CoincidenceDistribution, ModeIndexError, _as_distribution,
                          _check_input_pair, mode_pairs, pair_index)
from mmi_lab.matrix import TransferMatrix
from mmi_lab.stats import similarity


def _pair_table(matrix: TransferMatrix, i: int, j: int, quantum: bool) -> np.ndarray:
    m = matrix.elements
    vals = []
    for k, l in mode_pairs(matrix.n_modes):
        dup = 2.0 if k == l else 1.0
        if quantum:
            vals.append(abs(m[i, k] * m[j, l] + m[i, l] * m[j, k]) ** 2 / dup)
        else:
            vals.append((abs(m[i, k] * m[j, l]) ** 2 + abs(m[i, l] * m[j, k]) ** 2) / dup)
    return np.array(vals)


def coincidence_quantum(matrix: TransferMatrix, i: int, j: int,
                        renormalized: bool = True) -> CoincidenceDistribution:
    _check_input_pair(matrix.n_modes, i, j)
    return _as_distribution(matrix.n_modes, _pair_table(matrix, i, j, True), renormalized)


def coincidence_classical(matrix: TransferMatrix, i: int, j: int,
                          renormalized: bool = True) -> CoincidenceDistribution:
    _check_input_pair(matrix.n_modes, i, j)
    return _as_distribution(matrix.n_modes, _pair_table(matrix, i, j, False), renormalized)


def coincidence_mixture(matrix: TransferMatrix, i: int, j: int, visibility: float,
                        renormalized: bool = True) -> CoincidenceDistribution:
    """Two-photon-visibility-weighted mixture
    ``R(V) = V * Q + (1 - V) * C`` (elementwise, each term renormalised
    first when ``renormalized`` is set)."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    q = coincidence_quantum(matrix, i, j, renormalized)
    c = coincidence_classical(matrix, i, j, renormalized)
    vals = visibility * q.values + (1.0 - visibility) * c.values
    return CoincidenceDistribution(matrix.n_modes, vals, renormalized=renormalized)


def renormalization_magnitude(matrix: TransferMatrix) -> float:
    """Average coincidence-normalisation correction |1 - sum| over all
    input pairs, for both the interfering and non-interfering predictions.

    Zero for a unitary matrix; about 1.9% for the measured chip.
    """
    devs = []
    n = matrix.n_modes
    for i in range(n):
        for j in range(i + 1, n):
            devs.append(abs(1.0 - _pair_table(matrix, i, j, True).sum()))
            devs.append(abs(1.0 - _pair_table(matrix, i, j, False).sum()))
    return float(np.mean(devs))


def fit_visibility(measured: CoincidenceDistribution, matrix: TransferMatrix,
                   i: int, j: int) -> tuple[float, float]:
    """Find the two-photon visibility whose mixture best matches measured
    counts, maximising the similarity S over V on a 0.001 grid in [0, 1].

    Returns ``(V*, S at V*)``.  The measured distribution may be
    cross-detector-only; the prediction is restricted to the same channels.
    """
    counts = np.asarray(measured.values, dtype=float)
    if counts.sum() <= 0:
        raise ValueError("measured counts are empty")
    q = coincidence_quantum(matrix, i, j, renormalized=True)
    c = coincidence_classical(matrix, i, j, renormalized=True)
    if measured.cross_detector_only:
        q, c = q.cross_only(), c.cross_only()
    grid = np.arange(0.0, 1.0005, 0.001)[:, None]
    s = similarity(counts, grid * q.values + (1.0 - grid) * c.values)
    best = int(np.argmax(s))  # the first of tied maxima, as a strict > scan keeps
    return float(grid[best, 0]), float(s[best])


@dataclass
class TwoPhotonState:
    """Two-photon Fock state over ``n_modes`` modes.

    Amplitudes are stored on the unordered pair basis of
    :func:`mode_pairs` (dimension n(n+1)/2) with the usual bosonic
    normalisation, i.e. basis states |1_k 1_l> for k < l and |2_k>.
    """

    n_modes: int
    amplitudes: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.amplitudes is None:
            self.amplitudes = np.zeros(len(mode_pairs(self.n_modes)), dtype=complex)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)

    @classmethod
    def from_input_pair(cls, n_modes: int, i: int, j: int) -> "TwoPhotonState":
        _check_input_pair(n_modes, i, j)
        state = cls(n_modes)
        state.amplitudes[pair_index(min(i, j), max(i, j), n_modes)] = 1.0
        return state

    def evolve(self, matrix: TransferMatrix) -> "TwoPhotonState":
        """Propagate both photons through the interferometer.

        Expands every occupied input pair photon-by-photon over all output
        mode assignments; no closed-form pair formula is used, so this
        doubles as a brute-force oracle for the coincidence expressions.
        For a non-unitary (measured) matrix the result is the post-selected,
        unnormalised two-photon component.
        """
        n = self.n_modes
        if matrix.n_modes != n:
            raise ModeIndexError("matrix size does not match state")
        t = matrix.elements
        pairs = mode_pairs(n)
        # operator coefficients d[k1, k2] on ordered products b+_{k1} b+_{k2}
        d = np.zeros((n, n), dtype=complex)
        for (p, q), amp in zip(pairs, self.amplitudes):
            if amp == 0:
                continue
            weight = amp / np.sqrt(2.0) if p == q else amp
            for k1 in range(n):
                tp = t[p, k1]
                if tp == 0:
                    continue
                for k2 in range(n):
                    d[k1, k2] += weight * tp * t[q, k2]
        out = TwoPhotonState(n)
        for idx, (k, l) in enumerate(pairs):
            if k == l:
                out.amplitudes[idx] = np.sqrt(2.0) * d[k, k]
            else:
                out.amplitudes[idx] = d[k, l] + d[l, k]
        return out

    def pair_probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def fock_oracle(matrix: TransferMatrix, i: int, j: int,
                distinguishable: bool = False) -> CoincidenceDistribution:
    """Brute-force coincidence table from explicit Fock-space evolution.

    Indistinguishable photons are propagated as a two-photon state through
    :meth:`TwoPhotonState.evolve`; distinguishable photons are routed
    independently and the order-resolved products summed.  Always returns
    the raw (unrenormalised) table, which must equal the closed forms.
    """
    _check_input_pair(matrix.n_modes, i, j)
    n = matrix.n_modes
    if distinguishable:
        m = matrix.elements
        pi = np.abs(m[i, :]) ** 2
        pj = np.abs(m[j, :]) ** 2
        vals = []
        for k, l in mode_pairs(n):
            if k == l:
                vals.append(pi[k] * pj[k])
            else:
                vals.append(pi[k] * pj[l] + pi[l] * pj[k])
        return CoincidenceDistribution(n, np.array(vals))
    state = TwoPhotonState.from_input_pair(n, i, j).evolve(matrix)
    return CoincidenceDistribution(n, state.pair_probabilities())
