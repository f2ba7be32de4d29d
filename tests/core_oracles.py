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
"""

from __future__ import annotations

import numpy as np

from mmi_lab.core import (CoincidenceDistribution, _as_distribution, _check_input_pair,
                          mode_pairs)
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
