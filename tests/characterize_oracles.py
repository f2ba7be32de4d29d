"""Reference implementations of the gauge fix, the fringe forward model, the
fringe fit, the reconstruction and the recovery-error loop.

These are the per-column ``np.linalg.lstsq`` fits, the nested ``for i /
for k`` loops and the one-trial-at-a-time repeat loop that the batched
array code in ``mmi_lab.characterize``, ``mmi_lab.matrix`` and
``mmi_lab.pipeline`` replaced, kept verbatim as oracles.  The gauge fix and
the forward model must give the same bits; the reconstruction the same
flags and elements within rounding.

``simulate_trials`` is the batched forward model as it was with its
noise-free branch, which stacked the clean arrays without drawing, kept
verbatim: the general path must give the same bits at noise 0.
"""

from __future__ import annotations

import numpy as np

from mmi_lab.characterize import (CharacterizationError, FringeDataset, ReconstructionResult,
                                  _clean_powers, _with_noise)
from mmi_lab.matrix import TransferMatrix


def oracle_gauge_fix(matrix: TransferMatrix) -> TransferMatrix:
    m = matrix.elements.copy()
    col = m[:, 0]
    in_phase = np.where(np.abs(col) > 0, np.exp(-1j * np.angle(col)), 1.0)
    m = in_phase[:, None] * m
    row = m[0, :]
    out_phase = np.where(np.abs(row) > 0, np.exp(-1j * np.angle(row)), 1.0)
    m = m * out_phase[None, :]
    # scrub numerical dust on the gauge-fixed entries
    m[0, :] = np.abs(m[0, :])
    m[:, 0] = np.abs(m[:, 0])
    return TransferMatrix(m, amplitude_tol=matrix.amplitude_tol)


def oracle_simulate_fringes(matrix: TransferMatrix, noise_sd: float = 0.0,
                            rng: np.random.Generator | None = None) -> FringeDataset:
    if not np.isfinite(noise_sd) or noise_sd < 0:
        raise ValueError(f"noise_sd must be non-negative and finite, got {noise_sd}")
    n = matrix.n_modes
    phase_grid = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    if rng is None:
        rng = np.random.default_rng()
    m = matrix.elements
    trans = np.abs(m) ** 2
    fringes = {}
    for i in range(1, n):
        probe = m[0, :][None, :] + np.exp(1j * phase_grid)[:, None] * m[i, :][None, :]
        powers = np.abs(probe) ** 2
        if noise_sd > 0:
            powers = powers * (1.0 + noise_sd * rng.standard_normal(powers.shape))
            powers = np.clip(powers, 0.0, None)
        fringes[(0, i)] = powers
    if noise_sd > 0:
        trans = np.clip(trans * (1.0 + noise_sd * rng.standard_normal(trans.shape)), 0.0, None)
    return FringeDataset(n_modes=n, phase_grid=phase_grid,
                         transmissions=trans, fringes=fringes)


def oracle_fit_fringe(phases: np.ndarray, powers: np.ndarray) -> tuple[float, float, float]:
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coef, *_ = np.linalg.lstsq(design, powers, rcond=None)
    c0, c1, c2 = coef
    theta = float(np.arctan2(-c2, c1))
    contrast = float(np.hypot(c1, c2))
    resid = powers - design @ coef
    return theta, contrast, float(np.sqrt(np.mean(resid ** 2)))


def oracle_reconstruct_matrix(data: FringeDataset) -> ReconstructionResult:
    n = data.n_modes
    for i in range(1, n):
        if (0, i) not in data.fringes:
            raise CharacterizationError(f"dataset must probe inputs (1, {i + 1}); "
                                        f"missing fringe block")
    amps = np.sqrt(data.transmissions)
    offsets = np.zeros((n, n))
    flags = np.zeros((n, n), dtype=bool)
    for i in range(1, n):
        powers = data.fringes[(0, i)]
        for k in range(n):
            theta, contrast, resid = oracle_fit_fringe(data.phase_grid, powers[:, k])
            scale = float(np.mean(powers[:, k]))
            floor = 3.0 * resid + 1e-9 * max(scale, 1e-30)
            if contrast <= floor:
                flags[i, k] = True
            else:
                offsets[i, k] = theta
    phases = np.zeros((n, n))
    for i in range(1, n):
        for k in range(1, n):
            if flags[i, k] or flags[i, 0]:
                flags[i, k] = True
            else:
                phases[i, k] = offsets[i, k] - offsets[i, 0]
    raw = amps * np.exp(1j * phases)
    # amplitudes may exceed 1 slightly under measurement noise; tolerate it
    tol = max(1e-6, float(np.abs(raw).max()) - 1.0 + 1e-6)
    rebuilt = oracle_gauge_fix(TransferMatrix(raw, amplitude_tol=tol))
    return ReconstructionResult(matrix=rebuilt, phase_indeterminate=flags)


def oracle_repeat_errors(truth: TransferMatrix, noise_sd: float, seed: int,
                         repeat: int) -> list[float]:
    """The recovery error of each seeded trial, as the repeat loop of
    ``pipeline.characterize`` computed it one trial at a time."""
    target = oracle_gauge_fix(truth).elements
    errs = []
    for trial in range(repeat):
        trial_rng = np.random.default_rng(seed + trial)
        rec = oracle_reconstruct_matrix(oracle_simulate_fringes(truth, noise_sd, rng=trial_rng))
        errs.append(float(np.abs(rec.matrix.elements - target).max()))
    return errs


def simulate_trials(matrix: TransferMatrix, noise_sd: float, rngs) -> tuple[np.ndarray, ...]:
    """:func:`simulate_fringes` once per generator in ``rngs`` (a seed, a
    Generator or None each), stacked: the phase grid, the transmissions
    (trials, n, n) and the fringe blocks (trials, n-1, n_phases, n).  Each
    trial draws from its own generator exactly what :func:`simulate_fringes`
    draws."""
    if not np.isfinite(noise_sd) or noise_sd < 0:
        raise ValueError(f"noise_sd must be non-negative and finite, got {noise_sd}")
    grid = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    powers, trans = _clean_powers(matrix.elements, grid)
    if noise_sd == 0:
        return grid, np.stack([trans] * len(rngs)), np.stack([powers] * len(rngs))
    z_powers = np.empty((len(rngs),) + powers.shape)
    z_trans = np.empty((len(rngs),) + trans.shape)
    for t, rng in enumerate(rngs):
        rng = np.random.default_rng(rng)
        rng.standard_normal(out=z_powers[t])
        rng.standard_normal(out=z_trans[t])
    return grid, _with_noise(trans, noise_sd, z_trans), _with_noise(powers, noise_sd, z_powers)
