"""Transfer-matrix characterisation from classical-light measurements.

Amplitudes come from direct transmission measurements; phases from the
offsets between interference fringes recorded at each output while the
relative phase of an equal-amplitude two-input probe is swept.  The
reconstructed matrix is gauge-fixed so that its first row and first
column are real and non-negative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .matrix import TransferMatrix, gauge_fix


class CharacterizationError(ValueError):
    """Raised for unusable fringe datasets."""


@dataclass
class FringeDataset:
    """Classical characterisation data for one interferometer.

    ``fringes[(i1, i2)]`` holds an array of shape (n_phases, n_modes): the
    output power at every mode while sweeping the relative phase of an
    equal-amplitude probe into inputs i1 and i2.  ``transmissions[i, k]``
    is the direct single-input power |M[i, k]|^2.
    """

    n_modes: int
    phase_grid: np.ndarray
    transmissions: np.ndarray
    fringes: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_modes < 2:
            raise CharacterizationError(f"n_modes must be at least 2, got {self.n_modes}")
        g = np.asarray(self.phase_grid, dtype=float)
        if g.ndim != 1 or g.size < 8:
            raise CharacterizationError("need a 1-D grid of at least 8 phase samples per fringe")
        # written so that NaN and inf fail each comparison
        if not (np.all(np.diff(g) > 0) and 0 <= g[0] and g[-1] < 2 * np.pi):
            raise CharacterizationError("phase_grid must be strictly increasing within [0, 2pi)")
        t = np.asarray(self.transmissions, dtype=float)
        if t.shape != (self.n_modes, self.n_modes) or not np.all((0 <= t) & (t < np.inf)):
            raise CharacterizationError("transmissions must be a finite non-negative n x n table")
        for pair, powers in self.fringes.items():
            p = np.asarray(powers, dtype=float)
            if p.shape != (g.size, self.n_modes):
                raise CharacterizationError(f"fringe block {pair} has shape {p.shape}")
            if not np.all((0 <= p) & (p < np.inf)):
                raise CharacterizationError(f"fringes {pair} must be finite and non-negative")
        self.phase_grid = g
        self.transmissions = t

    def to_json_dict(self) -> dict:
        return {
            "schema": "fringe-dataset/1",
            "n_modes": self.n_modes,
            "phase_grid": self.phase_grid.tolist(),
            "transmissions": self.transmissions.tolist(),
            "fringes": {f"{a + 1},{b + 1}": v.tolist() for (a, b), v in self.fringes.items()},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FringeDataset":
        try:
            fringes = {}
            for key, block in d["fringes"].items():
                a, b = (int(x) - 1 for x in key.split(","))
                fringes[(a, b)] = np.asarray(block, dtype=float)
            n_modes = int(d["n_modes"])
            phase_grid = np.asarray(d["phase_grid"], dtype=float)
            transmissions = np.asarray(d["transmissions"], dtype=float)
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise CharacterizationError(f"malformed fringe-dataset JSON: {exc}") from exc
        return cls(n_modes=n_modes, phase_grid=phase_grid,
                   transmissions=transmissions, fringes=fringes)

    def write_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def from_file(cls, path) -> "FringeDataset":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def simulate_fringes(matrix: TransferMatrix, noise_sd: float = 0.0,
                     rng: np.random.Generator | None = None) -> FringeDataset:
    """Forward model of the characterisation measurement.

    The probe drives inputs (0, i) with equal amplitudes and relative
    phase phi, on 16 even steps of [0, 2pi), so the power at output k is
    |M[0,k] + e^{i phi} M[i,k]|^2.
    ``noise_sd`` adds multiplicative Gaussian noise to every power sample.
    Every input i > 0 is probed against input 0, which is what the
    reconstruction needs.
    """
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


def _fit_fringe(phases: np.ndarray, powers: np.ndarray) -> tuple[float, float, float]:
    """Least-squares cosine fit P = c0 + B cos(phi + theta).

    Returns (theta, contrast B, residual rms).
    """
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coef, *_ = np.linalg.lstsq(design, powers, rcond=None)
    c0, c1, c2 = coef
    theta = float(np.arctan2(-c2, c1))
    contrast = float(np.hypot(c1, c2))
    resid = powers - design @ coef
    return theta, contrast, float(np.sqrt(np.mean(resid ** 2)))


@dataclass(frozen=True)
class ReconstructionResult:
    matrix: TransferMatrix
    phase_indeterminate: np.ndarray  # bool, True where fringe contrast was below noise


def reconstruct_matrix(data: FringeDataset) -> ReconstructionResult:
    """Rebuild the gauge-fixed transfer matrix from fringe data.

    Element magnitudes are sqrt(direct transmissions).  The fringe offset
    at output k for probe inputs (0, i) measures arg M[i,k] - arg M[0,k];
    referencing those offsets to output 0 cancels the per-input phase
    freedom, which is exactly the first-row/first-column-real gauge.
    Elements whose fringe contrast is indistinguishable from the noise
    floor keep phase 0 and are flagged.
    """
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
            theta, contrast, resid = _fit_fringe(data.phase_grid, powers[:, k])
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
    rebuilt = gauge_fix(TransferMatrix(raw, amplitude_tol=tol))
    return ReconstructionResult(matrix=rebuilt, phase_indeterminate=flags)
