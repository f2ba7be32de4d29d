"""Transfer-matrix characterisation from classical-light measurements.

Amplitudes come from direct transmission measurements; phases from the
offsets between interference fringes recorded at each output while the
relative phase of an equal-amplitude two-input probe is swept.  The
reconstructed matrix is gauge-fixed so that its first row and first
column are real and non-negative.

Trials are batched: :func:`simulate_trials` stacks the noisy datasets of
many seeded trials and :func:`reconstruct_trials` fits every fringe of
every trial in one array pass, with one least-squares design per phase
grid.  A trial's result does not depend on the batch it is in, and
:func:`reconstruct_matrix` is the batch of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._runtime import ConfigError, DataError
from .matrix import TransferMatrix, _gauge_fixed

MAX_NOISE_SD = 1.0  #: largest relative power noise; far past it the fringe fit overflows
MAX_POWER = 1e150  #: largest power a dataset may hold, so a fit residual's square is finite


class CharacterizationError(DataError):
    """Raised for unusable fringe datasets."""


@dataclass
class FringeDataset:
    """Classical characterisation data for one interferometer.

    ``fringes[(i1, i2)]`` holds an array of shape (n_phases, n_modes): the
    output power at every mode while sweeping the relative phase of an
    equal-amplitude probe into inputs i1 and i2.  ``transmissions[i, k]``
    is the direct single-input power |M[i, k]|^2.  No power exceeds :data:`MAX_POWER`.
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
        if t.shape != (self.n_modes, self.n_modes) or not np.all((0 <= t) & (t <= MAX_POWER)):
            raise CharacterizationError(f"transmissions must be n x n and in [0, {MAX_POWER:g}]")
        for pair, powers in self.fringes.items():
            p = np.asarray(powers, dtype=float)
            if p.shape != (g.size, self.n_modes):
                raise CharacterizationError(f"fringe block {pair} has shape {p.shape}")
            if not np.all((0 <= p) & (p <= MAX_POWER)):
                raise CharacterizationError(f"fringes {pair} must be powers in [0, {MAX_POWER:g}]")
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
            try:
                d = json.load(fh)
            except ValueError as exc:  # not UTF-8 text, or not JSON
                raise CharacterizationError(f"malformed fringe-dataset JSON: {exc}") from exc
        return cls.from_json_dict(d)


def _clean_powers(m: np.ndarray, phase_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free fringe blocks, shape (n-1, n_phases, n), with block i-1
    for probe inputs (0, i), and direct transmissions, shape (n, n)."""
    probe = m[0] + np.exp(1j * phase_grid)[:, None] * m[1:, None, :]
    return np.abs(probe) ** 2, np.abs(m) ** 2


def _with_noise(powers: np.ndarray, noise_sd: float, normal: np.ndarray) -> np.ndarray:
    return np.clip(powers * (1.0 + noise_sd * normal), 0.0, None)


def simulate_fringes(matrix: TransferMatrix, noise_sd: float = 0.0,
                     rng: np.random.Generator | None = None) -> FringeDataset:
    """Forward model of the characterisation measurement.

    The probe drives inputs (0, i) with equal amplitudes and relative
    phase phi, on 16 even steps of [0, 2pi), so the power at output k is
    |M[0,k] + e^{i phi} M[i,k]|^2.
    ``noise_sd``, at most :data:`MAX_NOISE_SD`, adds multiplicative Gaussian
    noise to every power sample, drawn (at noise 0 too) for the fringe
    blocks in input order, then for the transmissions.  Every input i > 0
    is probed against input 0, which is what the reconstruction needs.
    """
    grid, trans, blocks = simulate_trials(matrix, noise_sd, [rng])
    return FringeDataset(n_modes=matrix.n_modes, phase_grid=grid, transmissions=trans[0],
                         fringes={(0, i): b for i, b in enumerate(blocks[0], start=1)})


def simulate_trials(matrix: TransferMatrix, noise_sd: float, rngs) -> tuple[np.ndarray, ...]:
    """:func:`simulate_fringes` once per generator in ``rngs`` (a seed, a
    Generator or None each), stacked: the phase grid, the transmissions
    (trials, n, n) and the fringe blocks (trials, n-1, n_phases, n).  Each
    trial draws from its own generator exactly what :func:`simulate_fringes`
    draws."""
    if not 0 <= noise_sd <= MAX_NOISE_SD:  # NaN fails too; draws nothing
        raise ConfigError(f"noise_sd must be finite and in [0, {MAX_NOISE_SD}], got {noise_sd}")
    grid = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    powers, trans = _clean_powers(matrix.elements, grid)
    z_powers = np.empty((len(rngs),) + powers.shape)
    z_trans = np.empty((len(rngs),) + trans.shape)
    for t, rng in enumerate(rngs):
        rng = np.random.default_rng(rng)
        rng.standard_normal(out=z_powers[t])
        rng.standard_normal(out=z_trans[t])
    return grid, _with_noise(trans, noise_sd, z_trans), _with_noise(powers, noise_sd, z_powers)


def _fit_fringe(phases: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, ...]:
    """Least-squares cosine fit P = c0 + B cos(phi + theta) of every column
    of ``powers``: axis 0 runs over ``phases``, any trailing axes over the
    columns.  The design matrix is built once and its pseudo-inverse
    applied to all columns.

    Returns (theta, contrast B, residual rms), each of the columns' shape.
    """
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    # phases last and contiguous: every column's sums are then numpy's
    # pairwise sum of one row, whatever the batch around it
    p = np.ascontiguousarray(np.moveaxis(np.asarray(powers, dtype=float), 0, -1))
    c0, c1, c2 = ((p * w).sum(axis=-1) for w in np.linalg.pinv(design))
    resid = p - (c0[..., None] + c1[..., None] * design[:, 1] + c2[..., None] * design[:, 2])
    return np.arctan2(-c2, c1), np.hypot(c1, c2), np.sqrt(np.mean(resid ** 2, axis=-1))


@dataclass(frozen=True)
class ReconstructionResult:
    matrix: TransferMatrix
    phase_indeterminate: np.ndarray  # bool, True where fringe contrast was below noise


def reconstruct_matrix(data: FringeDataset) -> ReconstructionResult:
    """Rebuild the gauge-fixed transfer matrix from fringe data: the batch
    of one trial of :func:`reconstruct_trials`."""
    n = data.n_modes
    for i in range(1, n):
        if (0, i) not in data.fringes:
            raise CharacterizationError(f"dataset must probe inputs (1, {i + 1}); "
                                        f"missing fringe block")
    blocks = np.stack([data.fringes[(0, i)] for i in range(1, n)])
    elements, flags = reconstruct_trials(data.phase_grid, data.transmissions[None], blocks[None])
    # amplitudes may exceed 1 slightly under measurement noise; tolerate it
    tol = max(1e-6, float(np.abs(elements[0]).max()) - 1.0 + 1e-6)
    return ReconstructionResult(matrix=TransferMatrix(elements[0], amplitude_tol=tol),
                                phase_indeterminate=flags[0])


def reconstruct_trials(phase_grid: np.ndarray, transmissions: np.ndarray,
                       fringes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild a batch of gauge-fixed transfer matrices in one array pass.

    ``transmissions`` has shape (trials, n, n) and ``fringes`` (trials,
    n-1, n_phases, n), block i-1 for probe inputs (0, i).  Element
    magnitudes are sqrt(direct transmissions).  The fringe offset at
    output k for probe inputs (0, i) measures arg M[i,k] - arg M[0,k];
    referencing those offsets to output 0 cancels the per-input phase
    freedom, which is exactly the first-row/first-column-real gauge.
    Elements whose fringe contrast is indistinguishable from the noise
    floor keep phase 0 and are flagged, and so is every element of a row
    whose output-0 fringe is flagged.  Returns the complex elements and
    the flags, both (trials, n, n); a trial's result does not depend on
    the other trials in the batch.
    """
    theta, contrast, resid = _fit_fringe(phase_grid, np.moveaxis(fringes, -2, 0))
    scale = np.mean(fringes, axis=-2)
    weak = contrast <= 3.0 * resid + 1e-9 * np.maximum(scale, 1e-30)
    flags = np.zeros(transmissions.shape, dtype=bool)
    flags[:, 1:] = weak
    flags[:, 1:, 1:] |= weak[:, :, :1]
    phases = np.zeros(transmissions.shape)
    phases[:, 1:, 1:] = np.where(flags[:, 1:, 1:], 0.0, theta[:, :, 1:] - theta[:, :, :1])
    return _gauge_fixed(np.sqrt(transmissions) * np.exp(1j * phases)), flags
