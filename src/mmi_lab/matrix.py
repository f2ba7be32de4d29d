"""Transfer matrices of multimode interferometers.

A transfer matrix holds the complex amplitudes ``M[i, k]`` coupling input
mode ``i`` to output mode ``k``.  Measured matrices are built from
normalised transmissions and are in general not exactly unitary; the
:meth:`TransferMatrix.unitarity_deviation` diagnostic quantifies how far
a matrix is from unitarity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ._runtime import ConfigError

SCHEMA = "transfer-matrix/1"

#: name of the bundled measured 4x4 chip matrix
CHIP_4X4_V1 = "chip_4x4_v1"


class MatrixError(ConfigError):
    """Raised for malformed or unphysical transfer matrices."""


@dataclass(frozen=True)
class TransferMatrix:
    """Complex amplitude map from input modes (rows) to output modes (columns).

    Amplitudes are normalised transmissions, so every ``|M[i, k]|`` must lie
    within ``1 + amplitude_tol``.  Equal and hashable by shape and elements.
    """

    elements: np.ndarray
    amplitude_tol: float = 1e-6

    def __post_init__(self):
        m = np.asarray(self.elements, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MatrixError(f"transfer matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise MatrixError("transfer matrix needs at least 2 modes")
        if not np.all(np.isfinite(m)):
            raise MatrixError("transfer matrix contains non-finite entries")
        if np.any(np.abs(m) > 1.0 + self.amplitude_tol):
            raise MatrixError("amplitudes exceed 1 beyond tolerance; "
                              "transmissions must be normalised")
        m.setflags(write=False)
        object.__setattr__(self, "elements", m)

    def _key(self):
        return self.elements.shape, self.elements.tobytes()

    def __eq__(self, other):
        return isinstance(other, TransferMatrix) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n_modes(self) -> int:
        return self.elements.shape[0]

    def unitarity_deviation(self) -> float:
        """Largest deviation of the Gram matrix ``M M^dagger`` from identity.

        Covers both row/column norm deviations from 1 and residual
        off-diagonal overlaps; zero for an exactly unitary matrix.
        """
        m = self.elements
        gram_rows = m @ m.conj().T
        gram_cols = m.conj().T @ m
        eye = np.eye(self.n_modes)
        return float(max(np.abs(gram_rows - eye).max(), np.abs(gram_cols - eye).max()))

    # -- serialisation -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "n_modes": self.n_modes,
            "elements": [
                [{"re": float(z.real), "im": float(z.imag)} for z in row]
                for row in self.elements
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TransferMatrix":
        try:
            n = int(d["n_modes"])
            rows = d["elements"]
            m = np.array([[complex(c["re"], c["im"]) for c in row] for row in rows])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MatrixError(f"malformed transfer-matrix JSON: {exc}") from exc
        if m.shape != (n, n):
            raise MatrixError(f"elements shape {m.shape} inconsistent with n_modes={n}")
        return cls(m)

    @classmethod
    def from_file(cls, path) -> "TransferMatrix":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:  # not UTF-8 text, or not JSON
                raise MatrixError(f"malformed transfer-matrix JSON: {exc}") from exc
        return cls.from_json_dict(d)

    def write_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


def balanced_splitter() -> TransferMatrix:
    """Ideal 50:50 beam splitter, real Hadamard-like convention."""
    return TransferMatrix(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))


def random_unitary(n_modes: int, rng: np.random.Generator) -> TransferMatrix:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal((n_modes, n_modes))
    q, r = np.linalg.qr(z)
    # fix the gauge ambiguity of QR so the distribution is Haar
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return TransferMatrix(q)


def builtin_matrix(name: str) -> TransferMatrix:
    """Load a matrix bundled with the package (measured chip data)."""
    try:
        text = resources.files("mmi_lab.data").joinpath(f"{name}.json").read_text()
    except FileNotFoundError as exc:
        raise MatrixError(f"no builtin matrix named {name!r}") from exc
    return TransferMatrix.from_json_dict(json.loads(text))


def measured_chip_matrix() -> TransferMatrix:
    """The 4x4 transfer matrix measured for the interferometer chip."""
    return builtin_matrix(CHIP_4X4_V1)


def gauge_fix(matrix: TransferMatrix) -> TransferMatrix:
    """Rotate per-input and per-output phases so the first row and first
    column are real and non-negative.

    This is the conventional gauge for characterised interferometers;
    entries with zero magnitude in the first row/column leave the
    corresponding phase untouched.
    """
    return TransferMatrix(_gauge_fixed(matrix.elements), amplitude_tol=matrix.amplitude_tol)


def _gauge_fixed(m: np.ndarray) -> np.ndarray:
    """:func:`gauge_fix` of every matrix stacked along the leading axes of
    the complex array ``m`` (shape ``(..., n, n)``), as a new array."""
    col = m[..., :, :1]
    m = np.where(np.abs(col) > 0, np.exp(-1j * np.angle(col)), 1.0) * m
    row = m[..., :1, :]
    m = m * np.where(np.abs(row) > 0, np.exp(-1j * np.angle(row)), 1.0)
    # scrub numerical dust on the gauge-fixed entries
    m[..., 0, :] = np.abs(m[..., 0, :])
    m[..., :, 0] = np.abs(m[..., :, 0])
    return m
