import json

import numpy as np
import pytest

from mmi_lab import TransferMatrix, gauge_fix, random_unitary
from mmi_lab.matrix import MatrixError, builtin_matrix


def test_chip_matrix_values(chip):
    m = chip.elements
    assert m.shape == (4, 4)
    assert abs(m[0, 0] - 0.28) < 1e-12
    assert abs(abs(m[1, 1]) - 0.60) < 1e-12
    assert abs(np.angle(m[1, 1]) - (3.67 - 2 * np.pi)) < 1e-12
    assert abs(abs(m[3, 2]) - 0.59) < 1e-12
    # printed in the first-row/first-column-real gauge
    assert np.allclose(m[0, :].imag, 0.0)
    assert np.allclose(m[:, 0].imag, 0.0)


def test_chip_matrix_is_not_unitary_but_close(chip):
    dev = chip.unitarity_deviation()
    assert 1e-9 < dev < 0.5


def test_identity_is_unitary(identity4):
    assert identity4.unitarity_deviation() == pytest.approx(0.0, abs=1e-15)
    assert identity4.unitarity_deviation() <= 1e-9


def test_random_unitary_is_unitary(rng):
    for n in (2, 3, 4, 6):
        u = random_unitary(n, rng)
        assert u.unitarity_deviation() < 1e-12


def test_validation_rejects_bad_matrices():
    with pytest.raises(MatrixError):
        TransferMatrix(np.ones((3, 2)))
    with pytest.raises(MatrixError):
        TransferMatrix(np.array([[1.0]]))
    with pytest.raises(MatrixError):
        TransferMatrix(np.full((2, 2), 2.0))
    with pytest.raises(MatrixError):
        TransferMatrix(np.array([[np.nan, 0], [0, 1.0]]))


def test_json_round_trip(chip, tmp_path):
    path = tmp_path / "m.json"
    chip.write_file(path)
    again = TransferMatrix.from_file(path)
    assert np.array_equal(again.elements, chip.elements)
    doc = json.loads(path.read_text())
    assert doc["schema"] == "transfer-matrix/1"
    assert doc["n_modes"] == 4


def test_from_json_rejects_malformed():
    with pytest.raises(MatrixError):
        TransferMatrix.from_json('{"n_modes": 2, "elements": [[{"re": 1}]]}')


def test_builtin_unknown_name():
    with pytest.raises(MatrixError):
        builtin_matrix("no_such_matrix")


def test_gauge_fix_makes_first_row_col_real(rng):
    u = random_unitary(4, rng)
    g = gauge_fix(u)
    assert np.allclose(g.elements[0, :].imag, 0.0)
    assert np.allclose(g.elements[:, 0].imag, 0.0)
    assert np.all(g.elements[0, :].real >= 0)
    assert np.all(g.elements[:, 0].real >= 0)
    # gauge fixing only rotates phases: moduli unchanged
    assert np.allclose(np.abs(g.elements), np.abs(u.elements))
    # idempotent
    again = gauge_fix(g)
    assert np.allclose(again.elements, g.elements)


def test_gauge_fix_leaves_chip_unchanged(chip):
    g = gauge_fix(chip)
    assert np.allclose(g.elements, chip.elements, atol=1e-15)
