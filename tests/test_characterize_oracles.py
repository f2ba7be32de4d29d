"""The batched characterisation code against the loops it replaced
(``characterize_oracles``).

The gauge fix and the forward model must reproduce the oracles bit for bit
and the reconstruction must raise the same flags; the fit itself runs in a
different order, so elements agree within 1e-12.  A trial's result must not
depend on the batch around it.
"""

import tracemalloc

import numpy as np
import pytest
from characterize_oracles import (oracle_fit_fringe, oracle_gauge_fix,
                                  oracle_reconstruct_matrix, oracle_repeat_errors,
                                  oracle_simulate_fringes)
from characterize_oracles import simulate_trials as parent_simulate_trials

from mmi_lab import (FringeDataset, TransferMatrix, gauge_fix, measured_chip_matrix,
                     random_unitary)
from mmi_lab.characterize import (_fit_fringe, reconstruct_matrix, reconstruct_trials,
                                  simulate_fringes, simulate_trials)
from mmi_lab.pipeline import TRIAL_BLOCK, characterize, recovery_errors

NOISE = [0.0, 0.01, 0.3]


def _non_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return TransferMatrix(z / np.abs(z).max())


def _matrices():
    """(id, matrix): the chip, the identity, and seeded random unitary and
    non-unitary matrices of 2 to 6 modes."""
    cases = [("chip", measured_chip_matrix()),
             ("identity4", TransferMatrix(np.eye(4, dtype=complex)))]
    for n in range(2, 7):
        cases.append((f"unitary{n}", random_unitary(n, np.random.default_rng(100 + n))))
        cases.append((f"nonunitary{n}", _non_unitary(n, np.random.default_rng(200 + n))))
    return cases


MATRICES = _matrices()
BATCHED = ["chip", "identity4", "unitary3", "nonunitary6"]


def assert_same_dataset(got: FringeDataset, want: FringeDataset):
    assert got.n_modes == want.n_modes
    assert got.phase_grid.tobytes() == want.phase_grid.tobytes()
    assert got.transmissions.tobytes() == want.transmissions.tobytes()
    assert got.fringes.keys() == want.fringes.keys()
    for key, block in want.fringes.items():
        assert got.fringes[key].shape == block.shape
        assert got.fringes[key].tobytes() == block.tobytes()


def assert_reconstructions_agree(data: FringeDataset):
    got, want = reconstruct_matrix(data), oracle_reconstruct_matrix(data)
    np.testing.assert_array_equal(got.phase_indeterminate, want.phase_indeterminate)
    assert np.abs(got.matrix.elements - want.matrix.elements).max() <= 1e-12
    return got, want


@pytest.mark.parametrize("noise_sd", NOISE)
@pytest.mark.parametrize("name, matrix", MATRICES, ids=[c[0] for c in MATRICES])
def test_forward_model_and_reconstruction(name, matrix, noise_sd):
    for seed in range(3):
        data = simulate_fringes(matrix, noise_sd, np.random.default_rng(seed))
        assert_same_dataset(data, oracle_simulate_fringes(matrix, noise_sd,
                                                          np.random.default_rng(seed)))
        assert_reconstructions_agree(data)


@pytest.mark.parametrize("name, matrix", MATRICES, ids=[c[0] for c in MATRICES])
def test_noise_free_trials_match_the_parent(name, matrix):
    # the general path, which draws the noise and scales it by 0, gives the
    # bits the parent's noise-free branch stacked without drawing
    seeds = range(5, 9)
    got = simulate_trials(matrix, 0.0, seeds)
    want = parent_simulate_trials(matrix, 0.0, seeds)
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_identity_flags_match(identity4):
    got, want = assert_reconstructions_agree(simulate_fringes(identity4))
    assert got.phase_indeterminate[1:].all() and not got.phase_indeterminate[0].any()


@pytest.mark.parametrize("n", [2, 4, 6])
def test_non_uniform_phase_grid_from_file(tmp_path, n):
    rng = np.random.default_rng(n)
    m = _non_unitary(n, rng).elements
    grid = np.sort(rng.uniform(0.0, 2 * np.pi, 11))
    fringes = {}
    for i in range(1, n):
        powers = np.abs(m[0] + np.exp(1j * grid)[:, None] * m[i]) ** 2
        fringes[(0, i)] = powers * (1.0 + 0.02 * rng.standard_normal(powers.shape))
    path = tmp_path / "fringes.json"
    FringeDataset(n_modes=n, phase_grid=grid, transmissions=np.abs(m) ** 2,
                  fringes=fringes).write_file(path)
    assert_reconstructions_agree(FringeDataset.from_file(path))


def test_fit_fringe_batch_matches_per_column_fits():
    rng = np.random.default_rng(7)
    phases = np.sort(rng.uniform(0.0, 2 * np.pi, 13))
    powers = rng.uniform(0.0, 2.0, (13, 3, 5))
    theta, contrast, resid = _fit_fringe(phases, powers)
    assert theta.shape == contrast.shape == resid.shape == (3, 5)
    for idx in np.ndindex(3, 5):
        want = oracle_fit_fringe(phases, powers[(slice(None),) + idx])
        assert np.allclose((theta[idx], contrast[idx], resid[idx]), want, rtol=0, atol=1e-12)
        assert np.allclose(_fit_fringe(phases, powers[(slice(None),) + idx]), want,
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("name, matrix", MATRICES, ids=[c[0] for c in MATRICES])
def test_gauge_fix_is_bit_identical(name, matrix):
    rng = np.random.default_rng(3)
    m = matrix.elements * np.exp(1j * rng.uniform(-np.pi, np.pi, matrix.elements.shape))
    for zeros in ([], [(0, 0)], [(1, 0), (0, 1)]):
        z = m.copy()
        for idx in zeros:
            z[idx] = 0
        assert gauge_fix(TransferMatrix(z)) == oracle_gauge_fix(TransferMatrix(z))


@pytest.mark.parametrize("noise_sd", NOISE)
@pytest.mark.parametrize("name, matrix", [c for c in MATRICES if c[0] in BATCHED],
                         ids=BATCHED)
def test_trial_does_not_depend_on_its_batch(name, matrix, noise_sd):
    grid, trans, fringes = simulate_trials(matrix, noise_sd, range(40, 140))
    elements, flags = reconstruct_trials(grid, trans, fringes)
    for size in (1, 5, 100):
        for start in {0, 37, 100 - size}:
            e, f = reconstruct_trials(grid, trans[start:start + size],
                                      fringes[start:start + size])
            assert e.tobytes() == elements[start:start + size].tobytes()
            np.testing.assert_array_equal(f, flags[start:start + size])
    for t in (0, TRIAL_BLOCK - 1, TRIAL_BLOCK, 99):
        data = simulate_fringes(matrix, noise_sd, np.random.default_rng(40 + t))
        assert_same_dataset(data, FringeDataset(
            n_modes=matrix.n_modes, phase_grid=grid, transmissions=trans[t],
            fringes={(0, i): b for i, b in enumerate(fringes[t], start=1)}))
        rec = reconstruct_matrix(data)
        assert rec.matrix.elements.tobytes() == elements[t].tobytes()
        np.testing.assert_array_equal(rec.phase_indeterminate, flags[t])


@pytest.mark.parametrize("noise_sd, repeat", [(0.01, 100), (0.3, TRIAL_BLOCK + 1),
                                              (0.01, 2 * TRIAL_BLOCK), (0.0, 3)])
def test_repeat_statistics_match_the_loop(chip, noise_sd, repeat):
    report, _ = characterize(None, chip, noise_sd, 11, repeat)
    errs = np.array(oracle_repeat_errors(chip, noise_sd, 11, repeat))
    assert report["repeat_trials"] == repeat
    for key, want in (("deviation_median", np.median(errs)),
                      ("deviation_p90", np.quantile(errs, 0.9)),
                      ("deviation_max", errs.max())):
        assert abs(report[key] - want) <= 1e-12, key


@pytest.mark.parametrize("noise_sd", NOISE)
def test_recovery_errors_match_the_loop(chip, noise_sd):
    repeat = TRIAL_BLOCK + 3
    target = gauge_fix(chip).elements
    errs = recovery_errors(chip, target, noise_sd, 5, repeat)
    want = oracle_repeat_errors(chip, noise_sd, 5, repeat)
    assert np.abs(errs - want).max() <= 1e-12
    # the trials on both sides of the block boundary, reconstructed alone
    for t in (0, TRIAL_BLOCK - 1, TRIAL_BLOCK, repeat - 1):
        rec = reconstruct_matrix(simulate_fringes(chip, noise_sd, np.random.default_rng(5 + t)))
        assert np.abs(rec.matrix.elements - target).max() == errs[t]


def _traced_peak(chip, repeat):
    tracemalloc.start()
    try:
        characterize(None, chip, 0.01, 0, repeat)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_repeat_memory_is_flat(chip):
    # all 10,000 trials in one batch would trace about 50 MB
    characterize(None, chip, 0.01, 0, 2)  # first-call set-up is not the loop's
    for repeat in (100, 10_000):
        assert _traced_peak(chip, repeat) < 2_000_000, repeat
