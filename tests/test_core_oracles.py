"""The pair-amplitude kernel, the single mixture and the Fock oracle against
the code they replaced (``core_oracles``).

Every comparison is exact: ``_pair_amplitudes`` and ``_mixture`` keep the
scalar products, sums and powers of the loops they replaced, in the same
order, and ``fock_oracle`` forms the same products and projections as the
two-photon state it replaced (they differ at most in the sign of a zero,
which no squared magnitude keeps).  The matrices are the measured chip, the
balanced splitter, random unitaries of 2 to 6 modes and scaled non-unitary
matrices; every ordered input pair is checked.
"""

import core_oracles as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmi_lab import (CoincidenceDistribution, TransferMatrix, coincidence_mixture,
                     fit_visibility, fock_oracle, random_unitary, renormalization_magnitude)
from mmi_lab.core import _pair_table

VISIBILITIES = (0.0, 0.708, 1.0)


def _input_pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def check_tables(matrix):
    for i, j in _input_pairs(matrix.n_modes):
        for quantum in (True, False):
            assert np.array_equal(_pair_table(matrix, i, j, quantum),
                                  oracle._pair_table(matrix, i, j, quantum))
        for renormalized in (False, True):
            for v in VISIBILITIES:
                got = coincidence_mixture(matrix, i, j, v, renormalized)
                want = oracle.coincidence_mixture(matrix, i, j, v, renormalized)
                assert np.array_equal(got.values, want.values)
                assert got.renormalized == want.renormalized
    assert renormalization_magnitude(matrix) == oracle.renormalization_magnitude(matrix)


def check_fock_oracle(matrix):
    """Bit for bit, both flags, every ordered input pair."""
    for i, j in _input_pairs(matrix.n_modes):
        for distinguishable in (False, True):
            got = fock_oracle(matrix, i, j, distinguishable).values
            want = oracle.fock_oracle(matrix, i, j, distinguishable).values
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _outcome(fn, *args):
    """The result, or the message of the ValueError raised (empty counts, or
    a theory row with no weight on the measured channels)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def check_fits(matrix, rng):
    for i, j in _input_pairs(matrix.n_modes):
        v = rng.choice(VISIBILITIES)
        expected = 500.0 * oracle.coincidence_mixture(matrix, i, j, v).values
        measured = CoincidenceDistribution(matrix.n_modes, rng.poisson(expected).astype(float))
        for table in (measured, measured.cross_only()):
            assert _outcome(fit_visibility, table, matrix, i, j) == \
                _outcome(oracle.fit_visibility, table, matrix, i, j)


@pytest.mark.parametrize("name", ["chip", "splitter"])
def test_named_matrices(name, request, rng):
    matrix = request.getfixturevalue(name)
    check_tables(matrix)
    check_fits(matrix, rng)
    check_fock_oracle(matrix)


@pytest.mark.parametrize("name", ["chip", "splitter", "identity4"])
def test_fock_oracle_on_named_matrices(name, request):
    check_fock_oracle(request.getfixturevalue(name))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fock_oracle_on_haar_unitaries(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        check_fock_oracle(random_unitary(n, rng))


def test_fock_oracle_on_signed_zero_entries(chip, rng):
    # zeros of either sign in either part, a whole row of -0, and entries
    # whose products underflow to zero
    zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for seed in range(20):
        m = _scaled_non_unitary(5, 0.9, np.random.default_rng(seed)).elements.copy()
        cells = rng.choice(m.size, size=8, replace=False)
        m.flat[cells] = [zeros[c % 4] for c in range(8)]
        m[seed % 5] = complex(-0.0, -0.0)
        m[(seed + 1) % 5, seed % 3] = 1e-200 - 1e-200j
        check_fock_oracle(TransferMatrix(m))
    m = chip.elements.copy()
    m[m.real > 0.3] = complex(-0.0, 0.0)
    check_fock_oracle(TransferMatrix(m))


def _scaled_non_unitary(n, scale, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return TransferMatrix(z * (scale / np.abs(z).max()))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.05, 1.0), unitary=st.booleans())
def test_random_matrices(n, seed, scale, unitary):
    rng = np.random.default_rng(seed)
    matrix = (TransferMatrix(random_unitary(n, rng).elements * scale) if unitary
              else _scaled_non_unitary(n, scale, rng))
    check_tables(matrix)
    check_fits(matrix, rng)
    check_fock_oracle(matrix)
