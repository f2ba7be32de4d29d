"""The pair-amplitude kernel and the single mixture against the code they
replaced (``core_oracles``).

Every comparison is exact: ``_pair_amplitudes`` and ``_mixture`` keep the
scalar products, sums and powers of the loops they replaced, in the same
order.  The matrices are the measured chip, the balanced splitter, random
unitaries of 2 to 6 modes and scaled non-unitary matrices; every ordered
input pair is checked.
"""

import core_oracles as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmi_lab import (CoincidenceDistribution, TransferMatrix, coincidence_mixture,
                     fit_visibility, random_unitary, renormalization_magnitude)
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
