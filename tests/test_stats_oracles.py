"""The single similarity, mode and pair-labelling implementations against the
code they replaced (``stats_oracles``).

Every comparison is exact: the array expressions must reproduce the loops
bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from stats_oracles import (oracle_fit_visibility, oracle_mode, oracle_rand_vs_rand_chunk,
                           oracle_similarity_vs_dt)

from mmi_lab import (CoincidenceDistribution, TransferMatrix, coincidence_classical,
                     coincidence_quantum, extract_coincidences, fit_visibility,
                     poisson_mc_similarity, random_baseline, random_unitary, similarity,
                     similarity_vs_dt, simulate_run)
from mmi_lab.stats import MODE_BIN_WIDTH, _run_chunks


def _tables(measured_values, n, cross_only):
    dist = CoincidenceDistribution(n, measured_values)
    return dist.cross_only() if cross_only else dist


def _weakly_coupled(n, eps, rng):
    """exp(i eps H) for a random Hermitian H: close to the identity."""
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, v = np.linalg.eigh(h + h.conj().T)
    return TransferMatrix((v * np.exp(1j * eps * w)) @ v.conj().T)


def check_fit(measured, matrix, i, j):
    got = fit_visibility(measured, matrix, i, j)
    want = oracle_fit_visibility(measured, matrix, i, j)
    assert got == want
    assert all(type(x) is float for x in got)
    return got


class TestFitVisibilityGrid:
    @pytest.mark.parametrize("cross_only", [False, True])
    def test_random_counts_random_unitaries(self, rng, cross_only):
        for _ in range(12):
            n = int(rng.integers(2, 7))
            u = random_unitary(n, rng)
            i, j = (int(x) for x in rng.choice(n, 2, replace=False))
            q = coincidence_quantum(u, i, j).values
            c = coincidence_classical(u, i, j).values
            v = rng.random()
            counts = rng.poisson(2000 * (v * q + (1 - v) * c)).astype(float)
            measured = _tables(counts, n, cross_only)
            if measured.values.sum() > 0:
                check_fit(measured, u, i, j)

    @pytest.mark.parametrize("cross_only", [False, True])
    def test_chip_counts(self, chip, rng, cross_only):
        q = coincidence_quantum(chip, 0, 1).values
        c = coincidence_classical(chip, 0, 1).values
        for v in (0.0, 0.3, 0.708, 1.0):
            counts = rng.poisson(5000 * (v * q + (1 - v) * c)).astype(float)
            check_fit(_tables(counts, 4, cross_only), chip, 0, 1)

    @pytest.mark.parametrize("cross_only", [False, True])
    def test_exact_mixture_ties(self, rng, cross_only):
        # counts equal to a grid mixture of weakly coupled modes: Q and C
        # nearly agree, S reaches its rounded maximum at several grid points
        # and the first of them must win
        grid = np.arange(0.0, 1.0 + 0.001 / 2, 0.001)[:, None]
        ties = 0
        for _ in range(40):
            n = int(rng.integers(2, 5))
            u = _weakly_coupled(n, 10.0 ** rng.uniform(-9, -3), rng)
            q = coincidence_quantum(u, 0, 1).values
            c = coincidence_classical(u, 0, 1).values
            v = grid[int(rng.integers(0, grid.size)), 0]
            measured = _tables(v * q + (1.0 - v) * c, n, cross_only)
            if measured.values.sum() <= 0:
                continue
            _, s_max = check_fit(measured, u, 0, 1)
            k, l = np.triu_indices(n)
            cols = k != l if cross_only else slice(None)
            s = similarity(measured.values, (grid * q + (1.0 - grid) * c)[:, cols])
            ties += int(np.sum(s == s_max) > 1)
        assert ties >= 5

    @pytest.mark.parametrize("cross_only", [False, True])
    def test_all_grid_points_tie(self, identity4, cross_only):
        # photons that never meet: Q == C, so every V gives the same S
        counts = coincidence_classical(identity4, 0, 2).values * 100.0
        assert check_fit(_tables(counts, 4, cross_only), identity4, 0, 2)[0] == 0.0


class TestSimilarityRows:
    def test_rows_equal_single_calls(self, rng):
        p = rng.poisson(50, 10).astype(float)
        qs = rng.random((7, 10))
        qs[2, 3] = 0.0
        rows = similarity(p, qs)
        assert rows.shape == (7,)
        assert [float(s) for s in rows] == [similarity(p, q) for q in qs]

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="shape"):
            similarity([1.0, 1.0], np.ones((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            similarity([1.0, 1.0], np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            similarity([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError, match="positive sums"):
            similarity([1.0, 1.0], [[1.0, 1.0], [0.0, 0.0]])

    def test_rand_vs_rand_matches_inline_formula(self):
        trials, seed, dims = 300_000, 5, 6  # more than two resampling chunks
        got = random_baseline(None, dims=dims, trials=trials, seed=seed)

        def chunk(rng, out):
            out[0] = oracle_rand_vs_rand_chunk(rng, out.shape[1], dims)

        assert np.array_equal(got.samples, _run_chunks(trials, seed, chunk)[0])


class TestModeFromHistogram:
    def check(self, res):
        assert res.mode == oracle_mode(res.samples)
        centre = (int(np.argmax(res.histogram)) + 0.5) * MODE_BIN_WIDTH
        assert res.mode == pytest.approx(centre, abs=1e-12)

    def test_poisson_resampling(self, chip):
        q = coincidence_quantum(chip, 0, 1).values
        self.check(poisson_mc_similarity(q * 400, q, trials=50_000, seed=3,
                                         keep_samples=True))

    def test_random_baselines(self, chip):
        q = coincidence_quantum(chip, 0, 1).values
        self.check(random_baseline(q, trials=50_000, seed=4))
        self.check(random_baseline(None, dims=3, trials=50_000, seed=5))


@st.composite
def labelled_events(draw):
    """Detector pairs, some same-detector or out of range, with separations."""
    n = draw(st.integers(2, 6))
    label = st.integers(-2, n + 1)
    pairs = draw(st.lists(st.tuples(label, label), min_size=1, max_size=40))
    dtau = draw(st.lists(st.floats(-80.0, 80.0), min_size=len(pairs),
                         max_size=len(pairs)))
    return n, pairs, dtau


def windows(rows):
    return [(w.center, w.n_events, w.vs_quantum.to_json_dict(),
             w.vs_classical.to_json_dict()) for w in rows]


def shared_draw_oracle(dtau, pairs, tq, tc, **kwargs):
    """The oracle's windows with ``vs_classical`` drawn at the quantum seed
    ``seed + 2w``, as ``similarity_vs_dt`` now shares each window's draws.

    ``vs_quantum`` is the oracle's own; the oracle run with the theories
    swapped judges the classical theory at that same seed.
    """
    pairs = list(pairs)
    quantum = oracle_similarity_vs_dt(dtau, pairs, tq, tc, **kwargs)
    swapped = oracle_similarity_vs_dt(dtau, pairs, tc, tq, **kwargs)
    return [(center, n, vs_q, vs_c)
            for (center, n, vs_q, _), (_, _, vs_c, _) in zip(quantum, swapped)]


class TestPairLabels:
    @settings(max_examples=100, deadline=None)
    @given(labelled_events())
    def test_matches_dictionary_lookup(self, case):
        n, pairs, dtau = case
        theory = np.arange(1.0, n * (n - 1) // 2 + 1)
        kwargs = dict(n_modes=n, trials=500, seed=7, min_events=1)
        want = shared_draw_oracle(dtau, pairs, theory, theory[::-1], **kwargs)
        assert windows(similarity_vs_dt(dtau, pairs, theory, theory[::-1], **kwargs)) == want
        as_array = np.array(pairs, dtype=int)
        assert windows(similarity_vs_dt(dtau, as_array, theory, theory[::-1], **kwargs)) == want

    def test_accepts_an_iterator_of_pairs(self):
        dtau = [1.0, 2.0, 3.0, 4.0]
        k, l = [0, 1, 2, 3], [1, 2, 3, 3]
        theory = np.arange(1.0, 7.0)
        kwargs = dict(trials=500, seed=7, min_events=1)
        want = shared_draw_oracle(dtau, zip(k, l), theory, theory[::-1], **kwargs)
        assert windows(similarity_vs_dt(dtau, zip(k, l), theory, theory[::-1], **kwargs)) == want

    @pytest.mark.parametrize("pairs", [np.zeros((4, 3), dtype=int), [0, 1, 1, 2, 2, 3, 0, 3],
                                       [(0, 1)] * 3, [(0, 1)] * 5])
    def test_rejects_misshaped_pairs(self, pairs):
        theory = np.arange(1.0, 7.0)
        with pytest.raises(ValueError, match="detector pairs"):
            similarity_vs_dt([1.0, 2.0, 3.0, 4.0], pairs, theory, theory, trials=500)

    def test_simulated_run(self, chip, default_source, default_detectors, mmi_layout):
        stream = simulate_run(default_source, mmi_layout, default_detectors, 30_000.0,
                              seed=41000)
        co = extract_coincidences(stream, window_ns=300.0)
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        c = coincidence_classical(chip, 0, 1).cross_only().values
        got = similarity_vs_dt(co.dtau_ns, np.column_stack((co.pair_k, co.pair_l)), q, c,
                               trials=5000, seed=3)
        want = shared_draw_oracle(co.dtau_ns, zip(co.pair_k.tolist(), co.pair_l.tolist()),
                                  q, c, trials=5000, seed=3)
        assert len(want) >= 5
        assert windows(got) == want
