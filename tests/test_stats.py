import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmi_lab import (coincidence_classical, coincidence_quantum,
                     exceedance_probability, poisson_mc_similarity, random_baseline,
                     similarity, similarity_vs_dt)
from mmi_lab import _runtime, stats
from mmi_lab.core import cross_pair_index
from mmi_lab.stats import _hpd_window

positive_vectors = st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=2,
                            max_size=12).filter(lambda v: sum(v) > 0)
# scaling a subnormal entry such as 5e-324 rounds away most of its digits,
# so a relative tolerance can hold only for normal floats
normal_positive_vectors = st.lists(
    st.floats(0.0, 1e6, allow_nan=False, allow_subnormal=False), min_size=2,
    max_size=12).filter(lambda v: sum(v) > 0)


class TestSimilarity:
    def test_identical_distributions(self, rng):
        p = rng.random(6) + 0.01
        assert similarity(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_distributions(self):
        assert similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_chip_bound_value(self, chip):
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        c = coincidence_classical(chip, 0, 1).cross_only().values
        assert similarity(q, c) == pytest.approx(0.901, abs=0.003)

    @settings(max_examples=60, deadline=None)
    @given(normal_positive_vectors, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_scale_invariance(self, vec, a, b):
        p = np.array(vec)
        q = p[::-1].copy() + 0.5
        assert similarity(a * p, b * q) == pytest.approx(similarity(p, q), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(positive_vectors)
    def test_bounds_and_symmetry(self, vec):
        p = np.array(vec)
        q = np.roll(p, 1) + 0.1
        s = similarity(p, q)
        assert 0.0 <= s <= 1.0 + 1e-12
        assert s == pytest.approx(similarity(q, p), abs=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            similarity([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            similarity([1.0, -0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            similarity([1.0, 1.0], [1.0, 1.0, 1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                similarity([bad, 1.0], [1.0, 1.0])
            with pytest.raises(ValueError, match="finite"):
                similarity([1.0, 1.0], [[1.0, 1.0], [1.0, bad]])


class TestHpdInterval:
    def test_symmetric_unimodal(self, rng):
        x = rng.normal(0.5, 0.05, 100_000)
        lo, hi = _hpd_window(np.sort(x))
        assert (lo + hi) / 2 == pytest.approx(0.5, abs=0.002)
        assert hi - lo == pytest.approx(2 * 0.05, abs=0.005)

    def test_point_mass(self):
        lo, hi = _hpd_window(np.full(1000, 0.42))
        assert lo == hi == 0.42

    def test_matches_exhaustive_scan(self, rng):
        # skewed, multimodal-ish sample against the O(n^2) oracle
        x = np.concatenate([rng.beta(8, 2, 1500), rng.beta(2, 6, 500)])
        xs = np.sort(x)
        lo, hi = _hpd_window(xs)
        n = len(xs)
        m = int(np.ceil(0.68 * n))
        best = None
        for a in range(n - m + 1):
            width = xs[a + m - 1] - xs[a]
            if best is None or width < best[0]:
                best = (width, xs[a], xs[a + m - 1])
        assert lo == best[1]
        assert hi == best[2]

    def test_resampling_needs_a_trial(self):
        with pytest.raises(ValueError, match="at least one trial, got 0"):
            poisson_mc_similarity([3.0, 4.0], [1.0, 1.0], trials=0)
        with pytest.raises(ValueError, match="at least one trial, got 0"):
            random_baseline(None, trials=0)

    def test_holds_the_fewest_samples_that_are_68_percent(self):
        # evenly spaced: every window of m samples is m - 1 wide, so the first
        # wins; ceil(0.68 * n) in floats takes one too many at 75, 3000, 10000
        for n in [*range(1, 2001), 3_000, 10_000]:
            lo, hi = _hpd_window(np.arange(n, dtype=float))
            m = int(hi - lo) + 1
            assert lo == 0.0 and 100 * m >= 68 * n > 100 * (m - 1), n


class TestPoissonResampling:
    def test_concentration_for_large_counts(self, chip):
        theory = coincidence_quantum(chip, 0, 1).cross_only().values
        counts = np.round(theory / theory.sum() * 1e6)
        res = poisson_mc_similarity(counts, theory, trials=100_000, seed=3)
        assert res.mode >= 0.999
        assert res.hpd68[1] - res.hpd68[0] <= 0.002

    def test_single_channel_always_unity(self):
        res = poisson_mc_similarity([500.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                    trials=20_000, seed=4)
        assert res.mode == pytest.approx(1.0, abs=0.001)
        assert res.hpd68 == (1.0, 1.0)

    def test_measured_scale_reconstruction(self, chip):
        # a measured-hardware-scale dataset: 247 events whose
        # similarity to the interfering prediction sits near 98.9%
        theory = coincidence_quantum(chip, 0, 1).cross_only().values
        counts = np.array([21, 10, 31, 117, 50, 18], dtype=float)
        res = poisson_mc_similarity(counts, theory, trials=200_000, seed=5)
        assert 0.98 <= res.mode <= 0.995
        assert 0.0030 <= res.mode - res.hpd68[0] <= 0.0070
        assert 0.0030 <= res.hpd68[1] - res.mode <= 0.0060

    def test_mode_differs_from_raw(self, chip):
        theory = coincidence_quantum(chip, 0, 1).cross_only().values
        counts = np.array([21, 10, 31, 117, 50, 18], dtype=float)
        res = poisson_mc_similarity(counts, theory, trials=200_000, seed=6)
        assert res.raw is not None
        # resampling plus normalisation shifts the most likely similarity
        assert abs(res.raw - res.mode) > 5e-4

    def test_bit_exact_reproducibility(self, chip):
        theory = coincidence_quantum(chip, 0, 1).cross_only().values
        counts = np.round(100 * theory / theory.sum())
        a = poisson_mc_similarity(counts, theory, trials=50_000, seed=11,
                                  keep_samples=True)
        b = poisson_mc_similarity(counts, theory, trials=50_000, seed=11,
                                  keep_samples=True)
        assert np.array_equal(a.samples, b.samples)
        assert a.mode == b.mode and a.hpd68 == b.hpd68 and a.mean == b.mean

    def test_thread_count_does_not_change_results(self, chip, monkeypatch):
        theory = coincidence_quantum(chip, 0, 1).cross_only().values
        counts = np.round(100 * theory / theory.sum())
        serial = poisson_mc_similarity(counts, theory, trials=300_000, seed=12,
                                       keep_samples=True)
        monkeypatch.setenv("MMI_LAB_THREADS", "4")
        threaded = poisson_mc_similarity(counts, theory, trials=300_000, seed=12,
                                         keep_samples=True)
        assert np.array_equal(serial.samples, threaded.samples)

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            poisson_mc_similarity([0.0, 0.0], [1.0, 1.0], trials=1000, seed=0)

    def test_json_payload(self, chip):
        theory = coincidence_quantum(chip, 0, 1).cross_only().values
        res = poisson_mc_similarity(np.round(50 * theory / theory.sum()),
                                    theory, trials=10_000, seed=1)
        payload = res.to_json_dict()
        assert set(payload) == {"mode", "hpd68", "mean", "n_trials", "seed", "raw"}

    def test_histogram_csv(self, chip):
        theory = coincidence_quantum(chip, 0, 1).cross_only().values
        res = poisson_mc_similarity(np.round(50 * theory / theory.sum()),
                                    theory, trials=10_000, seed=1)
        lines = res.histogram_csv().splitlines()
        assert lines[0] == "similarity,count"
        total = sum(int(row.split(",")[1]) for row in lines[1:])
        assert total == res.n_trials


def same_result(a, b):
    """Exact equality of two resampling results, samples included."""
    assert (a.mode, a.hpd68, a.mean, a.raw, a.seed, a.n_trials) == \
        (b.mode, b.hpd68, b.mean, b.raw, b.seed, b.n_trials)
    assert np.array_equal(a.histogram, b.histogram)
    assert (a.samples is None) == (b.samples is None)
    if a.samples is not None:
        assert np.array_equal(a.samples, b.samples)


def same_windows(a, b):
    assert [(w.center, w.n_events) for w in a] == [(w.center, w.n_events) for w in b]
    for wa, wb in zip(a, b):
        same_result(wa.vs_quantum, wb.vs_quantum)
        same_result(wa.vs_classical, wb.vs_classical)


class TestSharedDraws:
    """Several theories judged on one set of Poisson draws."""

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_rows_equal_single_calls(self, chip, monkeypatch, threads):
        monkeypatch.setenv("MMI_LAB_THREADS", threads)
        q = coincidence_quantum(chip, 0, 1).values
        c = coincidence_classical(chip, 0, 1).values
        theories = np.stack((q, c, 0.7 * q + 0.3 * c))
        counts = np.round(3000 * q)
        trials = 2 * stats._CHUNK + 1001  # three chunks, the last one short
        rows = poisson_mc_similarity(counts, theories, trials, seed=17, keep_samples=True)
        assert len(rows) == 3
        for row, theory in zip(rows, theories):
            same_result(row, poisson_mc_similarity(counts, theory, trials, seed=17,
                                                   keep_samples=True))
        assert rows[0].samples.shape == (trials,)

    def test_single_row_matrix(self, chip):
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        counts = np.round(200 * q)
        (row,) = poisson_mc_similarity(counts, q[None], 5000, seed=2)
        same_result(row, poisson_mc_similarity(counts, q, 5000, seed=2))

    @pytest.mark.parametrize("theory", [np.ones((2, 5)), np.ones((1, 2, 6)), np.float64(1.0)])
    def test_rejects_misshaped_theory(self, theory):
        with pytest.raises(ValueError, match="equal length"):
            poisson_mc_similarity(np.ones(6), theory, 1000)

    def _events(self, chip, rng, n):
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        c = coincidence_classical(chip, 0, 1).cross_only().values
        labels6 = [(k, l) for k in range(4) for l in range(k + 1, 4)]
        idx = rng.choice(len(labels6), size=n, p=q / q.sum())
        return np.abs(rng.normal(0.0, 60.0, n)), [labels6[i] for i in idx], q, c

    def test_windows_independent_of_thread_count(self, chip, rng, monkeypatch):
        dtau, labels, q, c = self._events(chip, rng, 3000)
        monkeypatch.setenv("MMI_LAB_THREADS", "1")
        serial = similarity_vs_dt(dtau, labels, q, c, trials=4000, seed=43)
        monkeypatch.setenv("MMI_LAB_THREADS", "4")
        threaded = similarity_vs_dt(dtau, labels, q, c, trials=4000, seed=43)
        assert len(serial) >= 5
        same_windows(serial, threaded)

    def test_window_judges_both_theories_on_its_own_spawn_key(self, chip, rng):
        dtau, labels, q, c = self._events(chip, rng, 500)
        rows = similarity_vs_dt(dtau, labels, q, c, trials=3000, seed=5)
        w = 2  # centres are 0, 10, 20 ns ...; every window here is dense
        assert rows[w].center == 20.0
        sel = (dtau <= 45.0) & (dtau >= 0.0)
        counts = np.bincount([cross_pair_index(*sorted(p), 4)
                              for p, keep in zip(labels, sel) if keep], minlength=6)
        # window w's chunk c draws from SeedSequence(seed, spawn_key=(w, c))
        for got, theory in ((rows[w].vs_quantum, q), (rows[w].vs_classical, c)):
            same_result(got, poisson_mc_similarity(counts, theory, 3000, 5, spawn_key=(w,)))
        assert rows[w].window == w and rows[w].vs_quantum.seed == 5
        assert poisson_mc_similarity(counts, q, 3000, 5).mean != rows[w].vs_quantum.mean

    def test_chunked_windows_build_one_pool(self, chip, rng, monkeypatch):
        # the window map starts MMI_LAB_THREADS - 1 workers and works on the
        # calling thread too; each window's chunk and summary maps run
        # serially on the thread that judges it
        dtau, labels, q, c = self._events(chip, rng, 400)
        started, judges = [], []

        class CountingThread(_runtime.Thread):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        def judge(*args, **kwargs):
            judges.append(threading.current_thread())
            return poisson_mc_similarity(*args, **kwargs)

        trials = stats._CHUNK + 10  # two chunks per window
        serial = similarity_vs_dt(dtau, labels, q, c, trials=trials, seed=9, half_window=40.0)
        monkeypatch.setattr(_runtime, "Thread", CountingThread)
        monkeypatch.setattr(stats, "poisson_mc_similarity", judge)
        monkeypatch.setenv("MMI_LAB_THREADS", "3")
        threaded = similarity_vs_dt(dtau, labels, q, c, trials=trials, seed=9, half_window=40.0)
        assert len(threaded) >= 4
        assert len(started) == 2 and not any(t.is_alive() for t in started)
        assert len(judges) == len(threaded)
        assert set(judges) <= {threading.current_thread(), *started}
        same_windows(serial, threaded)


class TestRandomBaseline:
    def test_rand_vs_rand_scale(self):
        # mode estimates wobble at 1e5 trials; the mean is stable
        res = random_baseline(None, dims=6, trials=100_000, seed=19)
        assert 0.81 <= res.mean <= 0.83
        assert 0.82 <= res.mode <= 0.92
        assert res.raw is None

    def test_theory_baseline_deterministic(self, chip):
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        a = random_baseline(q, trials=50_000, seed=7)
        b = random_baseline(q, trials=50_000, seed=7)
        assert a.mode == b.mode and a.hpd68 == b.hpd68

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            random_baseline(None, dims=1, trials=1000, seed=0)

    # the theory is checked as similarity() checks its arguments
    def test_negative_theory_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            random_baseline([-1.0, 1.0, 1.0], trials=1000, seed=0)

    def test_one_entry_theory_rejected(self):
        with pytest.raises(ValueError, match="at least 2 dimensions"):
            random_baseline([1.0], trials=1000, seed=0)

    def test_two_dimensional_theory_rejected(self):
        with pytest.raises(ValueError, match="is not 1-D"):
            random_baseline(np.ones((2, 3)), trials=1000, seed=0)

    def test_zero_sum_theory_rejected(self):
        with pytest.raises(ValueError, match="positive sums"):
            random_baseline([0.0, 0.0, 0.0], trials=1000, seed=0)


class TestExceedance:
    def test_trivial_bounds(self, chip):
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        base = random_baseline(q, trials=50_000, seed=23)
        assert exceedance_probability(base, (0.0, 1.0)) == 1.0
        assert exceedance_probability(base, (1.0, 1.0)) <= 1e-4

    def test_baseline_without_samples_rejected(self, chip):
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        base = random_baseline(q, trials=5_000, seed=29, keep_samples=False)
        with pytest.raises(ValueError, match="without samples"):
            exceedance_probability(base, (0.9, 1.0))


class TestSimilarityVsDt:
    def _events(self, rng, theory, n, spread=80.0):
        labels6 = [(k, l) for k in range(4) for l in range(k + 1, 4)]
        probs = theory / theory.sum()
        idx = rng.choice(len(labels6), size=n, p=probs)
        dtau = np.abs(rng.normal(0.0, spread, n))
        return dtau, [labels6[i] for i in idx]

    def test_quantum_events_prefer_quantum(self, chip, rng):
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        c = coincidence_classical(chip, 0, 1).cross_only().values
        dtau, labels = self._events(rng, q, 4000)
        rows = [r for r in similarity_vs_dt(dtau, labels, q, c,
                                            trials=20_000, seed=31)
                if r.n_events >= 100]
        assert len(rows) >= 3
        for row in rows:
            assert row.vs_quantum.mode > row.vs_classical.mode

    def test_classical_events_prefer_classical(self, chip, rng):
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        c = coincidence_classical(chip, 0, 1).cross_only().values
        dtau, labels = self._events(rng, c, 4000)
        rows = [r for r in similarity_vs_dt(dtau, labels, q, c,
                                            trials=20_000, seed=37)
                if r.n_events >= 100]
        assert len(rows) >= 3
        for row in rows:
            assert row.vs_classical.mode > row.vs_quantum.mode

    def test_sparse_windows_omitted(self, chip, rng):
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        c = coincidence_classical(chip, 0, 1).cross_only().values
        dtau, labels = self._events(rng, q, 30, spread=10.0)
        rows = similarity_vs_dt(dtau, labels, q, c, trials=5_000, seed=41)
        # windows of +/- 25 ns every 10 ns; those with fewer than 5 events go
        centers = np.arange(0.0, dtau.max() + 25.0, 10.0)
        dense = [x for x in centers
                 if np.sum((dtau >= max(0.0, x - 25.0)) & (dtau <= x + 25.0)) >= 5]
        assert [r.center for r in rows] == dense
        assert 0 < len(dense) < len(centers)

    def test_empty_rejected(self, chip):
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        with pytest.raises(ValueError):
            similarity_vs_dt([], [], q, q)
