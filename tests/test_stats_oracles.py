"""The single similarity, mode and pair-labelling implementations against the
code they replaced (``stats_oracles``).

Every comparison is exact: the array expressions must reproduce the loops
bit for bit, and the Monte-Carlo judge must reproduce ``similarity()``
applied trial by trial.  Only the replaced cell-major kernel is compared
within a bound, in ulps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from stats_oracles import (_similarity_rows, oracle_fit_visibility, oracle_hpd_interval,
                           oracle_mode, oracle_poisson_chunk, oracle_random_baseline_chunk,
                           oracle_similarity_vs_dt, oracle_summarize)

from mmi_lab import (CoincidenceDistribution, TransferMatrix, coincidence_classical,
                     coincidence_quantum, extract_coincidences, fit_visibility,
                     poisson_mc_similarity, random_baseline, random_unitary, similarity,
                     similarity_vs_dt, simulate_run)
from mmi_lab.stats import (_BLOCK, _CHUNK, _EDGES, MODE_BIN_WIDTH, _judge, _run_chunks,
                           _summarize, hpd_interval)


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


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def same_judged(got, want):
    """``got`` has the oracle's bits at every trial the oracle judged (the
    entries of ``want`` that are not nan)."""
    judged = ~np.isnan(want)
    return judged.any() and same_bits(got[judged], want[judged])


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
        # the formula is similarity() of each pair of draws
        trials, seed, dims = 300_000, 5, 6  # more than two resampling chunks
        got = random_baseline(None, dims=dims, trials=trials, seed=seed)
        want = _run_chunks(trials, seed, oracle_random_baseline_chunk(None, dims))
        assert same_judged(got.samples, want[0])


class TestPoissonRowBlocks:
    """The row-blocked resampler against one draw per seeded chunk, judged
    trial by trial by ``similarity()``."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("trials", [1, _BLOCK - 1, _BLOCK + 1, _CHUNK + 3])
    @pytest.mark.parametrize("two_d", [False, True], ids=["1-D", "2-D"])
    def test_matches_unblocked_chunks(self, chip, monkeypatch, threads, trials, two_d):
        monkeypatch.setenv("MMI_LAB_THREADS", threads)
        q = coincidence_quantum(chip, 0, 1).values
        c = coincidence_classical(chip, 0, 1).values
        counts = np.round(400 * q)
        counts[3] = 0.0  # a channel that always draws 0
        theory = np.stack((q, c, 0.5 * (q + c))) if two_d else q
        got = poisson_mc_similarity(counts, theory, trials, seed=31, keep_samples=True)
        rows = np.atleast_2d(theory)
        # every trial of one block once: 1-D, one thread, a block and a trial
        every = not two_d and threads == "1" and trials == _BLOCK + 1
        want = _run_chunks(trials, 31, oracle_poisson_chunk(counts, rows, every), rows=len(rows))
        for res, samples in zip(got if two_d else [got], want):
            assert same_judged(res.samples, samples)

    def test_all_zero_draws(self, monkeypatch):
        # mean 1e-3: most draws are all zero, where the similarity is 0
        counts = np.array([1e-3, 1e-3])
        got = poisson_mc_similarity(counts, [1.0, 2.0], _BLOCK + 5, seed=2, keep_samples=True)
        want = _run_chunks(_BLOCK + 5, 2, oracle_poisson_chunk(counts, [np.array([1.0, 2.0])],
                                                               every=True))
        assert same_judged(got.samples, want[0])
        assert np.count_nonzero(want[0] == 0.0) > _BLOCK // 2


# The most ulps by which the one kernel and the cell-major kernel it replaced
# differ on the cases of test_replaced_kernel_within_ulps, as measured: 14 at
# 136 dense cells, 3 to 6 at 3 to 21 cells.  The two take the square roots
# and sum the cells in different orders.
REPLACED_KERNEL_ULPS = 14


class TestCellMajorJudging:
    """Cell-major judging against ``similarity()`` applied trial by trial: the
    judged samples bit for bit, at cell counts from 1 to 136 (2 to 16 modes)."""

    @pytest.mark.parametrize("per_draw", [False, True], ids=["theory", "random"])
    def test_replaced_kernel_within_ulps(self, per_draw):
        worst = 0
        for cells in (1, 3, 6, 10, 21, 136):
            for total in (1.0, 4000.0):
                rng = np.random.default_rng(cells)
                counts = rng.random(cells) * total
                draws = rng.poisson(counts / counts.sum() * total, size=(2000, cells))
                draws = np.ascontiguousarray(draws.T, dtype=float)
                if per_draw:
                    theories = [rng.exponential(size=draws.shape)]
                else:
                    theories = rng.random((3, cells))
                    theories[1, 0] = 0.0
                old = np.empty((len(theories), draws.shape[1]))
                _similarity_rows(draws.copy(), theories, old, np.empty_like(draws))
                new = np.empty_like(old)
                _judge(draws.copy(), [q if per_draw else q[:, None] for q in theories], new)
                assert np.array_equal(old == 0.0, new == 0.0)
                worst = max(worst, int(np.abs(old.view(np.int64) - new.view(np.int64)).max()))
        assert worst <= REPLACED_KERNEL_ULPS

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("cells", [1, 3, 6, 10, 21, 136])
    @pytest.mark.parametrize("total", [1.0, 4000.0], ids=["sparse", "dense"])
    def test_poisson_matches_trial_major(self, monkeypatch, threads, cells, total):
        # sparse: a mean of one count per trial, so many trials draw all zeros
        monkeypatch.setenv("MMI_LAB_THREADS", threads)
        rng = np.random.default_rng(cells)
        counts = rng.random(cells)
        theories = rng.random((3, cells))
        if cells > 1:
            counts[-1] = 0.0  # a channel that always draws 0
            theories[1, 0] = 0.0
        counts *= total / counts.sum()
        # two chunks let the pool run; one chunk of two blocks otherwise
        trials = _CHUNK + 3 if threads == "2" and cells <= 21 else _BLOCK + 3
        want = _run_chunks(trials, 9, oracle_poisson_chunk(counts, theories), rows=3)
        got = poisson_mc_similarity(counts, theories, trials, seed=9, keep_samples=True)
        assert all(same_judged(g.samples, w) for g, w in zip(got, want))
        one = poisson_mc_similarity(counts, theories[0], trials, seed=9, keep_samples=True)
        assert same_bits(one.samples, got[0].samples)
        if total == 1.0:
            assert np.count_nonzero(got[0].samples == 0.0) > trials // 4

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("dims", [2, 6, 136])
    @pytest.mark.parametrize("per_draw", [False, True], ids=["theory", "random"])
    def test_random_baseline_matches_trial_major(self, monkeypatch, threads, dims, per_draw):
        monkeypatch.setenv("MMI_LAB_THREADS", threads)
        th = None if per_draw else np.random.default_rng(dims).random(dims)
        trials = _CHUNK + 3 if threads == "2" and dims <= 6 else _BLOCK + 3
        # every trial of one block once: a random theory per draw, one thread
        every = per_draw and threads == "1" and dims == 6
        want = _run_chunks(trials, 4, oracle_random_baseline_chunk(th, dims, every))[0]
        got = random_baseline(th, dims=dims, trials=trials, seed=4)
        assert same_judged(got.samples, want)


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


def same_summary(got, want):
    assert got.mode == want.mode
    assert got.hpd68 == want.hpd68
    assert got.mean == want.mean
    assert got.histogram.dtype == want.histogram.dtype
    assert np.array_equal(got.histogram, want.histogram)
    assert (got.n_trials, got.seed, got.raw) == (want.n_trials, want.seed, want.raw)


def old_count_agrees(n):
    """The replaced float count ``ceil(0.68 n)`` equals the exact one at n."""
    return int(np.ceil(0.68 * n)) == (68 * n + 99) // 100


# every bin edge, as np.linspace and as k / 1000 (which differ for some k),
# the floats either side of each, and values below 0, at 1 and above
EDGE_VALUES = np.concatenate((_EDGES, np.arange(1001) / 1000, np.nextafter(_EDGES, -1.0),
                              np.nextafter(_EDGES, 2.0), [-0.5, -1e-300, -0.0, 1.0, 1.0, 1.5]))


class TestOneSortSummary:
    """The summary read from one sorted array against ``np.histogram`` of the
    clipped samples and a second sort (``oracle_summarize``), at trial counts
    where the replaced and the exact 68% counts agree."""

    def check(self, x, keep):
        assert old_count_agrees(x.size)
        want = oracle_summarize(x.copy(), x.size, 5, 0.25, keep)
        samples = x.copy()
        got = _summarize(samples, x.size, 5, 0.25, keep)
        same_summary(got, want)
        if keep:  # kept samples stay in trial order
            assert got.samples is samples and same_bits(samples, x)
        else:
            assert got.samples is None

    @pytest.mark.parametrize("keep", [False, True])
    def test_edges_below_zero_and_above_one(self, rng, keep):
        fill = rng.uniform(-0.1, 1.1, 8000 - EDGE_VALUES.size)
        self.check(rng.permutation(np.concatenate((EDGE_VALUES, fill))), keep)

    @pytest.mark.parametrize("keep", [False, True])
    def test_ties(self, rng, keep):
        self.check(rng.permutation(np.repeat(rng.random(40).round(2), 100)), keep)
        self.check(np.full(4000, 0.42), keep)
        self.check(np.repeat([0.25, 0.75], 500), keep)  # two equal modes: the first wins

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("value", [0.3, 0.0, 1.0, -0.2, 1.2, 0.001])
    def test_one_sample(self, keep, value):
        self.check(np.array([value]), keep)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(EDGE_VALUES.tolist()),
                              st.floats(-0.5, 1.5)), min_size=1, max_size=400),
           st.booleans())
    def test_any_samples(self, values, keep):
        x = np.array(values)
        if old_count_agrees(x.size):
            self.check(x, keep)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_poisson_results(self, chip, monkeypatch, threads):
        # 3 results summarised on the pool; small counts spread the samples
        monkeypatch.setenv("MMI_LAB_THREADS", threads)
        q = coincidence_quantum(chip, 0, 1).cross_only().values
        c = coincidence_classical(chip, 0, 1).cross_only().values
        theories = np.stack((q, c, np.ones(6)))
        counts = np.round(200 * q / q.sum())
        trials = _CHUNK + 1000
        assert old_count_agrees(trials)
        kept = poisson_mc_similarity(counts, theories, trials, seed=12, keep_samples=True)
        dropped = poisson_mc_similarity(counts, theories, trials, seed=12)
        judged = _run_chunks(trials, 12, oracle_poisson_chunk(counts, theories), rows=3)
        for k, d, w in zip(kept, dropped, judged):
            assert same_judged(k.samples, w) and d.samples is None
            want = oracle_summarize(k.samples, trials, 12, k.raw, False)
            same_summary(k, want)
            same_summary(d, want)

    @pytest.mark.parametrize("keep", [False, True])
    def test_random_baseline(self, chip, keep):
        q = coincidence_quantum(chip, 0, 1).values
        got = random_baseline(q, trials=20_001, seed=6, keep_samples=keep)
        samples = random_baseline(q, trials=20_001, seed=6).samples
        want = _run_chunks(20_001, 6, oracle_random_baseline_chunk(q, q.size))[0]
        assert same_judged(samples, want)
        same_summary(got, oracle_summarize(samples, 20_001, 6, None, False))
        assert same_bits(got.samples, samples) if keep else got.samples is None

    def test_hpd_interval(self, rng):
        for n in (1, 2, 100, 2000, 4001):
            x = rng.normal(size=n)
            assert old_count_agrees(n) and hpd_interval(x) == oracle_hpd_interval(x)
        with pytest.raises(ValueError, match="empty"):
            hpd_interval([])


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
        want = shared_draw_oracle(co.dtau_ns, list(zip(co.pair_k.tolist(), co.pair_l.tolist())),
                                  q, c, trials=5000, seed=3)
        assert len(want) >= 5
        assert windows(got) == want
