"""Similarity metric and Monte-Carlo uncertainty quantification.

The similarity between two non-negative distributions,

    S = sum_i sqrt(p_i q_i) / sqrt(sum_i p_i * sum_i q_i),

is the classical fidelity normalised for distributions that do not sum
to one; it is invariant under rescaling of either argument.  Credible
intervals on measured similarities are obtained by resampling each
channel count from the Poissonian that most likely produced it and
taking the highest-posterior-density interval of the resampled S
values.  Judged against several theories at once, the counts are
resampled once and every theory sees the same draws (common random
numbers), so each theory's result carries the one seed of those draws.
Random-distribution baselines give the context for how discriminating a
given similarity level actually is.

Resampling runs in two units.  A *chunk* (``_CHUNK`` trials) is the unit of
seeding and of work: its generator derives from (seed, chunk index), so
chunks may run on any thread in any order with the same result.  A *block*
(``_BLOCK`` trials) is the unit of memory: inside a chunk the Poisson
trials are drawn and judged a block at a time from the chunk's generator,
which fills them in C order, so the values are those of one draw for the
whole chunk while the temporaries are a block's.

A block is judged cell-major: its draws are copied once into an array with
one row per cell and one column per trial, so every multiply, square root
and sum runs over whole rows.  numpy is slow to reduce the short axis of a
trial-major block; the row sums are written out instead, in numpy's own
pairwise order (``_pairwise_sum``), so every sample keeps the bits of a
trial-major ``sum(axis=1)``.  ``rng.poisson`` releases the GIL, so the
threads of the chunk pool overlap the draws as well as the judging.  Each
result is then summarised from one sort of its samples, on the same pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import cross_pair_index
from .instrument import ConfigError

MODE_BIN_WIDTH = 0.001  # 0.1 percentage points
_CHUNK = 1 << 17  # trials per seeded generator
_BLOCK = 1 << 14  # trials per Poisson draw within a chunk
_EDGES = np.linspace(0.0, 1.0, int(round(1.0 / MODE_BIN_WIDTH)) + 1)  # histogram bins


def similarity(p, q):
    """Normalised classical fidelity between two non-negative vectors, or
    between ``p`` and each row of an ``(m, n)`` array ``q``."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim not in (1, 2) or q.shape[-1] != p.size:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("similarity arguments must be non-negative")
    sp, sq = p.sum(), q.sum(axis=-1)
    if sp <= 0 or np.any(sq <= 0):
        raise ValueError("similarity arguments must have positive sums")
    # square roots first: the plain product can underflow for tiny sums
    s = (np.sqrt(p) * np.sqrt(q)).sum(axis=-1) / (np.sqrt(sp) * np.sqrt(sq))
    return float(s) if q.ndim == 1 else s


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum the rows of ``a`` into ``a[0]`` in place and return that row.

    Each column gets the bits that numpy's ``sum`` gives for a contiguous
    run of its values, so a cell-major block sums as its trial-major rows
    did.  numpy sums such a run pairwise: sequentially below 8 values; up
    to 128 values in eight interleaved accumulators, combined as
    ``((0+1)+(2+3))+((4+5)+(6+7))`` before the tail; above that, as two
    halves split at ``n // 2`` rounded down to a multiple of 8.
    """
    n = a.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _pairwise_sum(a[:half])
        total += _pairwise_sum(a[half:])
        return total
    head = 1
    if n >= 8:
        head = n - n % 8
        for i in range(8, head, 8):
            a[:8] += a[i:i + 8]
        a[0:8:2] += a[1:8:2]
        a[0:8:4] += a[2:8:4]
        a[0] += a[4]
    for i in range(head, n):
        a[0] += a[i]
    return a[0]


# Kept apart from similarity(): its square-roots-first form would move the
# frozen Monte-Carlo realisations of acceptance criteria 7 and 8 by ulps.
def _similarity_rows(draws: np.ndarray, theories, out: np.ndarray,
                     prod: np.ndarray) -> None:
    """Write into ``out[k]`` the similarity of each trial to ``theories[k]``.

    ``draws`` is cell-major, one row per cell and one column per trial, and
    is summed in place last; a theory is a vector or a cell-major array with
    one column per trial; ``prod`` is scratch of the shape of ``draws``.
    """
    for row, q in zip(out, theories):
        np.multiply(draws, q[:, None] if q.ndim == 1 else q, out=prod)
        np.sqrt(prod, out=prod)
        row[:] = _pairwise_sum(prod)
    sums = _pairwise_sum(draws)
    for row, q in zip(out, theories):
        q_sum = q.sum() if q.ndim == 1 else _pairwise_sum(q.copy())
        with np.errstate(invalid="ignore"):
            np.divide(row, np.sqrt(sums * q_sum), out=row)
        row[np.isnan(row)] = 0.0  # 0/0, from an all-zero draw or theory


def _hpd_window(x: np.ndarray) -> tuple[float, float]:
    """Shortest window of the sorted samples ``x`` that holds 68% of them."""
    n = x.size
    m = (68 * n + 99) // 100  # the fewest samples that are 68% or more
    widths = x[m - 1:] - x[:n - m + 1]
    i = int(np.argmin(widths))
    return float(x[i]), float(x[i + m - 1])


def hpd_interval(samples) -> tuple[float, float]:
    """Shortest contiguous interval containing at least 68% of the samples."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample set")
    return _hpd_window(x)


def max_threads() -> int:
    """Worker cap from the MMI_LAB_THREADS environment variable (default 1)."""
    value = os.environ.get("MMI_LAB_THREADS", "1")
    if not (value.isascii() and value.isdigit() and int(value) > 0):
        raise ConfigError(f"MMI_LAB_THREADS must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimilarityResult:
    """Most-likely similarity with credible interval from resampling.

    ``mode`` is the densest 0.1-percentage-point histogram bin of the
    resampled similarities; ``raw`` is the similarity of the unsampled
    input counts themselves (None for random baselines).  The two need
    not agree: normalising inside S couples the channel fluctuations.
    """

    mode: float
    hpd68: tuple[float, float]
    mean: float
    histogram: np.ndarray
    n_trials: int
    seed: int
    raw: float | None = None
    samples: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        d = {
            "mode": self.mode,
            "hpd68": [self.hpd68[0], self.hpd68[1]],
            "mean": self.mean,
            "n_trials": self.n_trials,
            "seed": self.seed,
        }
        if self.raw is not None:
            d["raw"] = self.raw
        return d

    def histogram_csv(self) -> str:
        """Plot-ready ``similarity,count`` rows of the resampled histogram."""
        lines = ["similarity,count"]
        for b, count in enumerate(self.histogram):
            if count:
                center = (b + 0.5) * MODE_BIN_WIDTH
                lines.append(f"{center:.4f},{int(count)}")
        return "\n".join(lines) + "\n"


_worker = threading.local()


def _ordered_map(fn, items) -> list:
    """``[fn(x) for x in items]`` on up to ``max_threads()`` threads.

    Results keep the order of ``items``.  A call from inside a worker runs
    serially, so there is never a pool inside a pool and never more than
    MMI_LAB_THREADS threads at work.
    """
    items = list(items)
    workers = min(max_threads(), len(items))
    if workers < 2 or getattr(_worker, "busy", False):
        return [fn(x) for x in items]

    def work(x):
        _worker.busy = True
        return fn(x)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, items))


def _run_chunks(trials: int, seed: int, chunk_fn, rows: int = 1) -> np.ndarray:
    """Fill a ``(rows, trials)`` array chunk by chunk: ``chunk_fn(rng, out)``
    writes one chunk's columns into the view ``out``.

    Each chunk's generator is derived from (seed, chunk index), so results
    are bit-identical no matter how many threads execute the chunks.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    out = np.empty((rows, trials))

    def one(idx):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        chunk_fn(rng, out[:, idx * _CHUNK:(idx + 1) * _CHUNK])

    _ordered_map(one, range(-(-trials // _CHUNK)))
    return out


def _summarize(samples: np.ndarray, trials: int, seed: int, raw: float | None,
               keep_samples: bool) -> SimilarityResult:
    """Histogram, mode, HPD68 and mean of one result's samples, read from one
    sorted array: a sorted copy when the samples are kept (they stay in trial
    order), else ``samples`` itself, sorted in place."""
    mean = float(samples.mean())  # before the sort: the sum follows trial order
    x = samples.copy() if keep_samples else samples
    x.sort()
    # bin b holds _EDGES[b] <= x < _EDGES[b + 1], the first bin everything
    # below and the last everything above: np.histogram of the clipped samples
    histogram = np.diff(np.searchsorted(x, _EDGES[1:-1]), prepend=0, append=x.size)
    b = int(np.argmax(histogram))
    return SimilarityResult(
        mode=float(0.5 * (_EDGES[b] + _EDGES[b + 1])),
        hpd68=_hpd_window(x),
        mean=mean,
        histogram=histogram,
        n_trials=trials,
        seed=seed,
        raw=raw,
        samples=samples if keep_samples else None,
    )


def poisson_mc_similarity(counts, theory, trials: int = 1_000_000, seed: int = 0,
                          keep_samples: bool = False
                          ) -> SimilarityResult | list[SimilarityResult]:
    """Resample measured channel counts Poissonially and collect the
    similarity to ``theory`` for every trial.

    Each trial draws ``n_i ~ Poisson(N_i)`` independently, with the measured
    count ``N_i`` as the most likely Poissonian mean.  ``theory`` may also
    be an ``(m, n)`` array of m predictions: each trial's draw is then
    shared, judged against every row, and one result per row comes back in
    row order.  Every result's ``seed`` is the call's ``seed``, and row k's
    result equals a call with ``theory[k]`` alone at that seed.
    """
    counts = np.asarray(counts, dtype=float)
    theory = np.asarray(theory, dtype=float)
    rows = np.atleast_2d(theory)
    if counts.ndim != 1 or theory.ndim not in (1, 2) or rows.shape[1] != counts.size:
        raise ValueError("counts and theory must have equal length")
    if counts.sum() <= 0:
        raise ValueError("all-zero counts cannot be resampled")
    raws = [similarity(counts, q) for q in rows]

    def chunk(rng, out):
        # one draw per block: numpy fills draws in C order, so the blocks
        # take the same values as one draw for the whole chunk
        cells = np.empty((counts.size, min(_BLOCK, out.shape[1])))
        prod = np.empty_like(cells)
        for a in range(0, out.shape[1], _BLOCK):
            block = out[:, a:a + _BLOCK]
            b = block.shape[1]
            draws = rng.poisson(lam=counts, size=(b, counts.size))
            np.copyto(cells[:, :b], draws.T, casting="unsafe")
            _similarity_rows(cells[:, :b], rows, block, prod[:, :b])

    samples = _run_chunks(trials, seed, chunk, rows=len(rows))
    results = _ordered_map(lambda k: _summarize(samples[k], trials, seed, raws[k], keep_samples),
                           range(len(rows)))
    return results if theory.ndim == 2 else results[0]


def random_baseline(theory=None, dims: int = 6, trials: int = 1_000_000, seed: int = 0,
                    keep_samples: bool = True) -> SimilarityResult:
    """Similarity of distributions drawn evenly from the ``dims``-dimensional
    space of distributions, against ``theory`` (or against a second random
    draw when ``theory`` is None).

    Even sampling means uniform on the probability simplex, realised as
    i.i.d. unit-exponential entries (the similarity is scale invariant, so
    no explicit normalisation is needed).
    """
    if dims < 2:
        raise ValueError("need at least 2 dimensions")
    th = None if theory is None else np.asarray(theory, dtype=float)
    if th is not None and th.size != dims:
        dims = th.size

    def chunk(rng, out):
        size = out.shape[1]
        draws = np.ascontiguousarray(rng.exponential(size=(size, dims)).T)
        other = rng.exponential(size=(size, dims)).T if th is None else th
        _similarity_rows(draws, [other], out, np.empty_like(draws))

    samples = _run_chunks(trials, seed, chunk)[0]
    return _summarize(samples, trials, seed, None, keep_samples)


def exceedance_probability(baseline: SimilarityResult,
                           interval: tuple[float, float]) -> float:
    """Fraction of baseline similarities at or above the interval's lower edge.

    Quantifies the chance that a random distribution performs within or
    beyond the credible interval of a measured result.  The baseline must
    keep its samples (``keep_samples=True``).
    """
    lo, hi = interval
    if not 0.0 <= lo <= 1.0 + 1e-12 or hi < lo:
        raise ValueError(f"invalid interval ({lo}, {hi})")
    if baseline.samples is None:
        raise ValueError("baseline was built without samples (keep_samples=False)")
    return float(np.mean(baseline.samples >= lo))


@dataclass(frozen=True)
class WindowedSimilarity:
    center: float
    n_events: int
    vs_quantum: SimilarityResult
    vs_classical: SimilarityResult


def similarity_vs_dt(dtau_ns, pair_labels, theory_quantum, theory_classical,
                     n_modes: int = 4, half_window: float = 25.0,
                     trials: int = 100_000, seed: int = 0,
                     min_events: int = 5) -> list[WindowedSimilarity]:
    """Time-resolved similarity of cross-detector coincidences.

    Slides a window of +/- ``half_window``, in steps of ``half_window / 2.5``
    from 0 to the largest |dtau|, over the absolute detection time
    difference, counts the events' detector pairs (``pair_labels``: pairs or
    an ``(m, 2)`` array) per cross channel inside each window, and resamples
    them against the interfering and non-interfering predictions, which
    share each window's draws.  Windows with fewer than ``min_events``
    events are omitted; the rest run on up to MMI_LAB_THREADS threads.
    """
    dtau = np.abs(np.asarray(dtau_ns, dtype=float))
    if dtau.size == 0:
        raise ValueError("no coincidence events supplied")
    pairs = np.asarray(pair_labels, dtype=int)
    if pairs.shape != (dtau.size, 2):
        raise ValueError(f"expected {dtau.size} detector pairs, got shape {pairs.shape}")
    k, l = np.sort(pairs, axis=1).T
    # -1 for same-detector and out-of-range pairs
    labels = np.where((0 <= k) & (k < l) & (l < n_modes),
                      cross_pair_index(k, l, n_modes), -1)
    n_cross = n_modes * (n_modes - 1) // 2
    tq = np.asarray(theory_quantum, dtype=float)
    tc = np.asarray(theory_classical, dtype=float)
    if tq.size != n_cross or tc.size != n_cross:
        raise ValueError("theories must be cross-detector vectors")
    theories = np.stack((tq, tc))
    centers = np.arange(0.0, float(dtau.max()) + half_window, half_window / 2.5)
    windows = []
    for w, center in enumerate(centers):
        lo = max(0.0, center - half_window)
        hi = center + half_window
        sel = (dtau >= lo) & (dtau <= hi) & (labels >= 0)
        n = int(sel.sum())
        if n >= min_events:
            windows.append((w, float(center), n,
                            np.bincount(labels[sel], minlength=n_cross).astype(float)))

    def judge(window):
        w, center, n, counts = window
        vs_quantum, vs_classical = poisson_mc_similarity(counts, theories, trials, seed + 2 * w)
        return WindowedSimilarity(center, n, vs_quantum, vs_classical)

    # each window draws from its own seed, so the thread count cannot matter
    return _ordered_map(judge, windows)
