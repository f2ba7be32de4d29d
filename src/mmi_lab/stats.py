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

A block is judged cell-major: its counts are drawn straight into an array
with one row per cell and one column per trial, so every square root,
multiply and sum runs over whole rows.  One kernel (``_judge``) judges every
similarity, ``similarity()`` included, in one defined order: square roots
first, then every sum over cells adds the cells in order, so a trial's
similarity has the same bits whether it is judged alone or in a block.
The Poisson counts are drawn by inversion: one uniform per trial and cell,
looked up in a per-call guide table (Chen & Asau 1974; Devroye 1986,
III.2.4) of each cell's CDF, fine enough that one gather gives nearly every
count, written cell-major; the few uniforms whose guide bucket holds a CDF
value take a few steps more.  The counts have the bits of
``np.searchsorted`` on the CDF.  Every pass is a numpy call that releases
the GIL, so the threads of the chunk pool overlap the draws as well as the
judging.  Each result is then summarised from one sort of its samples, on
the same pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._runtime import MAX_ELEMENTS, DataError, _ordered_map
from .core import cross_pair_index

MODE_BIN_WIDTH = 0.001  # 0.1 percentage points
_CHUNK = 1 << 17  # trials per seeded generator
_BLOCK = 1 << 14  # trials drawn and judged at once within a chunk
# HPD widths taken at once (32 KiB): blocks of 16,384 (128 KiB, glibc's
# default mmap threshold) raised the peak RSS of `analyze mmi` by 0.1 MB
_HPD_BLOCK = 1 << 12
_EDGES = np.linspace(0.0, 1.0, int(round(1.0 / MODE_BIN_WIDTH)) + 1)  # histogram bins
_CENTERS = 0.5 * (_EDGES[:-1] + _EDGES[1:])


def _distribution(x, ndims=(1,)) -> np.ndarray:
    """``x`` as a float array checked as a similarity argument: ``ndims``
    dimensions, finite non-negative entries and a positive sum in every
    vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in ndims:
        raise ValueError(f"shape mismatch: {x.shape} is not {' or '.join(f'{n}-D' for n in ndims)}")
    if not ((0 <= x) & (x < np.inf)).all():  # nan fails both
        raise ValueError("similarity arguments must be finite and non-negative")
    if (x.sum(axis=-1) <= 0).any():
        raise ValueError("similarity arguments must have positive sums")
    return x


def similarity(p, q):
    """Normalised classical fidelity between two non-negative vectors, or
    between ``p`` and each row of an ``(m, n)`` array ``q``."""
    p, q = _distribution(p), _distribution(q, ndims=(1, 2))
    if q.shape[-1] != p.size:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    s = np.empty((1, q.size // p.size))
    # p, copied for the kernel to overwrite, as one column per row of q
    _judge(p[:, None].copy(), q.reshape(-1, p.size).T[None], s)
    return float(s[0, 0]) if q.ndim == 1 else s[0]


def _cell_sum(a: np.ndarray) -> np.ndarray:
    """The rows of ``a`` added in order, so that a column's sum has the same
    bits however many columns ``a`` has."""
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def _judge(draws: np.ndarray, theories: np.ndarray, out: np.ndarray,
           term: np.ndarray | None = None) -> None:
    """Write into ``out[k]`` the similarity of each column of ``draws`` to
    ``theories[k]``: the one similarity kernel.

    ``draws`` and each theory, ``theories`` stacking one per row of ``out``,
    are cell-major, one row per cell and one column per trial; a theory has
    one column for every trial or one column per trial.  Square roots come first, since a plain product can underflow for
    tiny sums, and every sum over cells adds the rows in order: the
    numerators gather in ``out`` one cell's products at a time.  A zero
    numerator gives 0, so 0/0, from an all-zero column, is 0.  ``draws`` is
    overwritten with its square roots; ``term``, scratch of the shape of
    ``out``, is allocated when not given.
    """
    norms = _cell_sum(draws)
    np.sqrt(norms, out=norms)
    roots = np.sqrt(draws, out=draws)
    q_roots = np.sqrt(theories)
    if term is None:
        term = np.empty(out.shape)
    out[:] = 0.0  # 0 + x is x, and +0 for -0, so a zero numerator is +0
    for c in range(len(roots)):
        out += np.multiply(roots[c], q_roots[:, c], out=term)
    np.multiply(norms, np.sqrt(_cell_sum(theories.swapaxes(0, 1))), out=term)
    np.divide(out, term, out=out, where=out > 0)


def _hpd_window(x: np.ndarray) -> tuple[float, float]:
    """Shortest window of the sorted samples ``x`` that holds 68% of them, the
    first if several are: the widths are taken ``_HPD_BLOCK`` at a time, so
    the temporaries stay small, and a NaN width ends the search as
    ``argmin``'s first NaN."""
    n = x.size
    m = (68 * n + 99) // 100  # the fewest samples that are 68% or more
    i, narrowest = 0, np.inf
    for a in range(0, n - m + 1, _HPD_BLOCK):
        lo = x[a:min(a + _HPD_BLOCK, n - m + 1)]
        widths = x[a + m - 1:a + m - 1 + lo.size] - lo
        j = int(np.argmin(widths))
        if not widths[j] >= narrowest:
            i, narrowest = a + j, widths[j]
            if np.isnan(narrowest):
                break
    return float(x[i]), float(x[i + m - 1])


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
        for center, count in zip(_CENTERS, self.histogram):
            if count:
                lines.append(f"{center:.4f},{int(count)}")
        return "\n".join(lines) + "\n"


def _run_chunks(trials: int, seed: int, chunk_fn, rows: int = 1,
                spawn_key: tuple = ()) -> np.ndarray:
    """Fill a ``(rows, trials)`` array chunk by chunk: ``chunk_fn(rng, out)``
    writes one chunk's columns into the view ``out``.

    Chunk c's generator derives from ``SeedSequence(seed,
    spawn_key=(*spawn_key, c))``, so results are bit-identical no matter how
    many threads execute the chunks.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    out = np.empty((rows, trials))

    def one(idx):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*spawn_key, idx)))
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
        mode=float(_CENTERS[b]),
        hpd68=_hpd_window(x),
        mean=mean,
        histogram=histogram,
        n_trials=trials,
        seed=seed,
        raw=raw,
        samples=samples if keep_samples else None,
    )


@dataclass(frozen=True)
class _PoissonTable:
    """Inverse CDFs of Poisson(``counts[c]``), one per cell, for drawing counts
    by inversion with a guide table (Chen & Asau, AIIE Trans. 6, 163 (1974)).

    Cell c's CDF is ``cdf[edges[c]:edges[c + 1]]``: index i holds P(n <= i +
    shift[c]) over the counts within ``lam +/- (12 sqrt(lam) + 20)``,
    normalised by its last entry, which is then inf, so every uniform below 1
    lies below some entry.  Its guide is the ``scale[c]`` entries of
    ``guide`` from ``start[c]``, the least power of two at least 8 times the
    CDF's length, so that bucket g, the uniforms from ``g / scale[c]`` to the
    largest double below ``(g + 1) / scale[c]``, has exact edges.  Entry g is
    the bucket's count, as a float, when one count answers every uniform in
    it; when a CDF entry splits the bucket, it is the negative marker -1 - i,
    where i indexes ``cdf`` at the answer for the bucket's low edge.  The
    guides together hold at most ``MAX_ELEMENTS`` entries, so one cell's
    count is refused from about 1.2217e11, where its span reaches 2**23.
    """

    cdf: np.ndarray
    guide: np.ndarray
    scale: np.ndarray
    start: np.ndarray
    edges: np.ndarray
    shift: np.ndarray

    @classmethod
    def build(cls, counts: np.ndarray) -> _PoissonTable:
        spans = [(max(0, math.floor(lam - 12 * math.sqrt(lam) - 20)),
                  math.ceil(lam + 12 * math.sqrt(lam) + 20)) for lam in counts.tolist()]
        sizes = [1 << (8 * (hi - lo) + 7).bit_length() for lo, hi in spans]
        if sum(sizes) > MAX_ELEMENTS:
            raise DataError(f"counts up to {counts.max():g} are too large to resample: "
                            f"their inversion tables exceed {MAX_ELEMENTS} entries")
        cdfs, guide, offset = [], np.empty(sum(sizes)), 0
        starts = np.cumsum([0] + sizes[:-1])
        for lam, (lo, hi), size, start in zip(counts.tolist(), spans, sizes, starts.tolist()):
            k = np.arange(lo, hi + 1, dtype=float)
            mode = math.floor(lam) - lo
            # the pmf relative to the mode's, by the recurrence p_k = p_{k-1} lam / k
            below = np.cumprod(k[mode:0:-1] / lam)[::-1]
            above = np.cumprod(lam / k[mode + 1:])
            cdf = np.cumsum(np.concatenate((below, [1.0], above)))
            cdf /= cdf[-1]
            cdf[-1] = np.inf
            # bucket g, the uniforms from g / size to the largest double below
            # (g + 1) / size, has one answer unless a CDF entry lies between
            bounds = np.arange(size + 1) / size
            first = np.searchsorted(cdf, bounds[:-1], side="right")
            split = first != np.searchsorted(cdf, bounds[1:], side="left")
            entries = guide[start:start + size]
            entries[:] = first + lo
            entries[split] = -1 - offset - first[split]
            cdfs.append(cdf)
            offset += cdf.size
        edges = np.cumsum([0] + [c.size for c in cdfs])
        return cls(cdf=np.concatenate(cdfs), guide=guide, scale=np.array(sizes, dtype=float),
                   start=starts, edges=edges, shift=np.array([lo for lo, _ in spans]) - edges[:-1])

    def draw(self, u: np.ndarray, k: np.ndarray, cells: np.ndarray) -> None:
        """Write into ``cells`` the count each uniform of ``u`` inverts to: the
        cell's shift plus ``np.searchsorted`` of the uniform in the cell's
        CDF, ``side="right"``.

        ``u`` has one row per trial and one column per cell; ``cells`` and
        the index scratch ``k`` are C-contiguous and cell-major, one row per
        cell.  One gather of the guide gives nearly every count; the draws
        with a marker step right from it while the CDF entry is not above
        the uniform, and the few that two steps leave, in the tails that the
        first and last buckets span, are found by ``searchsorted``.
        """
        np.multiply(u.T, self.scale[:, None], out=k, casting="unsafe")  # truncated: the bucket
        k += self.start[:, None]
        # every index is in range; "clip" spares the copy of out that "raise" makes
        np.take(self.guide, k, out=cells, mode="clip")
        flat = np.flatnonzero(cells < 0)
        cell, trial = np.divmod(flat, cells.shape[1])
        v = u[trial, cell]
        j = (-1 - cells.reshape(-1)[flat]).astype(np.intp)
        for _ in range(2):
            j += self.cdf[j] <= v
        tail = np.flatnonzero(self.cdf[j] <= v)
        for c in np.flatnonzero(np.bincount(cell[tail], minlength=len(cells))):
            t = tail[cell[tail] == c]
            lo, hi = self.edges[c], self.edges[c + 1]
            j[t] = lo + np.searchsorted(self.cdf[lo:hi], v[t], side="right")
        cells.reshape(-1)[flat] = j + self.shift[cell]


def poisson_mc_similarity(counts, theory, trials: int = 1_000_000, seed: int = 0,
                          keep_samples: bool = False, spawn_key: tuple = ()
                          ) -> SimilarityResult | list[SimilarityResult]:
    """Resample measured channel counts Poissonially and collect the
    similarity to ``theory`` for every trial.

    Each trial draws ``n_i ~ Poisson(N_i)`` independently, with the measured
    count ``N_i`` as the most likely Poissonian mean, by inverting one
    uniform per trial and cell (:class:`_PoissonTable`); chunk c's uniforms
    come from ``SeedSequence(seed, spawn_key=(*spawn_key, c))``.  ``theory``
    may also be an ``(m, n)`` array of m predictions: each trial's draw is
    then shared, judged against every row, and one result per row comes back
    in row order.  Every result's ``seed`` is the call's ``seed``, and row
    k's result equals a call with ``theory[k]`` alone at that seed.
    """
    counts = np.asarray(counts, dtype=float)
    theory = np.asarray(theory, dtype=float)
    rows = np.atleast_2d(theory)
    if counts.ndim != 1 or theory.ndim not in (1, 2) or rows.shape[1] != counts.size:
        raise ValueError("counts and theory must have equal length")
    if counts.sum() <= 0:
        raise ValueError("all-zero counts cannot be resampled")
    raws = [similarity(counts, q) for q in rows]
    table = _PoissonTable.build(counts)

    def chunk(rng, out):
        # one uniform per trial and cell, drawn a block at a time: numpy fills
        # them in C order, so the blocks take the same values as one draw for
        # the whole chunk.  Three block buffers, allocated once per chunk,
        # serve every step: the uniforms, then the judge's scratch; the
        # cell-major counts; and the guide indices.
        n, size = counts.size, min(_BLOCK, out.shape[1])
        u = np.empty(max(n, len(rows)) * size)
        x, k = np.empty(n * size), np.empty(n * size, np.intp)
        for a in range(0, out.shape[1], _BLOCK):
            block = out[:, a:a + _BLOCK]
            b = block.shape[1]
            uniforms, cells = u[:b * n].reshape(b, n), x[:n * b].reshape(n, b)
            rng.random(out=uniforms)
            table.draw(uniforms, k[:n * b].reshape(n, b), cells)
            _judge(cells, rows[:, :, None], block, term=u[:block.size].reshape(block.shape))

    samples = _run_chunks(trials, seed, chunk, rows=len(rows), spawn_key=spawn_key)
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
    if theory is not None:
        theory = _distribution(theory)
        dims = theory.size
    if dims < 2:
        raise ValueError("need at least 2 dimensions")

    def chunk(rng, out):
        size = out.shape[1]
        draws = np.ascontiguousarray(rng.exponential(size=(size, dims)).T)
        other = rng.exponential(size=(size, dims)).T if theory is None else theory[:, None]
        _judge(draws, other[None], out)

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
    window: int  # w, the centre's index on the window grid: its draws' spawn key is (w,)


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
    share each window's draws.  Window w (counted from the centre 0, omitted
    windows included) resamples at ``seed`` with ``spawn_key=(w,)``, so its
    chunk c draws from ``SeedSequence(seed, spawn_key=(w, c))``.  Windows
    with fewer than ``min_events`` events are omitted; the rest run on up to
    MMI_LAB_THREADS threads.
    """
    dtau = np.abs(np.asarray(dtau_ns, dtype=float))
    if dtau.size == 0:
        raise ValueError("no coincidence events supplied")
    pairs = np.asarray(pair_labels, dtype=int)
    if pairs.shape != (dtau.size, 2):
        raise ValueError(f"expected {dtau.size} detector pairs, got shape {pairs.shape}")
    k, l = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
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
        vs_quantum, vs_classical = poisson_mc_similarity(counts, theories, trials, seed,
                                                         spawn_key=(w,))
        return WindowedSimilarity(center, n, vs_quantum, vs_classical, w)

    # each window draws from its own generators, so the thread count cannot matter
    return _ordered_map(judge, windows)
