"""Reference implementations of the similarity, mode, pair-labelling and
resampling code.

These are the original loops and inline formulas that the single
implementations in ``mmi_lab.stats`` and ``mmi_lab.core`` replaced, kept
verbatim as oracles: both must give bit-identical output on the same input.
The Monte-Carlo judge's oracle is ``similarity()`` itself, applied trial by
trial to regenerated draws; the cell-major kernel that the one similarity
kernel replaced is kept verbatim to bound how far the two differ.  The
Poisson counts' oracle is plain inversion of the same uniforms by
``np.searchsorted``; the ``rng.poisson`` chunk that inversion replaced is
kept verbatim, to compare the two samplers' distributions.  The first guided
inversion (a guide of about twice the CDF's length, holding CDF indices, and
two steps for every draw), the judge with its full product buffer and the
chunk that used them are kept verbatim too: the draws and samples of the
one-gather draw must have their bits.  ``_hpd_window``, which took every
window's width in one temporary, is kept verbatim: the bounded search must
pick the same window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mmi_lab._runtime import MAX_ELEMENTS
from mmi_lab.core import coincidence_classical, coincidence_quantum
from mmi_lab.stats import (_BLOCK, MODE_BIN_WIDTH, SimilarityResult, _cell_sum, _judge,
                           _PoissonTable, poisson_mc_similarity, similarity)


def oracle_fit_visibility(measured, matrix, i, j, grid_step=0.001):
    """``fit_visibility`` as one ``similarity`` call per grid point, keeping
    the first strict maximum."""
    counts = np.asarray(measured.values, dtype=float)
    q = coincidence_quantum(matrix, i, j, renormalized=True)
    c = coincidence_classical(matrix, i, j, renormalized=True)
    if measured.cross_detector_only:
        q_vals, c_vals = q.cross_only().values, c.cross_only().values
    else:
        q_vals, c_vals = q.values, c.values
    grid = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    best_v, best_s = 0.0, -1.0
    for v in grid:
        s = similarity(counts, v * q_vals + (1.0 - v) * c_vals)
        if s > best_s:
            best_v, best_s = float(v), float(s)
    return best_v, best_s


def oracle_similarity_vs_dt(dtau_ns, pair_labels, theory_quantum, theory_classical,
                            n_modes=4, half_window=25.0, trials=100_000, seed=0,
                            min_events=5):
    """``similarity_vs_dt`` labelling the pairs by dictionary lookup and
    resampling each theory alone at ``seed`` with window w's spawn key
    ``(w,)``; returns ``(center, n_events, vs_quantum, vs_classical)`` rows
    of JSON dicts."""
    dtau = np.abs(np.asarray(dtau_ns, dtype=float))
    cross_pairs = [(k, l) for k in range(n_modes) for l in range(k + 1, n_modes)]
    index = {p: c for c, p in enumerate(cross_pairs)}
    labels = np.array([index.get((min(k, l), max(k, l)), -1) for k, l in pair_labels])
    tq = np.asarray(theory_quantum, dtype=float)
    tc = np.asarray(theory_classical, dtype=float)
    centers = np.arange(0.0, float(dtau.max()) + half_window, half_window / 2.5)
    out = []
    for w, center in enumerate(centers):
        lo = max(0.0, center - half_window)
        hi = center + half_window
        sel = (dtau >= lo) & (dtau <= hi) & (labels >= 0)
        n = int(sel.sum())
        if n < min_events:
            continue
        counts = np.bincount(labels[sel], minlength=len(cross_pairs)).astype(float)
        vs_q, vs_c = (poisson_mc_similarity(counts, t, trials, seed, spawn_key=(w,))
                      for t in (tq, tc))
        out.append((float(center), n, vs_q.to_json_dict(), vs_c.to_json_dict()))
    return out


def oracle_mode(samples, bin_width=MODE_BIN_WIDTH):
    """Centre of the densest bin of a second, separately built histogram."""
    counts, edges = np.histogram(np.clip(samples, 0.0, 1.0),
                                 bins=int(round(1.0 / bin_width)), range=(0.0, 1.0))
    i = int(np.argmax(counts))
    return float(0.5 * (edges[i] + edges[i + 1]))


def picked_trials(size: int, every: bool) -> np.ndarray:
    """The trials of a chunk of ``size`` that the oracles judge: the first
    and last trial of every block, so both sides of every block and chunk
    boundary, and with ``every`` each trial of the first block as well."""
    starts = np.arange(0, size, _BLOCK)
    ends = np.minimum(starts + _BLOCK, size) - 1
    first_block = np.arange(min(_BLOCK, size) if every else 0)
    return np.unique(np.concatenate((starts, ends, first_block)))


def judge_trials(draws: np.ndarray, theories, out: np.ndarray, picks) -> None:
    """Write into ``out[k, t]``, for each trial ``t`` in ``picks``, the
    ``similarity()`` of the trial-major draw ``draws[t]`` to ``theories[k]``
    (a vector, or one vector per trial), and 0 for an all-zero draw; every
    other entry of ``out`` is nan."""
    out[:] = np.nan
    for t in picks:
        for row, q in zip(out, theories):
            row[t] = similarity(draws[t], q if q.ndim == 1 else q[t]) if draws[t].sum() > 0 else 0.0


def oracle_poisson_draws(table, u):
    """Poisson counts for the uniforms ``u`` (one row per trial, one column per
    cell) by plain inversion: ``np.searchsorted`` in each cell's CDF of
    ``table`` (a ``stats._PoissonTable``)."""
    draws = np.empty(u.shape, dtype=np.int64)
    for c in range(u.shape[1]):
        lo, hi = table.edges[c], table.edges[c + 1]
        draws[:, c] = (np.searchsorted(table.cdf[lo:hi], u[:, c], side="right")
                       + lo + table.shift[c])
    return draws


def oracle_poisson_chunk(counts, rows, every=False):
    """``poisson_mc_similarity``'s chunk function as one draw of uniforms for
    the whole chunk, inverted by :func:`oracle_poisson_draws` and judged
    against each row of ``rows`` by :func:`judge_trials` at the
    :func:`picked_trials`."""
    table = _PoissonTable.build(np.asarray(counts, dtype=float))

    def chunk(rng, out):
        draws = oracle_poisson_draws(table, rng.random((out.shape[1], len(counts))))
        judge_trials(draws, rows, out, picked_trials(out.shape[1], every))

    return chunk


def replaced_poisson_chunk(counts, rows):
    """``poisson_mc_similarity``'s chunk function before the counts were drawn
    by inversion, verbatim: numpy's ``rng.poisson`` (transformed rejection,
    Hoermann 1993, from a mean of 10 up) a block at a time."""
    def chunk(rng, out):
        # one draw per block: numpy fills draws in C order, so the blocks
        # take the same values as one draw for the whole chunk
        cells = np.empty((counts.size, min(_BLOCK, out.shape[1])))
        for a in range(0, out.shape[1], _BLOCK):
            block = out[:, a:a + _BLOCK]
            b = block.shape[1]
            draws = rng.poisson(lam=counts, size=(b, counts.size))
            np.copyto(cells[:, :b], draws.T, casting="unsafe")
            _judge(cells[:, :b], rows[:, :, None], block)

    return chunk


# The first guided inversion and the judge with a full product buffer,
# verbatim but for their names, and the chunk function that used them.
def replaced_judge(draws: np.ndarray, theories, out: np.ndarray,
                   prod: np.ndarray | None = None) -> None:
    """Write into ``out[k]`` the similarity of each column of ``draws`` to
    ``theories[k]``: the one similarity kernel.

    Arrays are cell-major, one row per cell and one column per trial; a
    theory has one column for every trial or one column per trial.  Square
    roots come first, since a plain product can underflow for tiny sums, and
    every sum over cells adds the rows in order.  A zero numerator gives 0,
    so 0/0, from an all-zero column, is 0.  ``draws`` is overwritten with
    its square roots; ``prod``, scratch of the shape of ``draws`` and the
    theories broadcast together, is allocated when not given.
    """
    norms = np.sqrt(_cell_sum(draws))
    roots = np.sqrt(draws, out=draws)
    if prod is None:
        prod = np.empty(np.broadcast(draws, theories[0]).shape)
    for row, q in zip(out, theories):
        num = _cell_sum(np.multiply(roots, np.sqrt(q), out=prod))
        row[:] = 0.0
        np.divide(num, norms * np.sqrt(_cell_sum(q)), out=row, where=num > 0)


@dataclass(frozen=True)
class ReplacedPoissonTable:
    """Inverse CDFs of Poisson(``counts[c]``), one per cell, for drawing counts
    by inversion with a guide table (Chen & Asau, AIIE Trans. 6, 163 (1974)).

    Cell c's CDF is ``cdf[edges[c]:edges[c + 1]]``: index i holds P(n <= i +
    shift[c]) over the counts within ``lam +/- (12 sqrt(lam) + 20)``,
    normalised by its last entry, which is then inf, so every uniform below 1
    lies below some entry.  Its guide is the ``scale[c]`` entries of
    ``guide`` from ``start[c]``, a power of two at least twice the CDF's
    length, so that ``g / scale[c]`` is exact: entry g is the index into
    ``cdf`` of the cell's first entry above ``g / scale[c]``, held as a float
    so that the float scratch of :meth:`invert` can take it.
    """

    cdf: np.ndarray
    guide: np.ndarray
    scale: np.ndarray
    start: np.ndarray
    edges: np.ndarray
    shift: np.ndarray

    @classmethod
    def build(cls, counts: np.ndarray) -> ReplacedPoissonTable:
        spans = [(max(0, math.floor(lam - 12 * math.sqrt(lam) - 20)),
                  math.ceil(lam + 12 * math.sqrt(lam) + 20)) for lam in counts.tolist()]
        sizes = [1 << (2 * (hi - lo) + 1).bit_length() for lo, hi in spans]
        if sum(sizes) > MAX_ELEMENTS:
            raise ValueError(f"counts up to {counts.max():g} are too large to resample: "
                             f"their inversion tables exceed {MAX_ELEMENTS} entries")
        cdfs, guides, offset = [], [], 0
        for lam, (lo, hi), size in zip(counts.tolist(), spans, sizes):
            k = np.arange(lo, hi + 1, dtype=float)
            mode = math.floor(lam) - lo
            # the pmf relative to the mode's, by the recurrence p_k = p_{k-1} lam / k
            below = np.cumprod(k[mode:0:-1] / lam)[::-1]
            above = np.cumprod(lam / k[mode + 1:])
            cdf = np.cumsum(np.concatenate((below, [1.0], above)))
            cdf /= cdf[-1]
            cdf[-1] = np.inf
            guides.append(np.searchsorted(cdf, np.arange(size) / size, side="right") + offset)
            cdfs.append(cdf)
            offset += cdf.size
        edges = np.cumsum([0] + [c.size for c in cdfs])
        return cls(cdf=np.concatenate(cdfs), guide=np.concatenate(guides).astype(float),
                   scale=np.array(sizes, dtype=float), start=np.cumsum([0] + sizes[:-1]),
                   edges=edges, shift=np.array([lo for lo, _ in spans]) - edges[:-1])

    def invert(self, u: np.ndarray, k: np.ndarray, x: np.ndarray, short: np.ndarray) -> None:
        """Write into ``k`` the index into ``cdf`` of the first entry of each
        uniform's cell's CDF above it: ``np.searchsorted`` of the uniform in
        that CDF, ``side="right"``.

        ``u`` has one row per trial and one column per cell; ``x`` and
        ``short`` are scratch of its shape.  A uniform's guide entry is at or
        left of its answer, so two steps right while the entry is not above
        the uniform finish nearly every draw; the rest, in the tails that the
        first and last guide entries span, are found by ``searchsorted``.
        """
        np.multiply(u, self.scale, out=k, casting="unsafe")  # truncated: the guide entry
        k += self.start
        # every index is in range; "clip" spares the copy of out that "raise" makes
        np.take(self.guide, k, out=x, mode="clip")
        np.copyto(k, x, casting="unsafe")
        for _ in range(2):
            np.take(self.cdf, k, out=x, mode="clip")
            k += np.less_equal(x, u, out=short)
        np.take(self.cdf, k, out=x, mode="clip")
        trial, cell = np.nonzero(np.less_equal(x, u, out=short))
        for c in np.flatnonzero(np.bincount(cell, minlength=u.shape[1])):
            t = trial[cell == c]
            lo, hi = self.edges[c], self.edges[c + 1]
            k[t, c] = lo + np.searchsorted(self.cdf[lo:hi], u[t, c], side="right")


def replaced_guided_chunk(counts, rows):
    """``poisson_mc_similarity``'s chunk function before each count was one
    gather, verbatim: :class:`ReplacedPoissonTable` and :func:`replaced_judge`."""
    counts = np.asarray(counts, dtype=float)
    table = ReplacedPoissonTable.build(counts)

    def chunk(rng, out):
        # one uniform per trial and cell, drawn a block at a time: numpy fills
        # them in C order, so the blocks take the same values as one draw for
        # the whole chunk.  Three block buffers, allocated once per chunk,
        # serve every step: the uniforms, then the judge's products; the CDF
        # values, then the cell-major counts; and the CDF indices.
        shape = (min(_BLOCK, out.shape[1]), counts.size)
        u, x, k = np.empty(shape), np.empty(shape), np.empty(shape, np.intp)
        short = np.empty(shape, bool)
        for a in range(0, out.shape[1], _BLOCK):
            block = out[:, a:a + _BLOCK]
            b = block.shape[1]
            rng.random(out=u[:b])
            table.invert(u[:b], k[:b], x[:b], short[:b])
            cells = x[:b].reshape(-1, b)
            np.add(k[:b].T, table.shift[:, None], out=cells, casting="unsafe")
            replaced_judge(cells, rows[:, :, None], block, prod=u[:b].reshape(-1, b))

    return chunk


def oracle_random_baseline_chunk(th, dims, every=False):
    """``random_baseline``'s chunk function with its draws judged by
    :func:`judge_trials` at the :func:`picked_trials`."""
    def chunk(rng, out):
        size = out.shape[1]
        draws = rng.exponential(size=(size, dims))
        other = rng.exponential(size=(size, dims)) if th is None else th
        judge_trials(draws, [other], out, picked_trials(size, every))

    return chunk


def _hpd_window(x: np.ndarray) -> tuple[float, float]:
    """Shortest window of the sorted samples ``x`` that holds 68% of them."""
    n = x.size
    m = (68 * n + 99) // 100  # the fewest samples that are 68% or more
    widths = x[m - 1:] - x[:n - m + 1]
    i = int(np.argmin(widths))
    return float(x[i]), float(x[i + m - 1])


def oracle_hpd_interval(samples) -> tuple[float, float]:
    """``stats.hpd_interval`` before it shared the window with the summary:
    its own sort and the rounded-up float 68% count."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample set")
    m = int(np.ceil(0.68 * n))
    widths = x[m - 1:] - x[:n - m + 1]
    i = int(np.argmin(widths))
    return float(x[i]), float(x[i + m - 1])


def oracle_summarize(samples: np.ndarray, trials: int, seed: int, raw: float | None,
                     keep_samples: bool) -> SimilarityResult:
    """``stats._summarize`` before the one in-place sort: ``np.histogram`` of
    the clipped samples and a second sort for the HPD interval."""
    histogram, edges = np.histogram(np.clip(samples, 0.0, 1.0),
                                    bins=int(round(1.0 / MODE_BIN_WIDTH)), range=(0.0, 1.0))
    b = int(np.argmax(histogram))
    return SimilarityResult(
        mode=float(0.5 * (edges[b] + edges[b + 1])),
        hpd68=oracle_hpd_interval(samples),
        mean=float(samples.mean()),
        histogram=histogram,
        n_trials=trials,
        seed=seed,
        raw=raw,
        samples=samples if keep_samples else None,
    )


# The cell-major judging kernel that the one similarity kernel replaced,
# with numpy's pairwise summation order written out.
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
