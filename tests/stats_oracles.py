"""Reference implementations of the similarity, mode, pair-labelling and
resampling code.

These are the original loops and inline formulas that the single
implementations in ``mmi_lab.stats`` and ``mmi_lab.core`` replaced, kept
verbatim as oracles: both must give bit-identical output on the same input.
The Monte-Carlo judge's oracle is ``similarity()`` itself, applied trial by
trial to regenerated draws; the cell-major kernel that the one similarity
kernel replaced is kept verbatim to bound how far the two differ.
"""

from __future__ import annotations

import numpy as np

from mmi_lab.core import coincidence_classical, coincidence_quantum
from mmi_lab.stats import (_BLOCK, MODE_BIN_WIDTH, SimilarityResult, poisson_mc_similarity,
                           similarity)


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
    """``similarity_vs_dt`` labelling the pairs by dictionary lookup; returns
    ``(center, n_events, vs_quantum, vs_classical)`` rows of JSON dicts."""
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
        out.append((float(center), n,
                    poisson_mc_similarity(counts, tq, trials, seed + 2 * w).to_json_dict(),
                    poisson_mc_similarity(counts, tc, trials, seed + 2 * w + 1).to_json_dict()))
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


def oracle_poisson_chunk(counts, rows, every=False):
    """``poisson_mc_similarity``'s chunk function as one Poisson draw for the
    whole chunk, judged against each row of ``rows`` by
    :func:`judge_trials` at the :func:`picked_trials`."""
    def chunk(rng, out):
        draws = rng.poisson(lam=counts, size=(out.shape[1], counts.size))
        judge_trials(draws, rows, out, picked_trials(out.shape[1], every))

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
