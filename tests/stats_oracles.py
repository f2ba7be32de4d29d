"""Reference implementations of the similarity, mode, pair-labelling and
resampling code.

These are the original loops and inline formulas that the single
implementations in ``mmi_lab.stats`` and ``mmi_lab.core`` replaced, kept
verbatim as oracles: both must give bit-identical output on the same input.
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


def oracle_rand_vs_rand_chunk(rng, size, dims):
    """One chunk of ``random_baseline(None)`` with its inline formula."""
    draws = rng.exponential(size=(size, dims))
    other = rng.exponential(size=(size, dims))
    num = np.sqrt(draws * other).sum(axis=1)
    den = np.sqrt(draws.sum(axis=1) * other.sum(axis=1))
    return num / den


def oracle_mode(samples, bin_width=MODE_BIN_WIDTH):
    """Centre of the densest bin of a second, separately built histogram."""
    counts, edges = np.histogram(np.clip(samples, 0.0, 1.0),
                                 bins=int(round(1.0 / bin_width)), range=(0.0, 1.0))
    i = int(np.argmax(counts))
    return float(0.5 * (edges[i] + edges[i + 1]))


def _similarity_rows(draws: np.ndarray, q: np.ndarray) -> np.ndarray:
    num = np.sqrt(draws * q).sum(axis=1)
    den = np.sqrt(draws.sum(axis=1) * q.sum(axis=-1))
    with np.errstate(invalid="ignore"):
        s = num / den
    return np.nan_to_num(s, nan=0.0)


def oracle_poisson_chunk(counts, rows):
    """``poisson_mc_similarity``'s chunk function before the row blocks: one
    Poisson draw for the whole chunk, judged against each row of ``rows``."""
    def chunk(rng, out):
        draws = rng.poisson(lam=counts, size=(out.shape[1], counts.size)).astype(float)
        for row, q in zip(out, rows):
            row[:] = _similarity_rows(draws, q)

    return chunk


def oracle_similarity_rows(draws: np.ndarray, theories, out: np.ndarray) -> None:
    """``stats._similarity_rows`` before the cell-major blocks: trial-major
    ``draws`` summed along each row by numpy."""
    sums = draws.sum(axis=1)
    prod = np.empty_like(draws)
    for row, q in zip(out, theories):
        np.multiply(draws, q, out=prod)
        np.sqrt(prod, out=prod)
        prod.sum(axis=1, out=row)
        with np.errstate(invalid="ignore"):
            np.divide(row, np.sqrt(sums * q.sum(axis=-1)), out=row)
        np.nan_to_num(row, copy=False, nan=0.0)


def oracle_poisson_block_chunk(counts, rows):
    """``poisson_mc_similarity``'s chunk function before the cell-major
    blocks: each trial-major block cast to float and judged by
    :func:`oracle_similarity_rows`."""
    def chunk(rng, out):
        for a in range(0, out.shape[1], _BLOCK):
            block = out[:, a:a + _BLOCK]
            draws = rng.poisson(lam=counts, size=(block.shape[1], counts.size))
            oracle_similarity_rows(draws.astype(float), rows, block)

    return chunk


def oracle_random_baseline_chunk(th, dims):
    """``random_baseline``'s chunk function before the cell-major blocks."""
    def chunk(rng, out):
        size = out.shape[1]
        draws = rng.exponential(size=(size, dims))
        other = rng.exponential(size=(size, dims)) if th is None else th
        oracle_similarity_rows(draws, [other], out)

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
