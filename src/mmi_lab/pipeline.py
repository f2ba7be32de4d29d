"""Simulation and analysis pipelines: configs, streams, matrices and fringe
data in; streams, reports and tables out.

Each pipeline returns ``(report, tables)``: ``report`` is the JSON-ready
result and ``tables`` maps an output file name to its exact text (CSV
tables keep the csv module's ``\\r\\n`` line endings); ``predict`` returns
its one table's text, and :func:`simulate` a run's stream, truth record and
manifest.  Nothing here reads or writes files; the command-line front end
does that.  Unusable data raises :class:`~mmi_lab._runtime.DataError` and
an unusable setting :class:`~mmi_lab._runtime.ConfigError`, whose subclass
``ModeIndexError`` marks an input pair the matrix does not have.

Reports and the ``simulate`` manifest open with :func:`with_header`'s keys, in
order: ``schema`` (``<kind>/1``), ``config_hash`` (not characterize, predict),
``seed`` (mmi, timeresolved, manifest), ``input_pair`` (1-based: mmi, timeresolved, predict).
"""

from __future__ import annotations

import csv
import io
from dataclasses import fields

import numpy as np

from ._runtime import ConfigError, DataError, check_size
from .characterize import (MAX_NOISE_SD, FringeDataset, reconstruct_matrix, reconstruct_trials,
                           simulate_fringes, simulate_trials)
from .config import ExperimentConfig
from .core import (DegenerateDistributionError, ModeIndexError, coincidence_classical,
                   coincidence_mixture, coincidence_quantum, fit_visibility)
from .instrument import expected_pair_rate, simulate_run
from .matrix import TransferMatrix, gauge_fix
from .stats import poisson_mc_similarity, similarity, similarity_vs_dt
from .tagstream import (TimeTagStream, _half_bins, _side_peaks, cross_correlate,
                        deadtime_correction, extract_coincidences, g2_zero, median_sorted,
                        quantile_sorted, sliding_histogram)

__all__ = ["ModeIndexError", "analyze_g2", "analyze_hom", "analyze_mmi", "analyze_timeresolved",
           "characterize", "csv_text", "predict", "simulate", "with_header"]


def csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def with_header(kind: str, cfg: ExperimentConfig | None, body: dict, seed: int | None = None,
                pair: tuple[int, int] | None = None) -> dict:
    """``body`` under the header the module docstring describes; ``pair`` is 0-based."""
    header = {"schema": f"{kind}/1"}
    if cfg is not None:
        header["config_hash"] = cfg.config_hash()
    if seed is not None:
        header["seed"] = seed
    if pair is not None:
        header["input_pair"] = [pair[0] + 1, pair[1] + 1]
    return {**header, **body}


def simulate(cfg: ExperimentConfig, seconds: float, seed: int | None = None) -> tuple:
    """The stream, truth record and manifest of a run of ``cfg`` (its own seed if None)."""
    seed = cfg.seed_for("simulate") if seed is None else seed
    layout = cfg.build_layout()
    stream, truth = simulate_run(cfg.source, layout, cfg.detectors, seconds, seed, with_truth=True)
    manifest = with_header("run-manifest", cfg, {
        "wall_time_s": seconds,
        "layout": layout.kind,
        "polarization": layout.polarization,
        "n_tags": len(stream),
        "counts_per_channel": stream.counts_per_channel().tolist(),
        **{f.name: getattr(truth, f.name) for f in fields(truth) if f.name != "pre_deadtime"},
        "expected_pair_rate_hz": expected_pair_rate(cfg.source, layout),
    }, seed=seed)
    return stream, truth, manifest


# -- analyses of time-tag streams ------------------------------------------------

# Peak RSS per entry, in the 8-byte elements the size budget counts (Linux,
# Python 3.11, numpy 2.4): a histogram row, as arrays, floats and CSV text,
# 127 B in g2_histogram.csv and 88 B in hom_dtau.csv; a g2 peak, 285 B.
_ROW_ELEMENTS = 16
_PEAK_ELEMENTS = 36


def analyze_g2(stream: TimeTagStream, cfg: ExperimentConfig) -> tuple[dict, dict]:
    an = cfg.analysis
    r, b, p = an.correlation_range_ns, an.correlation_bin_ns, an.correlation_pitch_ns
    check_size(max(2 * r, b) / p * _ROW_ELEMENTS,  # rows over +/- the range, a sum a bin wide
               f"[analysis] correlation_range_ns = {r:g}, correlation_bin_ns = {b:g} and "
               f"correlation_pitch_ns = {p:g}: too many bins to allocate")
    if stream.n_channels < 2:
        raise DataError("g2 analysis needs two detector channels")
    duty = cfg.source.duty_cycle_ns
    setting = f"[analysis] correlation_range_ns = {r:g} at a {duty:g} ns duty cycle"
    try:  # the histogram's span and its peaks, before the correlation runs
        n_peaks = _side_peaks(_half_bins(r, b, p)[0] * p, duty)
    except ValueError as exc:
        raise ConfigError(f"{setting}: {exc}") from None
    check_size((2 * n_peaks + 1) * _PEAK_ELEMENTS,
               f"{setting}: {2 * n_peaks + 1:g} peaks are too many to list")
    hist = cross_correlate(stream, 0, 1, range_ns=r, bin_width=b, pitch=p)
    res = g2_zero(hist, duty_cycle=duty)
    report = with_header("g2-report", cfg, {
        "g2_zero": res.g2_zero,
        "central_counts": res.central_counts,
        "extrapolated_uncorrelated": res.extrapolated_uncorrelated,
        "side_peaks": {str(k): v for k, v in sorted(res.side_peak_counts.items())},
    })
    tables = {"g2_histogram.csv": csv_text(
        ["dtau_ns", "counts"], zip(hist.centers.tolist(), hist.counts.tolist()))}
    return report, tables


def analyze_hom(stream: TimeTagStream, reference: TimeTagStream,
                cfg: ExperimentConfig) -> tuple[dict, dict]:
    an = cfg.analysis
    check_size(2 * an.coincidence_window_ns / an.display_pitch_ns * _ROW_ELEMENTS,
               f"[analysis] coincidence_window_ns = {an.coincidence_window_ns:g} and "
               f"display_pitch_ns = {an.display_pitch_ns:g}: too many bins to allocate")
    if min(stream.n_channels, reference.n_channels) < 2:
        raise DataError("hom analysis needs two detector channels in both streams")
    bins = np.arange(-an.coincidence_window_ns, an.coincidence_window_ns + an.display_pitch_ns,
                     an.display_pitch_ns)
    co = extract_coincidences(stream, window_ns=an.coincidence_window_ns)
    co_ref = extract_coincidences(reference, window_ns=an.coincidence_window_ns)
    n_cross = co.counts[(0, 1)]
    n_ref = co_ref.counts[(0, 1)]
    if n_ref <= 0:
        raise DataError("reference stream contains no cross coincidences")
    visibility = 1.0 - n_cross / n_ref
    cross_dtau = [c.dtau_ns[c.pair_k != c.pair_l] for c in (co, co_ref)]
    # windowed visibility within the short-separation core
    n_cross_w, n_ref_w = (int(np.sum(np.abs(d) <= 23.0)) for d in cross_dtau)
    report = with_header("hom-report", cfg, {
        "n_cross": n_cross,
        "n_cross_reference": n_ref,
        "visibility_integrated": visibility,
        "visibility_within_23ns": (1.0 - n_cross_w / n_ref_w) if n_ref_w else None,
    })
    cross_hists = [np.histogram(d, bins=bins)[0].tolist() for d in cross_dtau]
    tables = {"hom_dtau.csv": csv_text(
        ["dtau_ns", "cross_parallel", "cross_reference"],
        zip(((bins[:-1] + bins[1:]) / 2).tolist(), *cross_hists))}
    return report, tables


def _mmi_inputs(stream: TimeTagStream, cfg: ExperimentConfig):
    """The matrix, the input pair, its quantum table and the coincidences."""
    matrix = cfg.build_matrix()
    pair = cfg.input_pair(matrix.n_modes)
    q = coincidence_quantum(matrix, *pair)
    if not q.cross_only().values.sum() > 0:  # the similarity to it is undefined
        raise ConfigError(f"the matrix predicts no cross-detector coincidences for "
                          f"inputs {pair[0] + 1} and {pair[1] + 1}")
    if stream.n_channels != matrix.n_modes:
        raise DataError(f"stream has {stream.n_channels} channels, matrix has {matrix.n_modes} modes")
    co = extract_coincidences(stream, window_ns=cfg.analysis.coincidence_window_ns)
    if len(co) == 0:
        raise DataError("no coincidences found in the stream")
    return matrix, pair, q, co


_TOO_MANY = "{} Monte-Carlo trials are too many to allocate: lower --trials or [analysis] mc_trials"


def analyze_mmi(stream: TimeTagStream, cfg: ExperimentConfig) -> tuple[dict, dict]:
    an = cfg.analysis
    check_size(cfg.source.duty_cycle_ns / an.profile_pitch_ns,
               f"[analysis] profile_pitch_ns = {an.profile_pitch_ns:g} and [source] "
               f"duty_cycle_ns = {cfg.source.duty_cycle_ns:g}: too many bins to allocate")
    check_size(3 * an.mc_trials, _TOO_MANY.format(an.mc_trials))  # a row per theory
    matrix, (i, j), q, co = _mmi_inputs(stream, cfg)
    offset = an.reference_offset_cycles * cfg.source.duty_cycle_ns
    ref = extract_coincidences(stream, window_ns=an.coincidence_window_ns,
                               time_offset_ns=offset)
    ref_same = ref.same_detector_counts()
    if ref_same.sum() < 10:
        raise DataError(
            "not enough time-offset (distinguishable) coincidences to build "
            f"the same-detector reference; run long enough that events "
            f"{an.reference_offset_cycles} duty cycles apart are recorded")
    try:
        profile = sliding_histogram(stream, bin_width=an.profile_pitch_ns,
                                    pitch=an.profile_pitch_ns,
                                    fold_period=cfg.source.duty_cycle_ns)
        corr = deadtime_correction(co.dtau_ns, profile, cfg.detectors.dead_time_ns,
                                   ref_same, co.counts,
                                   max_dtau_ns=an.coincidence_window_ns)
    except DegenerateDistributionError:
        raise  # a profile with nothing beyond the recovery time is data
    except ValueError as exc:  # the reference is checked above, so only the bins can fail
        raise ConfigError(f"[analysis] profile_pitch_ns = {an.profile_pitch_ns:g} and "
                          f"coincidence_window_ns = {an.coincidence_window_ns:g}, [detectors] "
                          f"dead_time_ns = {cfg.detectors.dead_time_ns:g}, [source] "
                          f"duty_cycle_ns = {cfg.source.duty_cycle_ns:g}: {exc}") from None

    # visibility from cross-detector counts (immune to recovery-time losses)
    cross = co.counts.cross_only()
    v_star, s_at_v = fit_visibility(cross, matrix, i, j)
    c = coincidence_classical(matrix, i, j)
    r = coincidence_mixture(matrix, i, j, v_star)

    seed = cfg.seed_for("analyze-mmi")
    # one set of draws judged against all three theories
    mc = dict(zip(("vs_quantum", "vs_classical", "vs_fitted_mixture"),
                  poisson_mc_similarity(corr.corrected.values,
                                        np.stack([t.values for t in (q, c, r)]),
                                        trials=an.mc_trials, seed=seed)))
    report = with_header("mmi-report", cfg, {
        "n_coincidences": len(co),
        "n_unmatched": co.n_unmatched,
        "counts": co.counts.as_dict(),
        "corrected_counts": corr.corrected.as_dict(),
        "missed_same_detector": corr.missed,
        "missed_sigma": corr.missed_sigma,
        "missed_clamped": corr.clamped,
        "deadtime_fit_scale": corr.fit_scale,
        "visibility_fit": {"v_star": v_star, "similarity_at_v_star": s_at_v},
        "similarity_cross_vs_quantum": similarity(cross.values, q.cross_only().values),
        "similarity_cross_vs_classical": similarity(cross.values, c.cross_only().values),
        "similarity_corrected": {k: v.to_json_dict() for k, v in mc.items()},
    }, seed=seed, pair=(i, j))
    tables = {
        "mmi_counts.csv": csv_text(
            ["pair", "counts", "corrected", "quantum", "classical", "mixture"],
            [(f"{k + 1},{l + 1}", co.counts[(k, l)], corr.corrected[(k, l)],
              q[(k, l)], c[(k, l)], r[(k, l)]) for k, l in co.counts.pairs]),
        "mmi_coincidences.csv": csv_text(
            ["dtau_ns", "pair"],
            [(dt, f"{k + 1},{l + 1}") for dt, k, l
             in zip(co.dtau_ns.tolist(), co.pair_k.tolist(), co.pair_l.tolist())]),
        **{f"similarity_{name}.csv": res.histogram_csv() for name, res in mc.items()},
    }
    return report, tables


def analyze_timeresolved(stream: TimeTagStream, cfg: ExperimentConfig) -> tuple[dict, dict]:
    an = cfg.analysis
    trials = max(an.mc_trials // 10, 10_000)
    check_size(2 * trials, _TOO_MANY.format(trials))  # a row per theory
    # window centres step by half / 2.5 from 0 to the largest |dtau| (<= window) + half
    check_size(2.5 * (an.coincidence_window_ns + an.half_window_ns) / an.half_window_ns,
               f"a half window of {an.half_window_ns:g} ns gives too many windows to "
               "allocate: raise [analysis] half_window_ns or lower coincidence_window_ns")
    matrix, (i, j), q, co = _mmi_inputs(stream, cfg)
    c = coincidence_classical(matrix, i, j).cross_only()
    seed = cfg.seed_for("analyze-timeresolved")
    rows = similarity_vs_dt(co.dtau_ns, np.column_stack((co.pair_k, co.pair_l)),
                            q.cross_only().values, c.values, n_modes=matrix.n_modes,
                            half_window=an.half_window_ns, trials=trials, seed=seed,
                            min_events=an.min_window_events)
    if not rows:
        raise DataError("no time windows had enough events")
    report = with_header("timeresolved-report", cfg, {
        "half_window_ns": an.half_window_ns,
        "windows": [
            {"center_ns": w.center, "n_events": w.n_events, "spawn_key": [w.window],
             "vs_quantum": w.vs_quantum.to_json_dict(),
             "vs_classical": w.vs_classical.to_json_dict()} for w in rows
        ],
    }, seed=seed, pair=(i, j))
    tables = {"timeresolved.csv": csv_text(
        ["center_ns", "n_events", "s_quantum_mode", "s_quantum_lo",
         "s_quantum_hi", "s_classical_mode", "s_classical_lo", "s_classical_hi"],
        [(w.center, w.n_events, w.vs_quantum.mode, *w.vs_quantum.hpd68,
          w.vs_classical.mode, *w.vs_classical.hpd68) for w in rows])}
    return report, tables


# -- matrices ------------------------------------------------------------------------

#: characterisation trials simulated and reconstructed per array pass, so
#: memory stays flat however many trials are asked for
TRIAL_BLOCK = 64


def characterize(data: FringeDataset | None, truth: TransferMatrix | None,
                 noise_sd: float, seed: int, repeat: int) -> tuple[dict, dict]:
    """Reconstruct a transfer matrix from fringe ``data``.

    With ``data`` None the fringes are simulated from ``truth`` with
    relative power noise ``noise_sd`` and generator seed ``seed``; then
    ``repeat`` > 1 seeded trials (seeds ``seed``, ``seed + 1``, ...) add
    the recovery-error statistics, reconstructed :data:`TRIAL_BLOCK`
    trials at a time.  A ``truth`` matrix adds the deviation of the
    reconstruction from it.
    """
    check_size(repeat, f"--repeat {repeat} is too many trials to allocate")
    if noise_sd > MAX_NOISE_SD:  # noise as large as the power buries the fringes
        raise ConfigError(f"--noise-sd must be at most {MAX_NOISE_SD}, got {noise_sd}")
    simulated = data is None
    if simulated:
        data = simulate_fringes(truth, noise_sd=noise_sd, rng=np.random.default_rng(seed))
    result = reconstruct_matrix(data)
    rebuilt = result.matrix
    report = with_header("characterize-report", None, {
        "n_modes": rebuilt.n_modes,
        "unitarity_deviation": rebuilt.unitarity_deviation(),
        "phase_indeterminate": result.phase_indeterminate.tolist(),
        "noise_sd": noise_sd if simulated else None,
    })
    if truth is not None:
        target = gauge_fix(truth).elements
        dev = np.abs(rebuilt.elements - target)
        report["max_abs_deviation"] = float(dev.max())
        report["deviation"] = dev.tolist()
    if simulated and repeat > 1:
        errs = np.sort(recovery_errors(truth, target, noise_sd, seed, repeat))
        report["repeat_trials"] = repeat
        report["deviation_median"] = float(median_sorted(errs))
        report["deviation_p90"] = float(quantile_sorted(errs, 0.9))
        report["deviation_max"] = float(errs[-1])
    return report, {"reconstructed_matrix.json": rebuilt.to_json() + "\n"}


def recovery_errors(truth: TransferMatrix, target: np.ndarray, noise_sd: float,
                    seed: int, repeat: int) -> np.ndarray:
    """Largest element deviation from ``target`` of each of ``repeat``
    reconstructions of noisy fringes simulated from ``truth``, trial t
    drawing from generator seed ``seed + t``."""
    errs = np.empty(repeat)
    for start in range(0, repeat, TRIAL_BLOCK):
        seeds = range(seed + start, seed + min(start + TRIAL_BLOCK, repeat))
        elements, _ = reconstruct_trials(*simulate_trials(truth, noise_sd, seeds))
        errs[start:start + len(seeds)] = np.abs(elements - target).max(axis=(1, 2))
    return errs


def predict(matrix: TransferMatrix, i: int, j: int, visibility: float) -> tuple[dict, str]:
    """Raw and renormalised quantum, classical and mixture tables for the
    0-based input pair (i, j): the predict-report payload and the same
    numbers as CSV text, one row per output pair."""
    raw, renorm = ([coincidence_quantum(matrix, i, j, renormalized=r),
                    coincidence_classical(matrix, i, j, renormalized=r),
                    coincidence_mixture(matrix, i, j, visibility, renormalized=r)]
                   for r in (False, True))
    names = ("quantum", "classical", "mixture")
    report = with_header("predict-report", None, {
        "visibility": visibility,
        **{name: t.as_dict() for name, t in zip(names, renorm)},
        **{f"{name}_raw": t.as_dict() for name, t in zip(names, raw)},
    }, pair=(i, j))
    table = csv_text(
        ["pair", "quantum_raw", "classical_raw", "mixture_raw",
         "quantum_renorm", "classical_renorm", "mixture_renorm"],
        [(f"{k + 1},{l + 1}", *(t[(k, l)] for t in raw + renorm)) for k, l in raw[0].pairs])
    return report, table
