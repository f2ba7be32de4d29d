"""Command-line front end.

Subcommands compose the library into the full experiment workflow:

    mmi-lab simulate      produce a time-tag stream from a config profile
    mmi-lab analyze       g2 / hom / mmi / timeresolved reports from streams
    mmi-lab characterize  fringe-based transfer-matrix reconstruction
    mmi-lab predict       coincidence tables for a matrix and input pair

Outputs are machine-readable JSON reports plus plot-ready CSV tables; no
figures are rendered.  Exit codes: 0 success, 2 configuration error,
3 data error.  MMI_LAB_THREADS caps internal parallelism.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .characterize import (CharacterizationError, FringeDataset,
                           reconstruct_matrix, simulate_fringes)
from .core import (coincidence_classical, coincidence_mixture,
                   coincidence_quantum, fit_visibility)
from .instrument import ConfigError, expected_pair_rate, simulate_run
from .matrix import MatrixError, TransferMatrix, gauge_fix, measured_chip_matrix
from .stats import poisson_mc_similarity, similarity, similarity_vs_dt
from .tagstream import (StreamFormatError, TimeTagStream, cross_correlate,
                        deadtime_correction, extract_coincidences, g2_zero,
                        sliding_histogram)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class DataError(RuntimeError):
    """Unusable measurement data for the requested analysis."""


def _load_config(path: str | None) -> cfgmod.ExperimentConfig:
    if path is None:
        return cfgmod.default_config()
    return cfgmod.load(path)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- simulate ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if args.layout:
        cfg = replace(cfg, layout=replace(cfg.layout, kind=args.layout))
    if args.polarization:
        cfg = replace(cfg, layout=replace(cfg.layout, polarization=args.polarization))
    seed = args.seed if args.seed is not None else cfg.seed_for("simulate")
    layout = cfg.build_layout()
    stream, truth = simulate_run(cfg.source, layout, cfg.detectors,
                                 wall_time_s=args.seconds, seed=seed,
                                 with_truth=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    stream.write_file(out)
    if args.truth_out:
        truth.pre_deadtime.write_file(Path(args.truth_out))
    manifest = {
        "schema": "run-manifest/1",
        "config_hash": cfg.config_hash(),
        "seed": seed,
        "wall_time_s": args.seconds,
        "layout": layout.kind,
        "polarization": layout.polarization,
        "n_tags": len(stream),
        "counts_per_channel": stream.counts_per_channel().tolist(),
        "n_emitted": truth.n_emitted,
        "delivered_pairs": truth.delivered_pairs,
        "detected_pairs": truth.detected_pairs,
        "n_suppressed": truth.n_suppressed,
        "expected_pair_rate_hz": expected_pair_rate(cfg.source, layout, cfg.detectors),
    }
    _write_json(out.with_suffix(out.suffix + ".manifest.json"), manifest)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return EXIT_OK


# -- analyze -----------------------------------------------------------------


def _read_stream(path: str) -> TimeTagStream:
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return TimeTagStream.from_csv(p.read_text())
    return TimeTagStream.from_file(p)


def _analysis_header(cfg, seed=None) -> dict:
    head = {"config_hash": cfg.config_hash()}
    if seed is not None:
        head["seed"] = seed
    return head


def analyze_g2(stream: TimeTagStream, cfg: cfgmod.ExperimentConfig, outdir: Path) -> dict:
    an = cfg.analysis
    if stream.n_channels < 2:
        raise DataError("g2 analysis needs two detector channels")
    hist = cross_correlate(stream, 0, 1, range_ns=an.correlation_range_ns,
                           bin_width=an.correlation_bin_ns,
                           pitch=an.correlation_pitch_ns)
    res = g2_zero(hist, duty_cycle=cfg.source.duty_cycle_ns)
    report = {
        "schema": "g2-report/1",
        **_analysis_header(cfg),
        "g2_zero": res.g2_zero,
        "central_counts": res.central_counts,
        "extrapolated_uncorrelated": res.extrapolated_uncorrelated,
        "side_peaks": {str(k): v for k, v in sorted(res.side_peak_counts.items())},
    }
    _write_csv(outdir / "g2_histogram.csv", ["dtau_ns", "counts"],
               zip(hist.centers.tolist(), hist.counts.tolist()))
    _write_json(outdir / "g2_report.json", report)
    return report


def analyze_hom(stream: TimeTagStream, reference: TimeTagStream,
                cfg: cfgmod.ExperimentConfig, outdir: Path) -> dict:
    an = cfg.analysis
    co = extract_coincidences(stream, window_ns=an.coincidence_window_ns)
    co_ref = extract_coincidences(reference, window_ns=an.coincidence_window_ns)
    n_cross = co.counts[(0, 1)]
    n_ref = co_ref.counts[(0, 1)]
    if n_ref <= 0:
        raise DataError("reference stream contains no cross coincidences")
    visibility = 1.0 - n_cross / n_ref
    # windowed visibility within the short-separation core
    w = 23.0
    n_cross_w = int(np.sum((np.abs(co.dtau_ns) <= w)
                           & (co.pair_k != co.pair_l)))
    n_ref_w = int(np.sum((np.abs(co_ref.dtau_ns) <= w)
                         & (co_ref.pair_k != co_ref.pair_l)))
    report = {
        "schema": "hom-report/1",
        **_analysis_header(cfg),
        "n_cross": n_cross,
        "n_cross_reference": n_ref,
        "visibility_integrated": visibility,
        "visibility_within_23ns": (1.0 - n_cross_w / n_ref_w) if n_ref_w else None,
    }
    bins = np.arange(-an.coincidence_window_ns, an.coincidence_window_ns
                     + an.display_pitch_ns, an.display_pitch_ns)
    rows = []
    for label, c in (("parallel", co), ("reference", co_ref)):
        cross = c.pair_k != c.pair_l
        h, _ = np.histogram(c.dtau_ns[cross], bins=bins)
        rows.append((label, h))
    _write_csv(outdir / "hom_dtau.csv",
               ["dtau_ns", "cross_parallel", "cross_reference"],
               zip(((bins[:-1] + bins[1:]) / 2).tolist(),
                   rows[0][1].tolist(), rows[1][1].tolist()))
    _write_json(outdir / "hom_report.json", report)
    return report


def _mmi_inputs(stream: TimeTagStream, cfg: cfgmod.ExperimentConfig):
    matrix = cfg.build_matrix()
    if stream.n_channels != matrix.n_modes:
        raise DataError(f"stream has {stream.n_channels} channels, matrix has {matrix.n_modes} modes")
    pair = cfg.input_pair()
    co = extract_coincidences(stream, window_ns=cfg.analysis.coincidence_window_ns)
    if len(co) == 0:
        raise DataError("no coincidences found in the stream")
    return matrix, pair, co


def analyze_mmi(stream: TimeTagStream, cfg: cfgmod.ExperimentConfig,
                outdir: Path) -> dict:
    an = cfg.analysis
    matrix, (i, j), co = _mmi_inputs(stream, cfg)
    offset = an.reference_offset_cycles * cfg.source.duty_cycle_ns
    ref = extract_coincidences(stream, window_ns=an.coincidence_window_ns,
                               time_offset_ns=offset)
    ref_same = ref.same_detector_counts()
    if ref_same.sum() < 10:
        raise DataError(
            "not enough time-offset (distinguishable) coincidences to build "
            f"the same-detector reference; run long enough that events "
            f"{an.reference_offset_cycles} duty cycles apart are recorded")
    profile = sliding_histogram(stream, bin_width=an.profile_bin_ns,
                                pitch=an.profile_pitch_ns,
                                fold_period=cfg.source.duty_cycle_ns)
    corr = deadtime_correction(co.dtau_ns, profile, cfg.detectors.dead_time_ns,
                               ref_same, co.counts,
                               max_dtau_ns=an.coincidence_window_ns)

    # visibility from cross-detector counts (immune to recovery-time losses)
    cross = co.counts.cross_only()
    v_star, s_at_v = fit_visibility(cross, matrix, i, j)
    q = coincidence_quantum(matrix, i, j)
    c = coincidence_classical(matrix, i, j)
    r = coincidence_mixture(matrix, i, j, v_star)

    seed = cfg.seed_for("analyze-mmi")
    mc = {
        "vs_quantum": poisson_mc_similarity(corr.corrected.values, q.values,
                                            trials=an.mc_trials, seed=seed),
        "vs_classical": poisson_mc_similarity(corr.corrected.values, c.values,
                                              trials=an.mc_trials, seed=seed + 1),
        "vs_fitted_mixture": poisson_mc_similarity(corr.corrected.values, r.values,
                                                   trials=an.mc_trials, seed=seed + 2),
    }
    report = {
        "schema": "mmi-report/1",
        **_analysis_header(cfg, seed),
        "input_pair": [i + 1, j + 1],
        "n_coincidences": len(co),
        "counts": co.counts.as_dict(),
        "corrected_counts": corr.corrected.as_dict(),
        "missed_same_detector": corr.missed,
        "missed_sigma": corr.missed_sigma,
        "visibility_fit": {"v_star": v_star, "similarity_at_v_star": s_at_v},
        "similarity_cross_vs_quantum": similarity(cross.values, q.cross_only().values),
        "similarity_cross_vs_classical": similarity(cross.values, c.cross_only().values),
        "similarity_corrected": {k: v.to_json_dict() for k, v in mc.items()},
    }
    _write_csv(outdir / "mmi_counts.csv",
               ["pair", "counts", "corrected", "quantum", "classical", "mixture"],
               [(f"{k + 1},{l + 1}", co.counts[(k, l)], corr.corrected[(k, l)],
                 q[(k, l)], c[(k, l)], r[(k, l)])
                for k, l in co.counts.pairs])
    _write_csv(outdir / "mmi_coincidences.csv", ["dtau_ns", "pair"],
               [(dt, f"{k + 1},{l + 1}")
                for dt, k, l in zip(co.dtau_ns, co.pair_k, co.pair_l)])
    for name, res in mc.items():
        (outdir / f"similarity_{name}.csv").write_text(res.histogram_csv(),
                                                       encoding="utf-8")
    _write_json(outdir / "mmi_report.json", report)
    return report


def analyze_timeresolved(stream: TimeTagStream, cfg: cfgmod.ExperimentConfig,
                         outdir: Path) -> dict:
    an = cfg.analysis
    matrix, (i, j), co = _mmi_inputs(stream, cfg)
    q = coincidence_quantum(matrix, i, j).cross_only()
    c = coincidence_classical(matrix, i, j).cross_only()
    seed = cfg.seed_for("analyze-timeresolved")
    rows = similarity_vs_dt(co.dtau_ns, np.column_stack((co.pair_k, co.pair_l)),
                            q.values, c.values, n_modes=matrix.n_modes,
                            half_window=an.half_window_ns,
                            trials=max(an.mc_trials // 10, 10_000), seed=seed,
                            min_events=an.min_window_events)
    if not rows:
        raise DataError("no time windows had enough events")
    table = [(w.center, w.n_events,
              w.vs_quantum.mode, *w.vs_quantum.hpd68,
              w.vs_classical.mode, *w.vs_classical.hpd68) for w in rows]
    _write_csv(outdir / "timeresolved.csv",
               ["center_ns", "n_events", "s_quantum_mode", "s_quantum_lo",
                "s_quantum_hi", "s_classical_mode", "s_classical_lo",
                "s_classical_hi"], table)
    report = {
        "schema": "timeresolved-report/1",
        **_analysis_header(cfg, seed),
        "input_pair": [i + 1, j + 1],
        "half_window_ns": an.half_window_ns,
        "windows": [
            {"center_ns": w.center, "n_events": w.n_events,
             "vs_quantum": w.vs_quantum.to_json_dict(),
             "vs_classical": w.vs_classical.to_json_dict()} for w in rows
        ],
    }
    _write_json(outdir / "timeresolved_report.json", report)
    return report


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    if args.trials is not None:
        cfg = replace(cfg, analysis=replace(cfg.analysis, mc_trials=args.trials))
    if args.seed is not None:
        cfg = replace(cfg, analysis=replace(cfg.analysis, master_seed=args.seed))
    outdir = Path(args.out)
    stream = _read_stream(args.stream)
    if args.kind == "g2":
        report = analyze_g2(stream, cfg, outdir)
    elif args.kind == "hom":
        if not args.reference:
            raise DataError("hom analysis needs --reference (the "
                            "distinguishable-photons stream)")
        report = analyze_hom(stream, _read_stream(args.reference), cfg, outdir)
    elif args.kind == "mmi":
        report = analyze_mmi(stream, cfg, outdir)
    else:
        report = analyze_timeresolved(stream, cfg, outdir)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, val in report.items():
            if not isinstance(val, (dict, list)):
                print(f"{key},{val}")
    return EXIT_OK


# -- characterize -------------------------------------------------------------


def cmd_characterize(args) -> int:
    outdir = Path(args.out)
    truth = None
    if args.simulate:
        matrix = (TransferMatrix.from_file(args.matrix) if args.matrix
                  else measured_chip_matrix())
        truth = matrix
        rng = np.random.default_rng(args.seed)
        data = simulate_fringes(matrix, noise_sd=args.noise_sd, rng=rng)
    elif args.fringes:
        data = FringeDataset.from_file(args.fringes)
        if args.matrix:
            truth = TransferMatrix.from_file(args.matrix)
    else:
        raise DataError("characterize needs --fringes DATA or --simulate")
    result = reconstruct_matrix(data)
    rebuilt = result.matrix
    report = {
        "schema": "characterize-report/1",
        "n_modes": rebuilt.n_modes,
        "unitarity_deviation": rebuilt.unitarity_deviation(),
        "phase_indeterminate": result.phase_indeterminate.tolist(),
        "noise_sd": args.noise_sd if args.simulate else None,
    }
    if truth is not None:
        dev = np.abs(rebuilt.elements - gauge_fix(truth).elements)
        report["max_abs_deviation"] = float(dev.max())
        report["deviation"] = dev.tolist()
    if args.simulate and args.repeat > 1:
        # repeated seeded trials give the recovery error statistics
        errs = []
        for trial in range(args.repeat):
            trial_rng = np.random.default_rng(args.seed + trial)
            rec = reconstruct_matrix(simulate_fringes(truth, args.noise_sd,
                                                      rng=trial_rng))
            errs.append(float(np.abs(rec.matrix.elements
                                     - gauge_fix(truth).elements).max()))
        report["repeat_trials"] = args.repeat
        report["deviation_median"] = float(np.median(errs))
        report["deviation_p90"] = float(np.quantile(errs, 0.9))
        report["deviation_max"] = float(np.max(errs))
    outdir.mkdir(parents=True, exist_ok=True)
    rebuilt.write_file(outdir / "reconstructed_matrix.json")
    _write_json(outdir / "characterize_report.json", report)
    print(json.dumps({k: v for k, v in report.items()
                      if k not in ("deviation", "phase_indeterminate")},
                     indent=2, sort_keys=True))
    return EXIT_OK


# -- predict -------------------------------------------------------------------


def cmd_predict(args) -> int:
    matrix = (TransferMatrix.from_file(args.matrix) if args.matrix
              else measured_chip_matrix())
    i, j = args.input_i - 1, args.input_j - 1
    tables = {}
    for renorm in (False, True):
        q = coincidence_quantum(matrix, i, j, renormalized=renorm)
        c = coincidence_classical(matrix, i, j, renormalized=renorm)
        r = coincidence_mixture(matrix, i, j, args.visibility, renormalized=renorm)
        tables[renorm] = (q, c, r)
    rows = []
    q0, c0, r0 = tables[False]
    q1, c1, r1 = tables[True]
    for k, l in q0.pairs:
        rows.append((f"{k + 1},{l + 1}", q0[(k, l)], c0[(k, l)], r0[(k, l)],
                     q1[(k, l)], c1[(k, l)], r1[(k, l)]))
    header = ["pair", "quantum_raw", "classical_raw", "mixture_raw",
              "quantum_renorm", "classical_renorm", "mixture_renorm"]
    if args.format == "json":
        payload = {
            "schema": "predict-report/1",
            "input_pair": [args.input_i, args.input_j],
            "visibility": args.visibility,
            "quantum": q1.as_dict(),
            "classical": c1.as_dict(),
            "mixture": r1.as_dict(),
            "quantum_raw": q0.as_dict(),
            "classical_raw": c0.as_dict(),
            "mixture_raw": r0.as_dict(),
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue().rstrip("\n")
    if args.out and args.out != "-":
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmi-lab",
        description="Simulate and analyse two-photon interference in "
                    "multimode interferometers.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the source-chip-detector simulator")
    sim.add_argument("--config", help="experiment profile (INI); default profile if omitted")
    sim.add_argument("--seconds", type=float, required=True, help="wall-clock run length")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config-derived seed")
    sim.add_argument("--layout", choices=["hbt", "hom_splitter", "mmi"],
                     help="override the configured layout kind")
    sim.add_argument("--polarization", choices=["parallel", "orthogonal"],
                     help="override the configured pair polarization")
    sim.add_argument("--out", required=True, help="output time-tag file")
    sim.add_argument("--truth-out", help="also write the zero-dead-time stream")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="turn time-tag streams into reports")
    ana.add_argument("kind", choices=["g2", "hom", "mmi", "timeresolved"])
    ana.add_argument("--stream", required=True, help="time-tag file (.ttag binary or .csv)")
    ana.add_argument("--reference", help="reference stream (hom: distinguishable run)")
    ana.add_argument("--config", help="experiment profile (INI)")
    ana.add_argument("--out", default="analysis", help="output directory")
    ana.add_argument("--format", choices=["csv", "json"], default="json")
    ana.add_argument("--trials", type=int, default=None,
                     help="override the configured Monte-Carlo trial count")
    ana.add_argument("--seed", type=int, default=None,
                     help="override the configured master seed")
    ana.set_defaults(func=cmd_analyze)

    cha = sub.add_parser("characterize", help="reconstruct a transfer matrix from fringes")
    cha.add_argument("--fringes", help="fringe dataset JSON")
    cha.add_argument("--simulate", action="store_true",
                     help="generate fringes from a known matrix first")
    cha.add_argument("--matrix", help="matrix JSON (simulation truth or comparison)")
    cha.add_argument("--noise-sd", type=float, default=0.0,
                     help="relative power noise for --simulate")
    cha.add_argument("--seed", type=int, default=0)
    cha.add_argument("--repeat", type=int, default=1,
                     help="seeded noise trials for recovery statistics")
    cha.add_argument("--out", default="characterization", help="output directory")
    cha.set_defaults(func=cmd_characterize)

    pre = sub.add_parser("predict", help="coincidence tables for an input pair")
    pre.add_argument("--matrix", help="matrix JSON (bundled chip matrix if omitted)")
    pre.add_argument("-i", "--input-i", type=int, default=1, help="first input (1-based)")
    pre.add_argument("-j", "--input-j", type=int, default=2, help="second input (1-based)")
    pre.add_argument("--visibility", type=float, default=1.0,
                     help="two-photon visibility for the mixture table")
    pre.add_argument("--format", choices=["csv", "json"], default="csv")
    pre.add_argument("--out", help="write the table here as well ('-' for stdout only)")
    pre.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MatrixError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, StreamFormatError, CharacterizationError,
            FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
