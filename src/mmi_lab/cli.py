"""Command-line front end.

Subcommands compose the library into the full experiment workflow:

    mmi-lab simulate      produce a time-tag stream from a config profile
    mmi-lab analyze       g2 / hom / mmi / timeresolved reports from streams
    mmi-lab characterize  fringe-based transfer-matrix reconstruction
    mmi-lab predict       coincidence tables for a matrix and input pair

The CLI only parses, reads and writes: ``mmi_lab.pipeline`` returns the
streams, manifests, JSON reports and plot-ready CSV tables (no figures).
Exit codes: 0 success, 2 configuration error (a ``ConfigError``), 3 data
error (a ``DataError`` or a missing or misplaced file); any other exit (1,
with a traceback) is a bug.  MMI_LAB_THREADS caps internal parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import config as cfgmod
from ._runtime import ConfigError, DataError, max_threads
from .characterize import FringeDataset
from .instrument import LAYOUT_KINDS, POLARIZATIONS
from .matrix import TransferMatrix, measured_chip_matrix
from .pipeline import (ModeIndexError, analyze_g2, analyze_hom, analyze_mmi,
                       analyze_timeresolved, characterize, predict, simulate)
# extract_coincidences is bound here only because bench/test_bench_tracer.py
# checks that the tracer patches the copy a front-end module imports.
from .tagstream import TimeTagStream, extract_coincidences  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

ANALYSES = {"g2": analyze_g2, "hom": analyze_hom, "mmi": analyze_mmi,
            "timeresolved": analyze_timeresolved}


def _load_config(path: str | None) -> cfgmod.ExperimentConfig:
    return cfgmod.default_config() if path is None else cfgmod.load(path)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _outdir(flag: str, path: Path) -> None:
    """Create the directory ``path`` that ``flag`` writes into; a file in its
    way is a usage error, not a data error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"{flag}: cannot create directory {path} ({exc.strerror})") from None


def _outfile(flag: str, path: str) -> Path:
    """The output file ``flag`` names, checked before any work: a directory
    in its place is a usage error, and its parent is created."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"{flag}: {path} is a directory, not a file")
    _outdir(flag, out.parent)
    return out


def _write(outdir: Path, files: dict[str, str]) -> None:
    """Write each ``name -> text`` verbatim (no newline translation, so CSV
    tables keep their ``\\r\\n`` line endings)."""
    _outdir("--out", outdir)
    for name, text in files.items():
        (outdir / name).write_text(text, encoding="utf-8", newline="")


# -- simulate ----------------------------------------------------------------


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if args.layout:
        cfg = replace(cfg, layout=replace(cfg.layout, kind=args.layout))
    if args.polarization:
        cfg = replace(cfg, layout=replace(cfg.layout, polarization=args.polarization))
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        raise ConfigError(f"--seconds must be positive and finite, got {args.seconds}")
    _check_seed(args.seed)
    out = _outfile("--out", args.out)
    truth_out = _outfile("--truth-out", args.truth_out) if args.truth_out else None
    stream, truth, manifest = simulate(cfg, args.seconds, args.seed)
    stream.write_file(out)
    if truth_out:
        truth.pre_deadtime.write_file(truth_out)
    _write(out.parent, {out.name + ".manifest.json": _json(manifest) + "\n"})
    print(_json(manifest))
    return EXIT_OK


# -- analyze -----------------------------------------------------------------


def _read_stream(path: str) -> TimeTagStream:
    p = Path(path)
    if p.suffix.lower() == ".csv":
        # a byte that is not UTF-8 leaves its row unparsable, and the row is named
        return TimeTagStream.from_csv(p.read_text(encoding="utf-8", errors="replace"))
    return TimeTagStream.from_file(p)


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    if args.trials is not None:
        cfg = replace(cfg, analysis=replace(cfg.analysis, mc_trials=args.trials))
    streams = [_read_stream(args.stream)]
    if args.kind == "hom":
        if not args.reference:
            raise ConfigError("hom analysis needs --reference (the "
                              "distinguishable-photons stream)")
        streams.append(_read_stream(args.reference))
    report, tables = ANALYSES[args.kind](*streams, cfg)
    _write(Path(args.out), {**tables, f"{args.kind}_report.json": _json(report) + "\n"})
    if args.format == "json":
        print(_json(report))
    else:
        for key, val in report.items():
            if isinstance(val, bool) or val is None:
                val = json.dumps(val)  # the JSON report's spelling: true, false, null
            if not isinstance(val, (dict, list)):
                print(f"{key},{val}")
    return EXIT_OK


# -- characterize -------------------------------------------------------------


def cmd_characterize(args) -> int:
    if not math.isfinite(args.noise_sd) or args.noise_sd < 0:
        raise ConfigError(f"--noise-sd must be non-negative and finite, got {args.noise_sd}")
    if args.repeat < 1:
        raise ConfigError(f"--repeat must be at least 1, got {args.repeat}")
    _check_seed(args.seed)
    # flags that only a simulated run reads must not be silently ignored
    if args.simulate and args.fringes:
        raise ConfigError("--fringes cannot be combined with --simulate")
    if not args.simulate:
        if args.repeat > 1:
            raise ConfigError(f"--repeat {args.repeat} needs --simulate")
        if args.noise_sd > 0:
            raise ConfigError(f"--noise-sd {args.noise_sd:g} needs --simulate")
    data = truth = None
    if args.simulate:
        truth = (TransferMatrix.from_file(args.matrix) if args.matrix
                 else measured_chip_matrix())
    elif args.fringes:
        data = FringeDataset.from_file(args.fringes)
        if args.matrix:
            truth = TransferMatrix.from_file(args.matrix)
    else:
        raise ConfigError("characterize needs --fringes DATA or --simulate")
    report, tables = characterize(data, truth, noise_sd=args.noise_sd,
                                  seed=args.seed, repeat=args.repeat)
    _write(Path(args.out), {**tables, "characterize_report.json": _json(report) + "\n"})
    print(_json({k: v for k, v in report.items()
                 if k not in ("deviation", "phase_indeterminate")}))
    return EXIT_OK


# -- predict -------------------------------------------------------------------


def cmd_predict(args) -> int:
    if not 0.0 <= args.visibility <= 1.0:
        raise ConfigError(f"--visibility must be in [0, 1], got {args.visibility}")
    matrix = (TransferMatrix.from_file(args.matrix) if args.matrix
              else measured_chip_matrix())
    for flag, value in (("-i", args.input_i), ("-j", args.input_j)):
        if not 1 <= value <= matrix.n_modes:
            raise ModeIndexError(f"{flag} {value} out of range 1..{matrix.n_modes}")
    out = _outfile("--out", args.out) if args.out and args.out != "-" else None
    report, table = predict(matrix, args.input_i - 1, args.input_j - 1,
                            args.visibility)
    text = _json(report) if args.format == "json" else table.rstrip("\n")
    if out:
        _write(out.parent, {out.name: text + "\n"})
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
    sim.add_argument("--layout", choices=LAYOUT_KINDS,
                     help="override the configured layout kind")
    sim.add_argument("--polarization", choices=POLARIZATIONS,
                     help="override the configured pair polarization")
    sim.add_argument("--out", required=True, help="output time-tag file")
    sim.add_argument("--truth-out", help="also write the zero-dead-time stream")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="turn time-tag streams into reports")
    ana.add_argument("kind", choices=list(ANALYSES))
    ana.add_argument("--stream", required=True, help="time-tag file (.ttag binary or .csv)")
    ana.add_argument("--reference", help="reference stream (hom: distinguishable run)")
    ana.add_argument("--config", help="experiment profile (INI)")
    ana.add_argument("--out", default="analysis", help="output directory")
    ana.add_argument("--format", choices=["csv", "json"], default="json")
    ana.add_argument("--trials", type=int, default=None,
                     help="override the configured Monte-Carlo trial count")
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
        max_threads()  # a malformed MMI_LAB_THREADS fails before any work
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
