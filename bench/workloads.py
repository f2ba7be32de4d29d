"""The three benchmark workloads: the commands each runs, the seeds it
derives from its workload seed, and the checks on its outputs.

Tolerances come from the acceptance suite where it pins a value for these
inputs; the others are statistical and derived in METRICS.md.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

# acceptance criterion 10 (tests/test_acceptance.py); its quantum-dominance
# window is pinned for the profile's own simulate seed only
C10_SEED = 167666851206211232
C10_MIN_COINCIDENCES = 10_000
C10_VISIBILITY, C10_VISIBILITY_TOL = 0.708, 0.05
C10_MIN_SIMILARITY = 0.98
C10_EARLY_NS, C10_MIN_EARLY_WINDOWS = 90.0, 5
# acceptance criterion 11 pins g2(0) for the 300 ks hbt run with seed 11
C11_SEED, C11_G2, C11_G2_TOL = 11, 0.067, 0.01
# statistical tolerances (METRICS.md)
N_SIGMA = 5.0
QUANTUM_DOMINANCE_NS = 70.0
HOM_VISIBILITY = 0.708
CHARACTERIZE_P90_RANGE = (0.0065, 0.0116)
SWEEP_RUNS = 20
SWEEP_MIN_COVERAGE = 0.75


@dataclass(frozen=True)
class Step:
    """One child process.

    ``phase`` names the end-to-end metric its command time adds to
    (``simulate`` or ``analyze``; ``sweep`` reports its own split).
    ``stream`` and ``report`` are the files whose digests identify the run;
    ``seed`` is the simulation seed the step was given, if any.
    """

    label: str
    phase: str
    argv: tuple[str, ...]
    stream: Path | None = None
    report: Path | None = None
    seed: str | None = None


def _simulate(label: str, d: Path, seconds: int, seed: int, *extra: str) -> Step:
    out = d / f"{label}.ttag"
    return Step(label, "simulate",
                ("cli", "simulate", "--seconds", str(seconds), "--seed", str(seed),
                 *extra, "--out", str(out)),
                stream=out, report=Path(f"{out}.manifest.json"), seed=str(seed))


def _analyze(label: str, d: Path, kind: str, stream: Step, report: str,
             *extra: str) -> Step:
    return Step(label, "analyze",
                ("cli", "analyze", kind, "--stream", str(stream.stream), *extra,
                 "--out", str(d / label)),
                report=d / label / report)


def mmi_report_steps(seed: int, d: Path) -> list[Step]:
    sim = _simulate("simulate", d, 380_000, seed)
    return [sim,
            _analyze("analyze_mmi", d, "mmi", sim, "mmi_report.json"),
            _analyze("analyze_timeresolved", d, "timeresolved", sim,
                     "timeresolved_report.json")]


def calibration_steps(seed: int, d: Path) -> list[Step]:
    hbt = _simulate("simulate_hbt", d, 300_000, seed, "--layout", "hbt")
    par = _simulate("simulate_hom_parallel", d, 60_000, seed + 1,
                    "--layout", "hom_splitter")
    orth = _simulate("simulate_hom_orthogonal", d, 60_000, seed + 2,
                     "--layout", "hom_splitter", "--polarization", "orthogonal")
    char = d / "characterize"
    return [hbt, _analyze("analyze_g2", d, "g2", hbt, "g2_report.json"),
            par, orth,
            _analyze("analyze_hom", d, "hom", par, "hom_report.json",
                     "--reference", str(orth.stream)),
            Step("characterize", "analyze",
                 ("cli", "characterize", "--simulate", "--noise-sd", "0.01",
                  "--repeat", "100", "--seed", str(seed + 3), "--out", str(char)),
                 report=char / "characterize_report.json", seed=str(seed + 3))]


def deadtime_sweep_steps(seed: int, d: Path) -> list[Step]:
    return [Step("sweep", "sweep", ("sweep", str(seed), str(SWEEP_RUNS)),
                 seed=f"{seed}..{seed + SWEEP_RUNS - 1}")]


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _within(name: str, value: float, target: float, tol: float) -> tuple[str, bool, str]:
    return (name, abs(value - target) <= tol, f"{value:.4f} = {target} +- {tol:.4f}")


def _quantum_dominates(name: str, windows: list, below_ns: float) -> tuple[str, bool, str]:
    early = [w for w in windows if w["center_ns"] < below_ns]
    wins = sum(w["vs_quantum"]["mode"] > w["vs_classical"]["mode"] for w in early)
    return (name, len(early) >= C10_MIN_EARLY_WINDOWS and wins == len(early),
            f"quantum mode above classical in {wins}/{len(early)} windows "
            f"below {below_ns:g} ns (>= {C10_MIN_EARLY_WINDOWS} windows)")


def mmi_report_checks(seed: int, steps: list[Step], payloads: list[dict]) -> list:
    rep, tr = _load(steps[1].report), _load(steps[2].report)
    n = rep["n_coincidences"]
    v_star = rep["visibility_fit"]["v_star"]
    s_fit = rep["visibility_fit"]["similarity_at_v_star"]
    checks = [
        ("c10.n_coincidences", n >= C10_MIN_COINCIDENCES,
         f"{n} >= {C10_MIN_COINCIDENCES}"),
        _within("c10.v_star", v_star, C10_VISIBILITY, C10_VISIBILITY_TOL),
        ("c10.similarity_at_v_star", s_fit >= C10_MIN_SIMILARITY,
         f"{s_fit:.4f} >= {C10_MIN_SIMILARITY}"),
        _quantum_dominates("timeresolved.quantum_dominates", tr["windows"],
                           QUANTUM_DOMINANCE_NS),
    ]
    if seed == C10_SEED:
        checks.append(_quantum_dominates("c10.quantum_dominates_early", tr["windows"],
                                         C10_EARLY_NS))
    return checks


def calibration_checks(seed: int, steps: list[Step], payloads: list[dict]) -> list:
    g2, hom, char = (_load(steps[i].report) for i in (1, 4, 5))
    # central peak is Poisson; the side-peak intercept of a linear fit over
    # |m| = 1..4 (two peaks each) has variance 0.75 * level
    g2_sigma = g2["g2_zero"] * math.sqrt(1.0 / g2["central_counts"]
                                         + 0.75 / g2["extrapolated_uncorrelated"])
    n_cross, n_ref = hom["n_cross"], hom["n_cross_reference"]
    v_hom = hom["visibility_integrated"]
    hom_sigma = (1.0 - v_hom) * math.sqrt(1.0 / n_cross + 1.0 / n_ref)
    lo, hi = CHARACTERIZE_P90_RANGE
    p90 = char["deviation_p90"]
    checks = [
        _within("g2.statistical", g2["g2_zero"], C11_G2, N_SIGMA * g2_sigma),
        _within("hom.visibility_integrated", v_hom, HOM_VISIBILITY, N_SIGMA * hom_sigma),
        ("characterize.deviation_p90", lo <= p90 <= hi, f"{lo} <= {p90:.5f} <= {hi}"),
    ]
    if seed == C11_SEED:
        checks.append(_within("c11.g2_zero", g2["g2_zero"], C11_G2, C11_G2_TOL))
    return checks


def deadtime_sweep_checks(seed: int, steps: list[Step], payloads: list[dict]) -> list:
    runs = payloads[0]["runs"]
    covered = sum(r["covered"] for r in runs) / len(runs)
    return [("sweep.deadtime_coverage", covered >= SWEEP_MIN_COVERAGE,
             f"{covered:.3f} of {len(runs)} runs within 2 missed_sigma "
             f"(>= {SWEEP_MIN_COVERAGE})")]


@dataclass(frozen=True)
class Workload:
    default_seed: int
    steps: Callable[[int, Path], list[Step]]
    checks: Callable[[int, list[Step], list[dict]], list[tuple[str, bool, str]]]


WORKLOADS = {
    # default seed: the profile's own simulate seed, as in acceptance criterion 10
    "mmi-report": Workload(C10_SEED, mmi_report_steps, mmi_report_checks),
    # default seed: acceptance criterion 11's hbt run
    "calibration": Workload(C11_SEED, calibration_steps, calibration_checks),
    # default seed: acceptance criterion 9's first run
    "deadtime-sweep": Workload(40_000, deadtime_sweep_steps, deadtime_sweep_checks),
}
