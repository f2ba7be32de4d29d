"""What the traced run instruments in ``mmi_lab`` and the per-layer metrics
derived from the spans.

Every public function below is traced under ``<layer>.<function>``; the
layers are the modules of ``src/mmi_lab``.  METRICS.md says which
end-to-end metric and workload each per-layer metric should move.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracer import self_times


def _simulate_counts(args, result):
    stream, truth = result if isinstance(result, tuple) else (result, None)
    counts = {"tags_out": len(stream)}
    if truth is not None:
        counts["emitted"] = truth.n_emitted
    return counts


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _pairing_counts(args, result):
    return {"tags_in": len(args["stream"]), "pairs_out": len(result)}


def _correlation_counts(args, result):
    return {"tags_in": len(args["stream"]), "pairs_counted": result.total_pairs()}


# (module, attribute, span name, counter)
TARGETS = [
    ("mmi_lab.cli", "main", "cli.main", None),
    ("mmi_lab.config", "loads", "config.loads", None),
    ("mmi_lab.config", "load", "config.load", None),
    ("mmi_lab.config", "default_config", "config.default_config", None),
    ("mmi_lab.config", "ExperimentConfig.build_matrix", "config.build_matrix", None),
    ("mmi_lab.config", "ExperimentConfig.build_layout", "config.build_layout", None),
    ("mmi_lab.config", "ExperimentConfig.seed_for", "config.seed_for", None),
    ("mmi_lab.config", "ExperimentConfig.config_hash", "config.config_hash", None),
    ("mmi_lab.matrix", "builtin_matrix", "matrix.builtin_matrix", None),
    ("mmi_lab.matrix", "measured_chip_matrix", "matrix.measured_chip_matrix", None),
    ("mmi_lab.matrix", "balanced_splitter", "matrix.balanced_splitter", None),
    ("mmi_lab.matrix", "gauge_fix", "matrix.gauge_fix", None),
    ("mmi_lab.core", "coincidence_quantum", "core.coincidence_quantum", None),
    ("mmi_lab.core", "coincidence_classical", "core.coincidence_classical", None),
    ("mmi_lab.core", "coincidence_mixture", "core.coincidence_mixture", None),
    ("mmi_lab.core", "fit_visibility", "core.fit_visibility", None),
    ("mmi_lab.temporal", "joint_density", "temporal.joint_density", None),
    ("mmi_lab.temporal", "calibrate_gaussian_jitter",
     "temporal.calibrate_gaussian_jitter", None),
    ("mmi_lab.instrument", "simulate_run", "instrument.simulate_run", _simulate_counts),
    ("mmi_lab.instrument", "expected_pair_rate", "instrument.expected_pair_rate", None),
    ("mmi_lab.tagstream", "TimeTagStream.write_file", "tagstream.io.write_file", _file_bytes),
    ("mmi_lab.tagstream", "TimeTagStream.from_file", "tagstream.io.from_file", _file_bytes),
    ("mmi_lab.tagstream", "extract_coincidences", "tagstream.extract_coincidences",
     _pairing_counts),
    ("mmi_lab.tagstream", "cross_correlate", "tagstream.cross_correlate",
     _correlation_counts),
    ("mmi_lab.tagstream", "sliding_histogram", "tagstream.sliding_histogram", None),
    ("mmi_lab.tagstream", "deadtime_correction", "tagstream.deadtime_correction", None),
    ("mmi_lab.tagstream", "g2_zero", "tagstream.g2_zero", None),
    ("mmi_lab.stats", "similarity", "stats.similarity", None),
    ("mmi_lab.stats", "poisson_mc_similarity", "stats.poisson_mc_similarity",
     lambda args, result: {"trials": args["trials"]}),
    ("mmi_lab.stats", "similarity_vs_dt", "stats.similarity_vs_dt",
     lambda args, result: {"windows": len(result)}),
    ("mmi_lab.characterize", "simulate_fringes", "characterize.simulate_fringes", None),
    ("mmi_lab.characterize", "reconstruct_matrix", "characterize.reconstruct_matrix", None),
]


def install(tracer) -> None:
    for module, attr, name, count in TARGETS:
        tracer.patch(module, attr, name, count)


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing ``mmi_lab`` and, within that, ``scipy``, from
    ``python -X importtime`` output.

    The output lists each module after the modules it imported, indented
    two spaces per nesting level; a package is counted at its outermost
    appearance only, so nested entries are not counted twice.
    """
    pending = defaultdict(list)  # nesting level -> nodes awaiting their parent
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (name.strip(), int(cumulative) * 1e-6, pending.pop(level + 1, []))
        pending[level].append(node)

    def outermost(nodes, package):
        total = 0.0
        for mod, seconds, kids in nodes:
            if mod == package or mod.startswith(package + "."):
                total += seconds
            else:
                total += outermost(kids, package)
        return total

    roots = [node for level in sorted(pending) for node in pending[level]]
    return {"import_s": outermost(roots, "mmi_lab"),
            "import_scipy_s": outermost(roots, "scipy")}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], imports: list[dict[str, float]],
                  coverage: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    ``imports`` holds one ``parse_importtime`` result per process;
    ``coverage`` is the dead-time coverage of the sweep runs (0 when the
    workload has none).
    """
    own = self_times(spans)
    calls, self_s, incl_s, errors = (defaultdict(int), defaultdict(float),
                                     defaultdict(float), defaultdict(int))
    counts = defaultdict(float)
    for s in spans:
        name = s["name"]
        calls[name] += 1
        self_s[name] += own[s["id"]]
        incl_s[name] += s["end"] - s["start"]
        errors[name] += s["error"]
        for key, value in s["counts"].items():
            counts[f"{name}.{key}"] += value

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    n_proc = max(len(imports), 1)
    sim, pair, corr = ("instrument.simulate_run", "tagstream.extract_coincidences",
                       "tagstream.cross_correlate")
    mc, io = "stats.poisson_mc_similarity", ("tagstream.io.write_file",
                                            "tagstream.io.from_file")
    out = {
        "setup.import_s": (sum(i["import_s"] for i in imports) / n_proc, "s"),
        "setup.import_scipy_s": (sum(i["import_scipy_s"] for i in imports) / n_proc, "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "config.self_s": (layer_self("config"), "s"),
        "matrix.self_s": (layer_self("matrix"), "s"),
        "matrix.calls": (sum(v for k, v in calls.items() if k.startswith("matrix.")), "count"),
        "temporal.joint_density.calls": (calls["temporal.joint_density"], "count"),
        "temporal.joint_density.self_s": (self_s["temporal.joint_density"], "s"),
        "temporal.calibrate_gaussian_jitter.calls":
            (calls["temporal.calibrate_gaussian_jitter"], "count"),
        "temporal.calibrate_gaussian_jitter.self_s":
            (self_s["temporal.calibrate_gaussian_jitter"], "s"),
        "instrument.simulate_run.calls": (calls[sim], "count"),
        "instrument.simulate_run.self_s": (self_s[sim], "s"),
        "instrument.tags_out": (counts[f"{sim}.tags_out"], "count"),
        "instrument.emitted": (counts[f"{sim}.emitted"], "count"),
        "instrument.tag_yield": (_ratio(counts[f"{sim}.tags_out"],
                                        counts[f"{sim}.emitted"]), "ratio"),
        "instrument.tags_per_s": (_ratio(counts[f"{sim}.tags_out"], incl_s[sim]), "1/s"),
        "tagstream.io.self_s": (sum(self_s[n] for n in io), "s"),
        "tagstream.io.bytes": (sum(counts[f"{n}.bytes"] for n in io), "bytes"),
        "tagstream.extract_coincidences.calls": (calls[pair], "count"),
        "tagstream.extract_coincidences.self_s": (self_s[pair], "s"),
        "tagstream.extract_coincidences.tags_in": (counts[f"{pair}.tags_in"], "count"),
        "tagstream.extract_coincidences.pairs_out": (counts[f"{pair}.pairs_out"], "count"),
        "tagstream.extract_coincidences.pair_yield":
            (_ratio(2 * counts[f"{pair}.pairs_out"], counts[f"{pair}.tags_in"]), "ratio"),
        "tagstream.cross_correlate.self_s": (self_s[corr], "s"),
        "tagstream.cross_correlate.tags_in": (counts[f"{corr}.tags_in"], "count"),
        "tagstream.cross_correlate.pairs_counted": (counts[f"{corr}.pairs_counted"], "count"),
        "tagstream.sliding_histogram.self_s": (self_s["tagstream.sliding_histogram"], "s"),
        "tagstream.deadtime_correction.self_s":
            (self_s["tagstream.deadtime_correction"], "s"),
        "tagstream.g2_zero.self_s": (self_s["tagstream.g2_zero"], "s"),
        "tagstream.deadtime_coverage": (coverage, "ratio"),
        "core.fit_visibility.self_s": (self_s["core.fit_visibility"], "s"),
        "core.tables.calls": (sum(calls[f"core.coincidence_{kind}"] for kind in
                                  ("quantum", "classical", "mixture")), "count"),
        "stats.similarity.calls": (calls["stats.similarity"], "count"),
        "stats.poisson_mc_similarity.calls": (calls[mc], "count"),
        "stats.poisson_mc_similarity.self_s": (self_s[mc], "s"),
        "stats.poisson_mc_similarity.trials": (counts[f"{mc}.trials"], "count"),
        "stats.poisson_mc_similarity.trials_per_s":
            (_ratio(counts[f"{mc}.trials"], incl_s[mc]), "1/s"),
        "stats.similarity_vs_dt.self_s": (self_s["stats.similarity_vs_dt"], "s"),
        "stats.similarity_vs_dt.windows": (counts["stats.similarity_vs_dt.windows"], "count"),
        "characterize.simulate_fringes.self_s":
            (self_s["characterize.simulate_fringes"], "s"),
        "characterize.reconstruct_matrix.calls":
            (calls["characterize.reconstruct_matrix"], "count"),
        "characterize.reconstruct_matrix.self_s":
            (self_s["characterize.reconstruct_matrix"], "s"),
    }
    for _, _, name, _ in TARGETS:
        out[f"{name}.errors"] = (errors[name], "count")
    return out
