"""The ``deadtime-sweep`` workload body: many short seeded mmi runs in one
process, each analysed like acceptance criterion 9.

Every run is ``simulate_run(with_truth=True)`` over 30 ks with constant
coherence, then three greedy pairings (measured stream, zero-dead-time
truth, two-cycle time offset), the folded profile and the dead-time
correction.  Library functions are looked up on the ``mmi_lab`` package at
call time, so a tracer installed before ``run`` sees them.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext

import mmi_lab as m

RUN_SECONDS = 30_000.0
WINDOW_NS = 300.0


def run(seed: int, runs: int, tracer=None) -> dict:
    """Run ``runs`` seeded runs (seeds ``seed .. seed + runs - 1``).

    Returns the time spent in simulation and in analysis, in total and per
    run, the funnel totals, the digest of all streams and per-run dead-time
    recovery results.
    """
    src = m.SourceConfig(coherence_jitter_sd=0.0)
    det = m.DetectorConfig()
    layout = m.Layout.mmi()
    offset = 2 * src.duty_cycle_ns
    simulate_s = analyze_s = 0.0
    streams = hashlib.sha256()
    funnel = dict.fromkeys(("n_emitted", "delivered_pairs", "detected_pairs",
                            "n_suppressed", "n_tags"), 0)
    results, timings = [], []
    with tracer.span("bench.sweep") if tracer else nullcontext():
        for k in range(runs):
            t0 = time.monotonic()
            stream, truth = m.simulate_run(src, layout, det, RUN_SECONDS,
                                           seed=seed + k, with_truth=True)
            t1 = time.monotonic()
            meas = m.extract_coincidences(stream, window_ns=WINDOW_NS)
            true = m.extract_coincidences(truth.pre_deadtime, window_ns=WINDOW_NS)
            ref = m.extract_coincidences(stream, window_ns=WINDOW_NS,
                                         time_offset_ns=offset)
            prof = m.sliding_histogram(stream, bin_width=8.0, pitch=8.0,
                                       fold_period=src.duty_cycle_ns)
            corr = m.deadtime_correction(meas.dtau_ns, prof, det.dead_time_ns,
                                         ref.same_detector_counts(), meas.counts,
                                         max_dtau_ns=WINDOW_NS)
            t2 = time.monotonic()
            simulate_s += t1 - t0
            analyze_s += t2 - t1
            timings.append((t1 - t0, t2 - t1))
            streams.update(stream.to_bytes())
            for key in funnel:
                funnel[key] += len(stream) if key == "n_tags" else getattr(truth, key)
            recovered = float(corr.corrected.same_detector_values().sum())
            tracked = float(true.same_detector_counts().sum())
            results.append({"seed": seed + k, "n_coincidences": len(meas),
                            "missed": corr.missed, "missed_sigma": corr.missed_sigma,
                            "recovered_same": recovered, "truth_same": tracked,
                            "covered": abs(recovered - tracked) <= 2 * corr.missed_sigma})
    report = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return {"simulate_s": simulate_s, "analyze_s": analyze_s, "funnel": funnel,
            "stream_sha256": streams.hexdigest(),
            "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
            "runs": results, "run_s": timings}
