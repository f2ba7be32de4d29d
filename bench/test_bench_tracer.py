"""Tests for the benchmark tracer: patching is undone, self times account for
the whole root span, and span counts match direct calls."""

import sys

import numpy as np

import mmi_lab
import mmi_lab.cli  # noqa: F401  (loaded before the snapshot, as probes.install loads it)
import probes
from mmi_lab.config import ExperimentConfig
from mmi_lab.tagstream import TimeTagStream
from tracer import Tracer, self_times


def _bindings():
    """Every attribute of every loaded mmi_lab module and patched class."""
    snap = {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
            if name == "mmi_lab" or name.startswith("mmi_lab.")}
    for cls in (ExperimentConfig, TimeTagStream):
        snap[cls.__qualname__] = dict(vars(cls))
    return snap


def test_restore_puts_back_every_original():
    before = _bindings()
    tracer = Tracer()
    probes.install(tracer)
    try:
        patched = _bindings()
        # the package, the defining module and importing modules all see the wrapper
        for name in ("mmi_lab", "mmi_lab.instrument"):
            assert patched[name]["simulate_run"] is not before[name]["simulate_run"]
        assert (patched["mmi_lab.cli"]["extract_coincidences"]
                is patched["mmi_lab.tagstream"]["extract_coincidences"])
        assert patched["TimeTagStream"]["from_file"] is not before["TimeTagStream"]["from_file"]
        assert patched["ExperimentConfig"]["seed_for"] is not before["ExperimentConfig"]["seed_for"]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        for key, value in attrs.items():
            assert after[name][key] is value, (name, key)


def test_self_times_and_gaps_sum_to_root():
    ticks = iter(range(100))
    parent = Tracer(clock=lambda: float(next(ticks)))
    with parent.span("root") as root:
        with parent.span("process") as proc:
            # spans recorded in another process fall inside the process span
            t = proc["start"]
            child = Tracer(clock=iter([t + 0.25, t + 0.5, t + 0.625, t + 0.75]).__next__)
            with child.span("cli.main"):
                with child.span("stats.similarity"):
                    pass
        with parent.span("a"):
            with parent.span("a1"):
                pass
            with parent.span("a2"):
                pass
    parent.graft(child.spans, proc["id"])
    own = self_times(parent.spans)
    by_name = {s["name"]: own[s["id"]] for s in parent.spans}
    assert len(by_name) == 7
    assert sum(own.values()) == root["end"] - root["start"]
    assert by_name["process"] == (proc["end"] - proc["start"]) - 0.5
    assert by_name["cli.main"] == 0.5 - 0.125
    assert by_name["root"] == (root["end"] - root["start"]) - 1.0 - 5.0


def test_overlapping_children_are_covered_once():
    spans = [{"id": 0, "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "parent": 0, "start": 1.0, "end": 5.0},
             {"id": 2, "parent": 0, "start": 3.0, "end": 7.0},
             {"id": 3, "parent": 0, "start": 9.0, "end": 12.0}]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_errors_are_recorded_and_reraised():
    tracer = Tracer()
    probes.install(tracer)
    try:
        try:
            mmi_lab.similarity([1.0, 2.0], [1.0])
        except ValueError:
            pass
        else:
            raise AssertionError("similarity accepted mismatched shapes")
    finally:
        tracer.restore()
    assert probes.layer_metrics(tracer.spans, [], 0.0)["stats.similarity.errors"] == (1, "count")


def test_counts_match_direct_calls(tmp_path):
    src = mmi_lab.SourceConfig(coherence_jitter_sd=0.0)
    det = mmi_lab.DetectorConfig()
    stream, truth = mmi_lab.simulate_run(src, mmi_lab.Layout.mmi(), det, 2000.0,
                                         seed=5, with_truth=True)
    pairs = mmi_lab.extract_coincidences(stream, window_ns=300.0)
    hbt = mmi_lab.simulate_run(src, mmi_lab.Layout.hbt(), det, 2000.0, seed=6)
    hist = mmi_lab.cross_correlate(hbt, 0, 1, range_ns=4000.0)
    path = tmp_path / "run.ttag"

    tracer = Tracer()
    probes.install(tracer)
    try:
        traced, traced_truth = mmi_lab.simulate_run(src, mmi_lab.Layout.mmi(), det,
                                                    2000.0, seed=5, with_truth=True)
        mmi_lab.extract_coincidences(traced, window_ns=300.0)
        mmi_lab.cross_correlate(hbt, 0, 1, range_ns=4000.0)
        traced.write_file(path)
        TimeTagStream.from_file(path)
        counts = np.array([30.0, 12.0, 5.0, 40.0, 9.0, 3.0])
        mmi_lab.poisson_mc_similarity(counts, counts, 3000, 1)
        mmi_lab.poisson_mc_similarity(counts, counts, trials=2000, seed=2)
    finally:
        tracer.restore()

    metrics = {k: v for k, (v, _) in probes.layer_metrics(tracer.spans, [], 0.0).items()}
    assert traced.to_bytes() == stream.to_bytes()
    assert metrics["instrument.simulate_run.calls"] == 1
    assert metrics["instrument.tags_out"] == len(stream)
    assert metrics["instrument.emitted"] == truth.n_emitted
    assert metrics["instrument.tag_yield"] == len(stream) / truth.n_emitted
    assert metrics["tagstream.extract_coincidences.tags_in"] == len(stream)
    assert metrics["tagstream.extract_coincidences.pairs_out"] == len(pairs)
    assert metrics["tagstream.cross_correlate.tags_in"] == len(hbt)
    assert metrics["tagstream.cross_correlate.pairs_counted"] == hist.total_pairs()
    assert metrics["tagstream.io.bytes"] == 2 * path.stat().st_size
    assert metrics["stats.poisson_mc_similarity.trials"] == 5000
    # each Monte-Carlo run computes the raw similarity once
    assert metrics["stats.similarity.calls"] == 2


def test_parse_importtime_counts_outermost_entries_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |       scipy._lib",
        "import time:        40 |         45 |     scipy",
        "import time:        60 |        105 |   scipy.optimize",
        "import time:         7 |        142 | mmi_lab",
        "import time:         3 |          3 |   argparse",
        "import time:         8 |         11 | mmi_lab.cli",
        "import time:         2 |          2 | json",
        "data error: not an import line",
    ])
    parsed = probes.parse_importtime(text)
    assert abs(parsed["import_s"] - 153e-6) < 1e-12
    assert abs(parsed["import_scipy_s"] - 105e-6) < 1e-12
