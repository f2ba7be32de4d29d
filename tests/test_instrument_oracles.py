"""The simulator and the stacked joint density against the original code
(``instrument_oracles``).

Every block of a run must equal the single-generator simulator's phases
(``simulate_block``) bit for bit, and the run must equal their composition
(``composed_run``): byte-identical streams and zero-dead-time streams and
equal truth counts.  That oracle routes orthogonal pairs photon by photon,
where the simulator draws them from the kappa = 0 joint density: those
layouts are checked against the dense oracle blocks, which take the pair
table, and against the replaced rule in distribution.  The density array
must reproduce every number of the dict of per-pair arrays, and the
zero-padded envelope grid every byte of the resampled one.  The oracle
keeps its own pair sampler, so the cached draw tables are checked too.
Against the whole-run ``simulate_run`` oracle, which draws every photon
from one generator, only the funnel means can agree.
"""

import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from instrument_oracles import _TRANSIT_CHUNK, DrawLog, dense_simulate_block, dense_tables
from instrument_oracles import _apply_dead_time as oracle_apply_dead_time
from instrument_oracles import _on_grid as oracle_on_grid
from instrument_oracles import _PairSampler
from instrument_oracles import hom_profile as oracle_hom_profile
from instrument_oracles import joint_density as oracle_joint_density
from instrument_oracles import sample_times as oracle_sample_times
from instrument_oracles import simulate_block as oracle_simulate_block
from instrument_oracles import simulate_run as oracle_simulate_run
from instrument_oracles import stacked_dtau_marginal

from mmi_lab import (CoherenceModel, DetectorConfig, Layout, SourceConfig, TimeTagStream,
                     TransferMatrix, Wavepacket, balanced_splitter, calibrate_gaussian_jitter,
                     config, hom_profile, instrument, joint_density, measured_chip_matrix,
                     mode_pairs, random_unitary, simulate_run, sin2_envelope, temporal)
from mmi_lab.instrument import (_apply_dead_time, _block_bounds, _draw_tables, _DrawTables,
                                _emission_times, _pair_cells, _route, _simulate_block,
                                _time_table)

CONSTANT = SourceConfig(coherence_jitter_sd=0.0)
HOM_PARALLEL = Layout(kind="hom_splitter", interference_matrix=balanced_splitter(),
                      polarization="parallel")
HOM_ORTHOGONAL = Layout(kind="hom_splitter", interference_matrix=balanced_splitter(),
                        polarization="orthogonal")
TRUTH_FIELDS = ("n_emitted", "delivered_pairs", "detected_pairs", "n_suppressed",
                "n_kept", "n_dark", "n_outside", "n_transits", "n_blocks")


def block_seed(seed, b):
    return np.random.SeedSequence(seed, spawn_key=(b,))


def composed_run(source, layout, detectors, seconds, seed, block=None):
    """``(stream, truth, blocks)`` of a run put together from its parts: the
    root generator's transits, the block edges, the oracle blocks (``block``
    of the transit intervals and the block's generator, else the
    single-generator oracle's), the root generator's dark counts and the
    tag-by-tag dead time.  ``blocks`` holds each block's transit intervals."""
    if block is None:
        def block(intervals, rng):
            return oracle_simulate_block(source, layout, detectors, intervals, rng,
                                         chunk=intervals.size)
    rng = np.random.default_rng(seed)
    n_transits = int(rng.poisson(source.atom_transit_rate * seconds))
    wall_ns = seconds * 1e9
    n_intervals = int(wall_ns // source.duty_cycle_ns)
    transit_intervals = np.sort(rng.integers(0, max(n_intervals, 1),
                                             size=n_transits)).astype(np.int64)
    n_det = layout.n_detectors
    dark_mean = detectors.dark_rate_per_hour * seconds / 3600.0
    dark_ch = [np.full(int(rng.poisson(dark_mean)), ch, dtype=np.uint8)
               for ch in range(n_det)]
    dark_t = [rng.random(c.size) * wall_ns for c in dark_ch]
    bounds = _block_bounds(transit_intervals, source.pulses_per_transit)
    blocks = [transit_intervals[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    outs = [block(intervals, np.random.default_rng(block_seed(seed, b)))
            for b, intervals in enumerate(blocks)]
    channel = np.concatenate([o[0] for o in outs] + dark_ch)
    t_ns = np.concatenate([o[1] for o in outs] + dark_t)
    inside = (t_ns >= 0) & (t_ns < wall_ns)
    channel, t_ns = channel[inside], t_ns[inside]
    ticks = np.round(t_ns / detectors.tick_ns).astype(np.int64)
    order = np.lexsort((channel, ticks))
    channel, ticks = channel[order], ticks[order]
    dead_ticks = int(round(detectors.dead_time_ns / detectors.tick_ns))
    keep = oracle_apply_dead_time(channel, ticks, n_det, dead_ticks)
    truth = instrument.TruthRecord(
        pre_deadtime=TimeTagStream(channel, ticks, n_channels=n_det, tick_fs=detectors.tick_fs),
        n_emitted=sum(o[2] for o in outs),
        delivered_pairs=sum(o[3] for o in outs),
        detected_pairs=sum(o[4] for o in outs),
        n_suppressed=int(np.sum(~keep)),
        n_kept=sum(o[0].size for o in outs),
        n_dark=sum(c.size for c in dark_ch),
        n_outside=int(inside.size - np.count_nonzero(inside)),
        n_transits=n_transits,
        n_blocks=len(blocks))
    stream = TimeTagStream(channel[keep], ticks[keep], n_channels=n_det,
                           tick_fs=detectors.tick_fs)
    return stream, truth, blocks


def same_block(got, want):
    for a, b in zip(got[:2], want[:2], strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes()
    assert got[2:] == want[2:]


def pairs_by_photon(layout):
    """Whether the single-generator oracle routes ``layout``'s pairs photon by
    photon, the rule that the kappa = 0 joint density replaced for
    orthogonal polarisations; its blocks then differ from the simulator's,
    and the dense oracle blocks, which take the pair table, are the
    reference."""
    return layout.kind != "hbt" and layout.polarization == "orthogonal"


def dense_block(source, layout, detectors, tables=None):
    """``dense_simulate_block`` as a block function of the transit intervals
    and the block's generator, over ``tables`` (else ``dense_tables``)."""
    tables = dense_tables(source, layout) if tables is None else tables

    def block(intervals, rng):
        return dense_simulate_block(source, layout, detectors, intervals, rng, tables)
    return block


def check_dense_block(source, layout, detectors, transit_intervals, rng_seed):
    """``(block, log)``: ``_simulate_block`` from one seed, equal to the dense
    oracle block and drawing what it draws; ``log`` is its :class:`DrawLog`."""
    log, dense_log = (DrawLog(np.random.default_rng(rng_seed)) for _ in range(2))
    got = _simulate_block(source, layout, detectors, transit_intervals, log,
                          _draw_tables(source, layout))
    want = dense_simulate_block(source, layout, detectors, transit_intervals, dense_log,
                                dense_tables(source, layout))
    same_block(got, want)
    assert log.consumption() == dense_log.consumption()
    return got, log


def check_block(source, layout, detectors, transit_intervals, rng_seed):
    """``_simulate_block`` against the oracle block from one seed: the dense
    one where :func:`pairs_by_photon`, else the single-generator one."""
    if pairs_by_photon(layout):
        return check_dense_block(source, layout, detectors, transit_intervals, rng_seed)[0]
    got = _simulate_block(source, layout, detectors, transit_intervals,
                          np.random.default_rng(rng_seed), _draw_tables(source, layout))
    want = oracle_simulate_block(source, layout, detectors, transit_intervals,
                                 np.random.default_rng(rng_seed), chunk=transit_intervals.size)
    same_block(got, want)
    return got


def check_run(source, layout, seconds, seed, detectors=DetectorConfig()):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, truth = simulate_run(source, layout, detectors, seconds, seed, with_truth=True)
        block = dense_block(source, layout, detectors) if pairs_by_photon(layout) else None
        want, want_truth, blocks = composed_run(source, layout, detectors, seconds, seed, block)
        for b, intervals in enumerate(blocks):
            check_block(source, layout, detectors, intervals, block_seed(seed, b))
    assert got.to_bytes() == want.to_bytes()
    assert truth.pre_deadtime.to_bytes() == want_truth.pre_deadtime.to_bytes()
    for name in TRUTH_FIELDS:
        assert getattr(truth, name) == getattr(want_truth, name), name
    assert simulate_run(source, layout, detectors, seconds, seed).to_bytes() == got.to_bytes()
    return truth


@pytest.mark.parametrize("layout", [
    Layout.mmi(),
    Layout(polarization="orthogonal"),
    Layout(input_delayed=2, input_direct=3),
    Layout(input_delayed=3, input_direct=0, polarization="orthogonal"),
    HOM_PARALLEL,
    HOM_ORTHOGONAL,
    Layout.hbt(),
], ids=["mmi", "mmi-orthogonal", "mmi-inputs-3-4", "mmi-inputs-4-1-orthogonal",
        "hom-parallel", "hom-orthogonal", "hbt"])
def test_layouts_match_oracle(layout):
    truth = check_run(SourceConfig(), layout, 20_000.0, seed=41000)
    assert truth.n_emitted > 0
    if layout.kind != "hbt":
        assert truth.detected_pairs > 0


@pytest.mark.parametrize("layout", [Layout.mmi(), Layout.hbt()], ids=["mmi", "hbt"])
def test_constant_coherence_source_matches_oracle(layout):
    check_run(CONSTANT, layout, 30_000.0, seed=7)


@pytest.mark.parametrize("layout", [Layout.mmi(), HOM_ORTHOGONAL, Layout.hbt()],
                         ids=["mmi", "hom-orthogonal", "hbt"])
def test_zero_transits_give_dark_counts_only(layout):
    source = SourceConfig(atom_transit_rate=0.0)
    truth = check_run(source, layout, 400_000.0, seed=3)
    assert truth.n_emitted == 0 and truth.delivered_pairs == 0
    assert len(truth.pre_deadtime) > 0


@pytest.mark.parametrize("layout", [Layout.mmi(), Layout.hbt()], ids=["mmi", "hbt"])
def test_zero_emission(layout):
    source = SourceConfig(emission_prob=0.0, two_photon_prob=0.0, overall_efficiency=0.0)
    truth = check_run(source, layout, 5_000.0, seed=4)
    assert truth.n_emitted == 0


@pytest.mark.parametrize("polarization", ["parallel", "orthogonal"])
def test_zero_delivered_pairs(polarization):
    # one attempt per transit and no routing errors or double emissions:
    # pairs need two transits in adjacent duty cycles
    source = SourceConfig(pulses_per_transit=1, routing_error_prob=0.0,
                          two_photon_prob=0.0)
    truth = check_run(source, Layout(polarization=polarization), 5_000.0, seed=5)
    assert truth.n_emitted > 0 and truth.delivered_pairs == 0


@pytest.mark.parametrize("polarization", ["parallel", "orthogonal"])
def test_single_delivered_pair(polarization):
    # three pulses of a perfect source: whatever the phase, the middle photon
    # pairs with one neighbour, so a transit delivers exactly one pair
    source = SourceConfig(emission_prob=1.0, two_photon_prob=0.0, dark_state_prob=0.0,
                          routing_error_prob=0.0, pulses_per_transit=3,
                          overall_efficiency=1.0)
    layout = Layout(polarization=polarization)
    got = check_block(source, layout, DetectorConfig(), np.array([68], dtype=np.int64), 68)
    assert got[2:4] == (3, 1)
    truth = check_run(source, layout, 10.0, seed=68)
    assert truth.delivered_pairs == truth.n_transits == truth.n_emitted / 3


def test_block_larger_than_an_emission_chunk():
    # 6,000 transits in 20 ms are about 5 duty cycles apart: no gap is longer
    # than a train, so the run is one block of more than one of the
    # single-generator simulator's emission chunks, emitted in one pass
    truth = check_run(SourceConfig(atom_transit_rate=3e5), Layout.mmi(), 0.02, seed=12)
    assert truth.n_blocks == 1 and truth.n_transits > _TRANSIT_CHUNK


DENSE_LAYOUTS = {
    "mmi": Layout.mmi(),
    "mmi-orthogonal": Layout(polarization="orthogonal"),
    # the delayed input above the direct one: the direct photons draw first
    "mmi-inputs-4-1": Layout(input_delayed=3, input_direct=0),
    "mmi-inputs-4-1-orthogonal": Layout(input_delayed=3, input_direct=0,
                                        polarization="orthogonal"),
    "hom-parallel": HOM_PARALLEL,
    "hom-orthogonal": HOM_ORTHOGONAL,
    "hbt": Layout.hbt(),
}
EDGE_SOURCES = {
    "default": SourceConfig(),
    "two-photon-equals-emission": SourceConfig(two_photon_prob=0.3),
    "no-dark-state": SourceConfig(dark_state_prob=0.0),
    "always-dark": SourceConfig(dark_state_prob=1.0),
    "no-emission": SourceConfig(emission_prob=0.0, two_photon_prob=0.0,
                                overall_efficiency=0.0),
    "one-pulse": SourceConfig(pulses_per_transit=1),
}
# a block of 2,048 transits about 2,000 duty cycles apart, and one about 50
# apart, whose trains overlap
SPREAD = np.sort(np.random.default_rng(5).integers(0, 4_000_000, 2048))
CROWDED = np.sort(np.random.default_rng(6).integers(0, 100_000, 2048))


@pytest.mark.parametrize("source", EDGE_SOURCES.values(), ids=EDGE_SOURCES)
@pytest.mark.parametrize("layout", DENSE_LAYOUTS.values(), ids=DENSE_LAYOUTS)
def test_block_equals_the_dense_block(layout, source):
    for seed, intervals in enumerate((SPREAD, CROWDED)):
        got, _ = check_dense_block(source, layout, DetectorConfig(), intervals, seed)
        # a dark-state branch replaces every emission of an always-dark source
        assert (got[2] > 0) == (source.emission_prob > 0 and source.dark_state_prob < 1)


@pytest.mark.parametrize("layout", DENSE_LAYOUTS.values(), ids=DENSE_LAYOUTS)
def test_block_makes_the_dense_blocks_generator_calls(layout):
    # check_dense_block asserts the two logs' consumption is equal; here the
    # log itself: every kind of draw the layout has, in the dense order
    _, log = check_dense_block(SourceConfig(), layout, DetectorConfig(), CROWDED, 7)
    methods = [entry[0] for entry in log.consumption()]
    channels = ["integers", "random"] if layout.kind == "hbt" else []
    assert methods == ["random", "integers", "random", *channels, "normal"]
    # after the phases: two emission-time uniforms per photon, then the
    # channels or the routing errors, and last the detection draw
    sizes = [np.size(call[3]) for call in log.calls]
    phases = [call[0] for call in log.calls].index("integers")
    assert sizes[phases + 1:phases + 4] == [sizes[-2]] * 3 and sizes[-2] > 0


@pytest.mark.parametrize("layout", DENSE_LAYOUTS.values(), ids=DENSE_LAYOUTS)
def test_block_where_no_photon_survives(layout):
    source = SourceConfig(overall_efficiency=1e-12)
    got, log = check_dense_block(source, layout, DetectorConfig(), CROWDED, 8)
    assert got[0].size == got[1].size == got[4] == 0 and got[2] > 0
    assert [c[0] for c in log.calls][-1] == "random"  # no jitter draw


@pytest.mark.parametrize("polarization", ["parallel", "orthogonal"])
def test_block_without_delivered_pairs(polarization):
    # one attempt per transit and no routing errors or double emissions,
    # transits far apart: no two photons share an arrival interval
    source = SourceConfig(pulses_per_transit=1, routing_error_prob=0.0, two_photon_prob=0.0,
                          dark_state_prob=0.0, emission_prob=1.0, overall_efficiency=0.5)
    got, _ = check_dense_block(source, Layout(polarization=polarization), DetectorConfig(),
                               SPREAD, 9)
    assert got[2] == 2048 and got[3] == 0 and got[0].size > 0


@pytest.mark.parametrize("layout", [Layout.mmi(), Layout(polarization="orthogonal"),
                                    Layout(input_delayed=3, input_direct=0),
                                    HOM_PARALLEL, HOM_ORTHOGONAL],
                         ids=["mmi", "mmi-orthogonal", "mmi-inputs-4-1", "hom-parallel",
                              "hom-orthogonal"])
def test_pairs_with_none_one_and_both_photons_kept(layout):
    # three pulses of a perfect source: a transit delivers exactly one pair,
    # and each photon survives with probability one half
    source = SourceConfig(emission_prob=1.0, two_photon_prob=0.0, dark_state_prob=0.0,
                          routing_error_prob=0.0, pulses_per_transit=3,
                          overall_efficiency=0.5)
    got, log = check_dense_block(source, layout, DetectorConfig(), SPREAD[:300], 10)
    n_pairs = got[3]
    assert n_pairs == 300
    # the pair photons' detection draws lead the last uniform draw, in routed order
    kept = [c[3] for c in log.calls if c[0] == "random"][-1][:2 * n_pairs] < 0.5
    survivors = np.bincount(kept.reshape(2, -1).sum(axis=0), minlength=3)
    assert survivors.min() > 0 and survivors[2] == got[4]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("layout", [Layout.mmi(), HOM_PARALLEL, HOM_ORTHOGONAL, Layout.hbt()],
                         ids=["mmi", "hom-parallel", "hom-orthogonal", "hbt"])
def test_runs_equal_dense_runs_at_any_thread_count(monkeypatch, layout, threads):
    monkeypatch.setenv("MMI_LAB_THREADS", threads)
    source, detectors = SourceConfig(), DetectorConfig()
    got, truth = simulate_run(source, layout, detectors, 40_000.0, 43, with_truth=True)
    want, want_truth, blocks = composed_run(source, layout, detectors, 40_000.0, 43,
                                            dense_block(source, layout, detectors))
    assert len(blocks) > 2
    assert got.to_bytes() == want.to_bytes()
    assert truth.pre_deadtime.to_bytes() == want_truth.pre_deadtime.to_bytes()
    for name in TRUTH_FIELDS:
        assert getattr(truth, name) == getattr(want_truth, name), name


FUNNEL = ("n_emitted", "delivered_pairs", "detected_pairs", "n_kept", "n_dark",
          "n_suppressed")
FUNNEL_RUNS = 16
FUNNEL_Z = 4.0  # standard errors of the difference of two independent means


@pytest.mark.parametrize("layout", [Layout.mmi(), HOM_ORTHOGONAL], ids=["mmi", "hom-orthogonal"])
def test_funnel_means_match_the_single_generator_oracle(layout):
    # blocks draw from other streams than the whole-run generator, so single
    # runs differ; over FUNNEL_RUNS seeded 10 ks runs on each side, every
    # funnel mean must agree with the oracle's within FUNNEL_Z standard errors
    # (the oracle routes orthogonal pairs photon by photon)
    args = (SourceConfig(), layout, DetectorConfig(), 10_000.0)
    new, old = (np.array([[getattr(truth, name) for name in FUNNEL]
                          for truth in (run(*args, seed, with_truth=True)[1]
                                        for seed in range(FUNNEL_RUNS))], dtype=float)
                for run in (simulate_run, oracle_simulate_run))
    se = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / FUNNEL_RUNS)
    for name, a, b, e in zip(FUNNEL, new.mean(axis=0), old.mean(axis=0), se):
        assert abs(a - b) <= FUNNEL_Z * e, (name, a, b, e)


TWO_SAMPLE_BLOCKS = 48
TWO_SAMPLE_Z = 4.0  # standard errors of the difference of two independent means


def block_statistics(block, duty_ns):
    """A block's tags per channel, detected pairs and cross coincidences:
    tags next to each other in time, in one duty cycle, on two channels."""
    channel, t_ns, _, _, detected_pairs = block
    order = np.argsort(t_ns)
    channel, cycle = channel[order], np.floor(t_ns[order] / duty_ns)
    cross = np.count_nonzero((cycle[1:] == cycle[:-1]) & (channel[1:] != channel[:-1]))
    return [*np.bincount(channel, minlength=2), detected_pairs, cross]


def test_orthogonal_pairs_keep_the_distribution_of_the_replaced_rule():
    # the kappa = 0 joint density routes and times a distinguishable pair's
    # photons independently, as the per-photon rule it replaced did: the dense
    # block over tables without the pair fields.  Over TWO_SAMPLE_BLOCKS
    # seeded blocks a side, every statistic's mean agrees within TWO_SAMPLE_Z
    # standard errors
    source, detectors = SourceConfig(), DetectorConfig()
    replaced = dense_block(source, HOM_ORTHOGONAL, detectors,
                           dataclasses.replace(dense_tables(source, HOM_ORTHOGONAL),
                                               pair_cdf=None, pair_shape=(), pair_modes=None))
    tables = _draw_tables(source, HOM_ORTHOGONAL)

    def block(intervals, rng):
        return _simulate_block(source, HOM_ORTHOGONAL, detectors, intervals, rng, tables)

    new, old = (np.array([block_statistics(run(SPREAD, np.random.default_rng([side, b])),
                                           source.duty_cycle_ns)
                          for b in range(TWO_SAMPLE_BLOCKS)], dtype=float)
                for side, run in enumerate((block, replaced)))
    se = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / TWO_SAMPLE_BLOCKS)
    names = ("channel 0", "channel 1", "detected_pairs", "cross coincidences")
    for name, a, b, e in zip(names, new.mean(axis=0), old.mean(axis=0), se):
        assert abs(a - b) <= TWO_SAMPLE_Z * e, (name, a, b, e)


def nonunitary(n_modes, seed):
    rng = np.random.default_rng(seed)
    return TransferMatrix(rng.random((n_modes, n_modes))
                          * np.exp(2j * np.pi * rng.random((n_modes, n_modes))))


@pytest.mark.parametrize("layout", [
    Layout(polarization="orthogonal"),
    Layout(input_delayed=3, input_direct=0, polarization="orthogonal"),
    HOM_ORTHOGONAL,
    Layout(interference_matrix=nonunitary(3, 340), input_delayed=2, input_direct=0,
           polarization="orthogonal"),
    Layout(interference_matrix=nonunitary(5, 341), input_delayed=1, input_direct=4,
           polarization="orthogonal"),
], ids=["chip", "chip-inputs-4-1", "splitter", "random3", "random5"])
def test_distinguishable_pair_mass_is_the_product_of_the_routing_rows(layout):
    # with kappa = 0 a mode pair's mass is that of the delayed photon at one
    # output and the direct one at the other, each routed by its own row
    tables = _draw_tables(SourceConfig(), layout)
    mass = np.diff(tables.pair_cdf.reshape(tables.pair_shape[0], -1)[:, -1], prepend=0.0)
    direct, delayed = np.diff(tables.route_cdf, prepend=0.0, axis=1)
    both = np.outer(delayed, direct)
    k, l = tables.pair_modes.T
    want = np.where(k == l, both[k, l], both[k, l] + both[l, k])
    assert mass.shape == want.shape and np.abs(mass - want).max() <= 1e-12


class AlmostOne:
    """A generator stub whose every uniform draw is the largest float below 1."""

    def random(self, size=None):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_top_pair_draw_lands_in_the_last_cell_with_mass():
    # the CDF ends at exactly 1: a draw just below it finds the last cell
    # that has mass instead of running off the end of the grid
    tables = _draw_tables(SourceConfig(), Layout.mmi())
    cdf, shape, dt = tables.pair_cdf, tables.pair_shape, tables.dt
    assert cdf[-1] == 1.0
    pair, c1, c2 = np.unravel_index(np.flatnonzero(np.diff(cdf, prepend=0.0) > 0)[-1], shape)
    u = AlmostOne().random(3)
    pair_at, c1_at, c2_at = _pair_cells(tables, u)
    k, l = tables.pair_modes[pair_at].T
    t1, t2 = (c1_at + u) * dt, (c2_at + u) * dt
    u = np.nextafter(1.0, 0.0)
    rows, cols = np.triu_indices(4)
    assert np.array_equal(k, [rows[pair]] * 3) and np.array_equal(l, [cols[pair]] * 3)
    assert np.array_equal(t1, [(c1 + u) * dt] * 3) and np.array_equal(t2, [(c2 + u) * dt] * 3)


def test_top_single_draw_lands_in_the_last_output_with_mass(chip):
    delayed = np.zeros(3, dtype=bool)  # at the direct input, the chip's input 2
    last = np.flatnonzero(np.abs(chip.elements[1]) > 0)[-1]
    tables = _draw_tables(SourceConfig(), Layout(interference_matrix=chip,
                                                 polarization="orthogonal"))
    assert tables.route_cdf[0][-1] == 1.0
    assert np.array_equal(_route(tables, delayed, AlmostOne().random(3)), [last] * 3)


@pytest.mark.parametrize("dead_time_ns", [0.0, 50.0, 400.0, 5_000.0])
def test_dead_times_match_oracle(dead_time_ns):
    truth = check_run(SourceConfig(), Layout.mmi(), 20_000.0, seed=42,
                      detectors=DetectorConfig(dead_time_ns=dead_time_ns))
    assert (truth.n_suppressed > 0) == (dead_time_ns > 0)


def test_pair_sampler_cache_serves_interleaved_configurations(chip):
    # a key collision or a stale entry would hand a run another
    # configuration's tables and change its stream
    _draw_tables.cache_clear()
    calibrated = SourceConfig()
    runs = [(calibrated, Layout(interference_matrix=chip)),
            (calibrated, Layout(interference_matrix=chip, input_delayed=2, input_direct=3)),
            (CONSTANT, Layout(interference_matrix=chip)),
            (calibrated, HOM_PARALLEL),
            (calibrated, Layout(interference_matrix=chip))]
    for seed, (source, layout) in enumerate(runs, 900):
        assert check_run(source, layout, 5_000.0, seed).delivered_pairs > 0
    info = _draw_tables.cache_info()
    # check_run simulates each configuration twice and checks its one block
    # with the cached tables; only the last configuration was cached before
    assert (info.misses, info.hits, info.currsize) == (4, 11, 4)


def test_equal_configurations_share_one_sampler(monkeypatch):
    # the coherence calibration and the joint density depend only on the
    # configuration: two runs of the default profile compute each once
    calls = Counter()
    for name in ("joint_density", "calibrate_gaussian_jitter"):
        def counted(*args, _fn=getattr(instrument, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(instrument, name, counted)
    _draw_tables.cache_clear()
    for seed in (1, 2):
        cfg = config.default_config()
        simulate_run(cfg.source, cfg.build_layout(), cfg.detectors, 5_000.0, seed)
    assert calls == {"joint_density": 1, "calibrate_gaussian_jitter": 1}


def test_cached_samplers_are_read_only(envelope):
    tables = _draw_tables(CONSTANT, Layout.mmi())
    for arr in (tables.pair_cdf, tables.pair_modes, tables.time_cdf, tables.time_bins,
                *tables.route_cdf, *_time_table(envelope)):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        tables.pair_cdf = None


def _gapped_envelope():
    # zero-intensity cells give runs of equal CDF values
    amp = np.zeros(400)
    amp[50:150] = amp[300:320] = 1.0
    amp[200] = 1e-6
    return Wavepacket(400.0, 1.0, amp / np.sqrt(np.sum(amp ** 2)))


@pytest.mark.parametrize("envelope", [sin2_envelope(300.0), sin2_envelope(37.0, 0.25),
                                      _gapped_envelope()], ids=["300ns", "37ns", "gapped"])
@pytest.mark.parametrize("size", [0, 1, 200_000])
def test_sample_times_matches_oracle(envelope, size):
    tables = _DrawTables(envelope.dt, *_time_table(envelope), route_cdf=None)
    rng = np.random.default_rng(size)
    got = _emission_times(tables, rng.random(size), rng.random(size))
    want = oracle_sample_times(envelope, np.random.default_rng(size), size)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def dead_time_cases(draw):
    """Tags in simulator order (ticks, then channel) and a dead time.

    Gaps of zero put equal ticks on one channel or several, runs of small
    gaps make bursts, and the gaps straddle the 617-tick dead time.
    """
    n_channels = draw(st.integers(1, 4))
    gap = st.one_of(st.sampled_from([0, 1, 616, 617, 618]), st.integers(0, 40),
                    st.integers(0, 1300))
    gaps = draw(st.lists(gap, max_size=120))
    ticks = draw(st.integers(0, 10**6)) + np.cumsum(np.array(gaps, dtype=np.int64))
    channel = np.array(draw(st.lists(st.integers(0, n_channels - 1), min_size=len(gaps),
                                     max_size=len(gaps))), dtype=np.int64)
    order = np.lexsort((channel, ticks))
    span = int(np.ptp(ticks)) if ticks.size else 0
    dead = draw(st.sampled_from([0, 1, 617, span + 1]))
    return channel[order], ticks[order], dead


@settings(max_examples=400, deadline=None)
@given(dead_time_cases())
@example((np.array([], np.int64), np.array([], np.int64), 617))
@example((np.array([], np.int64), np.array([], np.int64), 0))
@example((np.zeros(4, np.int64), np.array([0, 0, 1, 5], np.int64), 0))
@example((np.array([3], np.int64), np.array([0], np.int64), 1))
@example((np.zeros(50, np.int64), np.arange(50, dtype=np.int64) * 300, 617))
def test_dead_time_matches_loop(case):
    channel, ticks, dead = case
    got = _apply_dead_time(channel, ticks, dead)
    assert got.dtype == bool
    assert np.array_equal(got, oracle_apply_dead_time(channel, ticks, 4, dead))


def test_no_detection_and_no_dead_time():
    detectors = DetectorConfig(dead_time_ns=0.0, jitter_sd_ps=0.0)
    truth = check_run(SourceConfig(overall_efficiency=0.0), Layout.mmi(), 5_000.0, seed=6,
                      detectors=detectors)
    assert truth.detected_pairs == 0


def test_sample_pairs_matches_pair_sampler(envelope, chip):
    source = SourceConfig(coherence_jitter_sd=0.0128)
    sampler = _PairSampler(chip, 1, 3, envelope, source.coherence())
    layout = Layout(interference_matrix=chip, input_delayed=1, input_direct=3)
    tables = _draw_tables(source, layout)
    rng = np.random.default_rng(11)
    pair, c1, c2 = _pair_cells(tables, rng.random(200_000))
    got = (*tables.pair_modes[pair].T, (c1 + rng.random(200_000)) * tables.dt,
           (c2 + rng.random(200_000)) * tables.dt)
    want = sampler.sample(np.random.default_rng(11), 200_000)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["chip", "chip-inputs-4-2", "splitter", "random6",
                                  "incoherent"])
def test_stacked_density_equals_dict_form(case, chip, envelope):
    matrix, i, j, coherence = {
        "chip": (chip, 0, 1, CoherenceModel.gaussian(0.0128)),
        "chip-inputs-4-2": (chip, 3, 1, CoherenceModel.gaussian(0.02)),
        # float dust below zero in the cross pair: the clip must match
        "splitter": (balanced_splitter(), 0, 1, CoherenceModel.perfect()),
        "random6": (random_unitary(6, np.random.default_rng(8)), 4, 2,
                    CoherenceModel.gaussian(0.005)),
        "incoherent": (measured_chip_matrix(), 2, 0, CoherenceModel.incoherent()),
    }[case]
    args = (matrix, i, j, envelope, envelope, coherence)
    got, want = joint_density(*args, t_max=360.0), oracle_joint_density(*args, t_max=360.0)
    pairs = mode_pairs(matrix.n_modes)
    assert isinstance(got.densities, np.ndarray) and got.densities.dtype == np.float64
    assert np.array_equal(got.t, want.t) and got.dt == want.dt
    assert np.array_equal(got.densities, np.stack([want.densities[p] for p in pairs]))
    assert np.array_equal(got.integrate().values, want.integrate().values)
    for pair in [pairs[0], pairs[-1], (1, 0), (matrix.n_modes - 1, 0)]:
        for a, b in zip(stacked_dtau_marginal(got, pair), want.dtau_marginal(pair)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("coherence", ["perfect", "incoherent", "calibrated", "gaussian"])
@pytest.mark.parametrize("durations", [(300.0, 300.0), (300.0, 200.0)])
def test_hom_profile_equals_2d_marginal(durations, coherence):
    # the correlations sum the anti-diagonals in another order, and the
    # splitter's 1/4 is exact where |1/sqrt(2)|^4 is not: equal to rounding
    env_1, env_2 = (sin2_envelope(d, 1.0) for d in durations)
    coh = {"perfect": CoherenceModel.perfect(), "incoherent": CoherenceModel.incoherent(),
           "calibrated": calibrate_gaussian_jitter(env_1, 0.708),
           "gaussian": CoherenceModel.gaussian(0.05)}[coherence]
    got, want = hom_profile(env_1, env_2, coh), oracle_hom_profile(env_1, env_2, coh)
    assert np.array_equal(got.dtau, want.dtau)
    peak = want.orthogonal.max()
    for a, b in ((got.parallel, want.parallel), (got.orthogonal, want.orthogonal)):
        assert np.abs(a - b).max() <= 1e-14 * peak
    assert abs(got.visibility_integrated - want.visibility_integrated) <= 1e-14


@pytest.mark.parametrize("t_max_share", [0.01, 0.37, 0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("durations, dt", [((300.0, 300.0), 1.0), ((300.0, 200.0), 1.0),
                                           ((200.0, 300.0), 1.0), ((120.0, 75.0), 0.5),
                                           ((100.0, 100.0), 0.3)])
def test_padded_grid_equals_resampled_grid(durations, dt, t_max_share):
    # t_max from one cell of the longer envelope to twice its length: cut,
    # exact and padded on either envelope
    env_1, env_2 = (sin2_envelope(d, dt) for d in durations)
    t_max = t_max_share * max(durations)
    got, want = temporal._on_grid(env_1, env_2, t_max), oracle_on_grid(env_1, env_2, t_max)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("durations", [(300.0, 300.0), (300.0, 200.0)])
@pytest.mark.parametrize("t_max", [200.0, 300.0, 450.0])
def test_density_and_profile_keep_their_bytes_on_the_padded_grid(monkeypatch, chip,
                                                                 durations, t_max):
    env_1, env_2 = (sin2_envelope(d, 1.0) for d in durations)
    coh = CoherenceModel.gaussian(0.0128)
    runs = []
    for grid in (temporal._on_grid, oracle_on_grid):
        monkeypatch.setattr(temporal, "_on_grid", grid)
        prof = hom_profile(env_1, env_2, coh)
        runs.append([joint_density(chip, 2, 0, env_1, env_2, coh, t_max).densities,
                     prof.dtau, prof.parallel, prof.orthogonal,
                     np.float64(prof.visibility_integrated)])
    for a, b in zip(*runs, strict=True):
        assert a.tobytes() == b.tobytes()
