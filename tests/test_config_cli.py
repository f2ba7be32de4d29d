import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mmi_lab
from mmi_lab import (TimeTagStream, _runtime, balanced_splitter, config, instrument, pipeline,
                     simulate_fringes, simulate_run)
from mmi_lab.cli import main
from mmi_lab.core import ModeIndexError
from mmi_lab.instrument import ConfigError

RUN_TOO_LARGE = ("expected transits and tags are too many to allocate: lower --seconds, "
        "[source] atom_transit_rate or [detectors] dark_rate_per_hour")


class TestConfigParsing:
    def test_default_profile_loads(self):
        cfg = config.default_config()
        assert cfg.source.duty_cycle_ns == 664.0
        assert cfg.source.coherence_jitter_sd is None  # calibrated
        assert cfg.detectors.dead_time_ns == 50.0
        assert cfg.layout.kind == "mmi"
        assert cfg.analysis.mc_trials == 1_000_000

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config.loads("[source]\nemision_prob = 0.5\n")

    @pytest.mark.parametrize("text", ["[detectors]\nefficiency = 0.85\n",
                                      "[layout]\ndelay_line_ns = 664\n"])
    def test_removed_keys_rejected(self, tmp_path, capsys, text):
        # the simulator never read these: the delay is one duty cycle by
        # construction and overall_efficiency already includes detection
        cfg = tmp_path / "old.cfg"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--seconds", "10",
                     "--out", str(tmp_path / "x.ttag")]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        (name, f.name) for name, cls in config._SECTION_TYPES.items()
        for f in dataclasses.fields(cls) if f.default is None or isinstance(f.default, float)])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_names_key(self, section, key, value):
        message = f"[{section}] {key}: '{value}' is not finite"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config.loads(f"[{section}]\n{key} = {value}\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config sections"):
            config.loads("[sauce]\nx = 1\n")

    @pytest.mark.parametrize("text, message", [
        ("[layout]\nkind = mmj\n",
         "layout kind must be one of ('hbt', 'hom_splitter', 'mmi'), got 'mmj'"),
        ("[layout]\npolarization = sideways\n",
         "polarization must be one of ('parallel', 'orthogonal'), got 'sideways'"),
    ])
    def test_unknown_layout_name_rejected_at_load(self, text, message):
        with pytest.raises(ConfigError, match=re.escape(f"invalid [layout] section: {message}")):
            config.loads(text)

    def test_invalid_value_reported_with_section(self):
        with pytest.raises(ConfigError, match=r"\[source\]"):
            config.loads("[source]\nemission_prob = 1.7\n")

    @pytest.mark.parametrize("text, key", [
        ("[source]\npulses_per_transit = abc\n", "[source] pulses_per_transit"),
        ("[source]\ncoherence_jitter_sd = fast\n", "[source] coherence_jitter_sd"),
        ("[detectors]\ntick_fs = 81.5\n", "[detectors] tick_fs"),
        ("[analysis]\nmc_trials = 1e6\n", "[analysis] mc_trials"),
    ])
    def test_unparsable_value_names_key(self, tmp_path, capsys, text, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config.loads(text)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--seconds", "10",
                     "--out", str(tmp_path / "x.ttag")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["none", "Auto", " calibrated "])
    def test_optional_float_none_spellings(self, raw):
        cfg = config.loads(f"[source]\ncoherence_jitter_sd = {raw}\n")
        assert cfg.source.coherence_jitter_sd is None

    def test_explicit_jitter_value(self):
        cfg = config.loads("[source]\ncoherence_jitter_sd = 0.0128\n")
        assert cfg.source.coherence_jitter_sd == 0.0128

    def test_seed_derivation_stable_and_distinct(self):
        cfg = config.default_config()
        assert cfg.seed_for("simulate") == cfg.seed_for("simulate")
        assert cfg.seed_for("simulate") != cfg.seed_for("analyze-mmi")

    def test_config_hash_tracks_content(self):
        a = config.default_config()
        b = config.loads("[source]\nemission_prob = 0.31\n")
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == config.default_config().config_hash()

    def test_input_pair_one_based_to_zero_based(self):
        cfg = config.loads("[layout]\ninput_delayed = 1\ninput_direct = 3\n")
        assert cfg.input_pair(4) == (0, 2)

    def test_matrix_sources(self, tmp_path, chip):
        cfg = config.default_config()
        assert np.allclose(cfg.build_matrix().elements, chip.elements)
        path = tmp_path / "m.json"
        chip.write_file(path)
        cfg2 = config.loads(f"[matrix]\nsource = file:{path}\n")
        assert np.allclose(cfg2.build_matrix().elements, chip.elements)
        with pytest.raises(ConfigError):
            config.loads("[matrix]\nsource = magic:wand\n").build_matrix()

    def test_matrix_section_parsed_like_the_others(self):
        message = "unknown key [matrix] 'sorce'; valid keys: ['source']"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config.loads("[matrix]\nsorce = builtin:chip_4x4_v1\n")
        cfg = config.loads("[matrix]\nsource =  file:m.json \n")
        assert cfg.matrix.source == "file:m.json"

    def test_default_to_dict(self):
        # every report and manifest carries this hash; moving it is a named change
        d = config.default_config().to_dict()
        assert list(d) == ["schema", "source", "detectors", "layout", "matrix", "analysis"]
        assert d["matrix"] == {"source": "builtin:chip_4x4_v1"}
        assert config.default_config().config_hash() == "0da35b9ed99e6e96"

    def test_profile_bin_ns_removed(self):
        # the dead-time fit reads the per-pitch histogram; a wider bin only biased it
        with pytest.raises(ConfigError, match="unknown key \\[analysis\\] 'profile_bin_ns'"):
            config.loads("[analysis]\nprofile_bin_ns = 8\n")

    def test_readme_profile(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = config.loads(text)
        assert cfg.source.coherence_jitter_sd is None
        assert cfg.build_matrix().n_modes == 4


class TestSimulateCommand:
    def test_reruns_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.ttag"
        out2 = tmp_path / "b.ttag"
        args = ["simulate", "--seconds", "600", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a.ttag.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["schema"] == "run-manifest/1"

    def test_zero_emission_dark_counts_only(self, tmp_path):
        cfg = tmp_path / "dark.cfg"
        cfg.write_text("[source]\nemission_prob = 0\ntwo_photon_prob = 0\n"
                       "overall_efficiency = 0\n"
                       "[detectors]\ndark_rate_per_hour = 3600\n")
        out = tmp_path / "dark.ttag"
        assert main(["simulate", "--config", str(cfg), "--seconds", "100",
                     "--seed", "1", "--out", str(out)]) == 0
        stream = TimeTagStream.from_file(out)
        assert 250 <= len(stream) <= 550  # 4 channels x Poisson(100)

    def test_manifest_matches_expected_rate(self, tmp_path):
        out = tmp_path / "r.ttag"
        assert main(["simulate", "--seconds", "40000", "--seed", "3",
                     "--out", str(out)]) == 0
        man = json.loads((tmp_path / "r.ttag.manifest.json").read_text())
        expected = man["expected_pair_rate_hz"] * 40000.0
        assert abs(man["detected_pairs"] - expected) <= 3 * np.sqrt(expected)

    def test_manifest_counters_match_the_truth_record(self, tmp_path):
        out = tmp_path / "m.ttag"
        assert main(["simulate", "--seconds", "20000", "--seed", "5", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "m.ttag.manifest.json").read_text())
        cfg = config.default_config()
        _, truth = simulate_run(cfg.source, cfg.build_layout(), cfg.detectors,
                                wall_time_s=20000.0, seed=5, with_truth=True)
        counters = ("n_transits", "n_blocks", "n_emitted", "delivered_pairs", "detected_pairs",
                    "n_kept", "n_dark", "n_outside", "n_suppressed")
        # a counter the truth record gains must reach the manifest too
        assert {f.name for f in dataclasses.fields(truth)} == {"pre_deadtime", *counters}
        assert {name: manifest[name] for name in counters} == {
            name: getattr(truth, name) for name in counters}
        assert truth.n_blocks > 1 and truth.delivered_pairs > 0

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[source]\nemission_prob = 2.0\n")
        code = main(["simulate", "--config", str(cfg), "--seconds", "10",
                     "--out", str(tmp_path / "x.ttag")])
        assert code == 2

    @pytest.mark.parametrize("text", [
        "[detectors]\ntick_fs = 0\n",
        "[detectors]\ntick_fs = -5\n",
        f"[detectors]\ntick_fs = {2 ** 64}\n",
        "[source]\ncoherence_jitter_sd = -1\n",
        "[source]\nhom_visibility_target = 1.5\n",
        "[source]\npulse_length_ns = 1\n",
        "[analysis]\nmin_window_events = 0\n",
        "[analysis]\nreference_offset_cycles = 0\n",
        f"[analysis]\nreference_offset_cycles = {10 ** 306}\n",
        "[source]\npulses_per_transit = 0\n",
        f"[source]\npulses_per_transit = {2 ** 26 + 1}\n",
        f"[source]\npulses_per_transit = {10 ** 400}\n",
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, text):
        section, key = text.split("\n")[:2]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--seconds", "1000",
                     "--out", str(tmp_path / "x.ttag")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid {section} section: ")
        assert key.split(" = ")[0] in err

    @pytest.mark.parametrize("layout", ["mmi", "hom_splitter"])
    def test_unreachable_visibility_target_is_config_error(self, tmp_path, capsys, layout):
        # inside (0, 1) but below the jitter bracket's reach; 10 s deliver no
        # pair, so only a check before the first pair can see it
        cfg = tmp_path / "v.cfg"
        cfg.write_text("[source]\nhom_visibility_target = 0.001\n")
        out = tmp_path / "x.ttag"
        assert main(["simulate", "--config", str(cfg), "--layout", layout,
                     "--seconds", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [source] hom_visibility_target: ")
        assert "gives 0.007532 to" in err
        assert not out.exists()

    @pytest.mark.parametrize("layout, code", [("hom_splitter", 0), ("mmi", 3)])
    def test_matrix_source_read_only_by_mmi(self, tmp_path, layout, code):
        # hom_splitter always uses the balanced splitter
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"[matrix]\nsource = file:{tmp_path / 'missing' / 'm.json'}\n")
        assert main(["simulate", "--config", str(cfg), "--layout", layout,
                     "--seconds", "1000", "--seed", "1",
                     "--out", str(tmp_path / "x.ttag")]) == code

    @pytest.mark.parametrize("seconds", ["inf", "nan", "0", "-1"])
    def test_run_length_is_config_error(self, tmp_path, capsys, seconds):
        out = tmp_path / "x.ttag"
        assert main(["simulate", f"--seconds={seconds}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: --seconds must be positive "
                                           f"and finite, got {float(seconds)}\n")
        assert not out.exists()

    # the tick check runs first, so 1e30 s on the default profile is past the
    # last tick before its transits are counted
    @pytest.mark.parametrize("seconds, rate, message", [
        ("1e30", None, "--seconds 1e+30 runs past the last int64 tick of the stream "
                       "(7.471e+08 s at 81000 fs per tick)"),
        ("10", "1e300", f"1.04e+302 {RUN_TOO_LARGE}"),
    ], ids=["1e30-None", "10-1e300"])
    def test_undrawable_transit_count_is_config_error(self, tmp_path, capsys, seconds, rate,
                                                      message):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(f"[source]\natom_transit_rate = {rate}\n" if rate else "")
        out = tmp_path / "x.ttag"
        assert main(["simulate", "--config", str(cfg), "--seconds", seconds,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_run_past_the_size_budget_exits_before_any_draw(self, tmp_path, capsys,
                                                            monkeypatch):
        # 5e8 s fits the int64 ticks but expects about 1e9 transits and tags
        def fail(*args, **kwargs):
            raise AssertionError("the simulation drew")

        monkeypatch.setattr(instrument, "_ordered_map", fail)
        monkeypatch.setattr(instrument.np.random, "default_rng", fail)
        out = tmp_path / "x.ttag"
        assert main(["simulate", "--seconds", "5e8", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: 1.05667e+09 {RUN_TOO_LARGE}\n"
        assert not out.exists()

    def test_block_attempts_past_the_size_budget_exit_before_any_block_draws(
            self, tmp_path, capsys, monkeypatch):
        # 1,000 attempts per transit: a block of at least 2,048 transits draws
        # more than 2,000,000 at once, past a budget lowered to 100,000 so that
        # a regression cannot allocate much; the run's 8,000 or so expected
        # transits and tags pass it
        def fail(*args, **kwargs):
            raise AssertionError("a block drew")

        monkeypatch.setattr(_runtime, "MAX_ELEMENTS", 100_000)
        monkeypatch.setattr(instrument, "_simulate_block", fail)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[source]\npulses_per_transit = 1000\noverall_efficiency = 0.001\n")
        out = tmp_path / "x.ttag"
        assert main(["simulate", "--config", str(cfg), "--seconds", "20000",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith(
            " emission attempts in one block of transits are too many to allocate: "
            "lower [source] pulses_per_transit\n")
        assert float(err.split()[2]) >= 2048 * 1000
        assert not out.exists()

    @staticmethod
    def _dead_row_profile(tmp_path, row, polarization):
        """A profile with no transits whose chip matrix has input ``row``
        (0-based) reaching no output."""
        elements = mmi_lab.measured_chip_matrix().elements.copy()
        elements[row] = 0.0
        mmi_lab.TransferMatrix(elements).write_file(tmp_path / "dead.json")
        cfg = tmp_path / "dead.cfg"
        cfg.write_text(f"[source]\natom_transit_rate = 0\n"
                       f"[layout]\npolarization = {polarization}\n"
                       f"[matrix]\nsource = file:{tmp_path / 'dead.json'}\n")
        return cfg

    def test_dead_layout_input_exits_before_any_draw(self, tmp_path, capsys, monkeypatch):
        # orthogonal pairs route photon by photon, and a delayed input that
        # reaches no output can route none: the run stops before the root
        # generator draws, though with no transits it would emit no photon
        def fail(*args, **kwargs):
            raise AssertionError("the simulation drew")

        monkeypatch.setattr(instrument.np.random, "default_rng", fail)
        cfg = self._dead_row_profile(tmp_path, 0, "orthogonal")
        out = tmp_path / "x.ttag"
        assert main(["simulate", "--config", str(cfg), "--seconds", "1000",
                     "--out", str(out)]) == 2
        # 1-based, as config files and flags number the inputs
        assert capsys.readouterr().err == "config error: input mode 1 has zero transmission\n"
        assert not out.exists()

    @pytest.mark.parametrize("polarization", ["parallel", "orthogonal"])
    def test_dead_input_the_layout_does_not_use_still_runs(self, tmp_path, capsys,
                                                           polarization):
        # the layout feeds inputs 1 and 2; input 4 reaching no output is no error
        cfg = self._dead_row_profile(tmp_path, 3, polarization)
        out = tmp_path / "x.ttag"
        assert main(["simulate", "--config", str(cfg), "--seconds", "1000",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(TimeTagStream.from_file(out)) > 0  # the dark counts

    @pytest.mark.parametrize("seconds, cfg_text", [
        ("1e20", "[source]\natom_transit_rate = 0\n"),
        ("1e30", "[source]\natom_transit_rate = 0\n"),
        ("1e300", "[source]\natom_transit_rate = 0\n"),
        ("1e18", ""),
        ("7.48e8", "[source]\natom_transit_rate = 0\n[detectors]\ndark_rate_per_hour = 0\n"),
    ], ids=["no-transits-1e20", "no-transits-1e30", "no-transits-1e300", "default-1e18",
            "no-events-7.48e8"])
    def test_run_past_the_last_tick_is_config_error(self, tmp_path, capsys, seconds, cfg_text):
        # the last 81 ps tick that fits int64 is at about 7.47e8 s
        cfg = tmp_path / "r.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "x.ttag"
        assert main(["simulate", "--config", str(cfg), "--seconds", seconds,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: --seconds {float(seconds):g} runs past the last int64 tick "
            "of the stream (7.471e+08 s at 81000 fs per tick)\n")
        assert not out.exists()

    def test_run_up_to_the_last_tick(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("[source]\natom_transit_rate = 0\n[detectors]\ndark_rate_per_hour = 0\n")
        out = tmp_path / "x.ttag"
        assert main(["simulate", "--config", str(cfg), "--seconds", "7.47e8",
                     "--out", str(out)]) == 0
        assert len(TimeTagStream.from_file(out)) == 0

    def test_undrawable_dark_count_is_config_error(self, tmp_path, capsys):
        # 2.8e19 dark counts per detector, past numpy's largest Poisson mean
        cfg = tmp_path / "d.cfg"
        cfg.write_text("[detectors]\ndark_rate_per_hour = 1e20\n")
        out = tmp_path / "x.ttag"
        assert main(["simulate", "--config", str(cfg), "--seconds", "1000",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: 1.11111e+20 {RUN_TOO_LARGE}\n"
        assert not out.exists()

    def test_unallocatable_dark_count_is_config_error(self, tmp_path, capsys):
        # 2.8e16 dark counts per detector, which numpy can draw but not hold
        cfg = tmp_path / "d.cfg"
        cfg.write_text("[detectors]\ndark_rate_per_hour = 1e17\n")
        out = tmp_path / "x.ttag"
        assert main(["simulate", "--config", str(cfg), "--seconds", "1000",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: 1.11111e+17 {RUN_TOO_LARGE}\n"
        assert not out.exists()

    def test_out_under_a_file_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["simulate", "--seconds", "10", "--out", str(blocker / "x.ttag")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: --out: cannot create "
                                                  f"directory {blocker}")

    def test_truth_out_into_missing_dirs(self, tmp_path):
        out, truth = tmp_path / "a" / "b" / "s.ttag", tmp_path / "c" / "d" / "t.ttag"
        assert main(["simulate", "--seconds", "1000", "--seed", "2", "--out", str(out),
                     "--truth-out", str(truth)]) == 0
        stream, pre = TimeTagStream.from_file(out), TimeTagStream.from_file(truth)
        manifest = json.loads((out.parent / "s.ttag.manifest.json").read_text())
        assert len(pre) - manifest["n_suppressed"] == len(stream) == manifest["n_tags"]
        assert (manifest["n_kept"] + manifest["n_dark"] - manifest["n_outside"]
                - manifest["n_suppressed"] == manifest["n_tags"])

    def test_truth_out_under_a_file_is_config_error(self, tmp_path, capsys, monkeypatch):
        def simulation(*args, **kwargs):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr("mmi_lab.pipeline.simulate_run", simulation)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = tmp_path / "s.ttag"
        assert main(["simulate", "--seconds", "10", "--out", str(out),
                     "--truth-out", str(blocker / "t.ttag")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: --truth-out: cannot create "
                                                  f"directory {blocker}")
        assert not out.exists()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    main(["simulate", "--seconds", "120000", "--seed", "41",
          "--out", str(root / "mmi.ttag")])
    main(["simulate", "--seconds", "120000", "--seed", "42",
          "--layout", "hbt", "--out", str(root / "hbt.ttag")])
    main(["simulate", "--seconds", "30000", "--seed", "43",
          "--layout", "hom_splitter", "--out", str(root / "hom_par.ttag")])
    main(["simulate", "--seconds", "30000", "--seed", "44",
          "--layout", "hom_splitter", "--polarization", "orthogonal",
          "--out", str(root / "hom_orth.ttag")])
    return root


class TestAnalyzeCommands:
    def test_analyze_g2(self, run_dir):
        out = run_dir / "g2"
        assert main(["analyze", "g2", "--stream", str(run_dir / "hbt.ttag"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "g2_report.json").read_text())
        assert 0.02 <= report["g2_zero"] <= 0.15
        assert (out / "g2_histogram.csv").exists()

    def test_analyze_hom_orthogonal_reference_zero_visibility(self, run_dir):
        out = run_dir / "hom"
        assert main(["analyze", "hom",
                     "--stream", str(run_dir / "hom_orth.ttag"),
                     "--reference", str(run_dir / "hom_orth.ttag"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "hom_report.json").read_text())
        assert report["visibility_integrated"] == pytest.approx(0.0, abs=1e-12)

    def test_analyze_hom_parallel_visibility(self, run_dir):
        out = run_dir / "hom_par"
        assert main(["analyze", "hom",
                     "--stream", str(run_dir / "hom_par.ttag"),
                     "--reference", str(run_dir / "hom_orth.ttag"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "hom_report.json").read_text())
        assert 0.4 <= report["visibility_integrated"] <= 0.8

    def test_analyze_hom_requires_reference(self, run_dir):
        code = main(["analyze", "hom", "--stream",
                     str(run_dir / "hom_par.ttag"), "--out",
                     str(run_dir / "x")])
        assert code == 2

    def test_analyze_mmi_report(self, run_dir, tmp_path):
        cfgpath = tmp_path / "fast.cfg"
        cfgpath.write_text("[analysis]\nmc_trials = 50000\n")
        out = run_dir / "mmi"
        assert main(["analyze", "mmi", "--stream", str(run_dir / "mmi.ttag"),
                     "--config", str(cfgpath), "--out", str(out)]) == 0
        report = json.loads((out / "mmi_report.json").read_text())
        assert 0.5 <= report["visibility_fit"]["v_star"] <= 0.9
        assert report["similarity_cross_vs_quantum"] > report["similarity_cross_vs_classical"]
        assert (out / "mmi_counts.csv").exists()
        fit = report["similarity_corrected"]["vs_fitted_mixture"]
        assert fit["mode"] >= 0.98

    def test_analyze_mmi_perfect_coherence_unitary_matrix(self, tmp_path):
        # with full indistinguishability and a unitary interferometer the
        # measured distribution converges onto the interfering prediction
        from mmi_lab import random_unitary, simulate_run
        from mmi_lab.pipeline import analyze_mmi
        from mmi_lab import config as cfgmod
        mat = random_unitary(4, np.random.default_rng(123))
        mpath = tmp_path / "u.json"
        mat.write_file(mpath)
        cfg = cfgmod.loads(f"""
[source]
coherence_jitter_sd = 0
atom_transit_rate = 0.6
[matrix]
source = file:{mpath}
[analysis]
mc_trials = 50000
""")
        stream = simulate_run(cfg.source, cfg.build_layout(), cfg.detectors,
                              140000.0, seed=77)
        report, _ = analyze_mmi(stream, cfg)
        assert report["n_coincidences"] >= 10_000
        # every tag is either in a coincidence or unmatched
        assert 2 * report["n_coincidences"] + report["n_unmatched"] == len(stream)
        assert report["similarity_corrected"]["vs_quantum"]["raw"] >= 0.99
        assert report["visibility_fit"]["v_star"] >= 0.95

    def test_analyze_timeresolved(self, run_dir, tmp_path):
        cfgpath = tmp_path / "fast2.cfg"
        cfgpath.write_text("[analysis]\nmc_trials = 50000\nmin_window_events = 20\n")
        out = run_dir / "tr"
        assert main(["analyze", "timeresolved", "--stream",
                     str(run_dir / "mmi.ttag"), "--config", str(cfgpath),
                     "--out", str(out)]) == 0
        report = json.loads((out / "timeresolved_report.json").read_text())
        assert len(report["windows"]) >= 3
        first = report["windows"][0]
        assert first["vs_quantum"]["mode"] > first["vs_classical"]["mode"]
        # every window's draws carry the report's seed and the window's own
        # spawn key, its centre's index on the grid of half_window_ns / 2.5 steps
        step = report["half_window_ns"] / 2.5
        for w in report["windows"]:
            assert w["spawn_key"] == [round(w["center_ns"] / step)]
            assert w["vs_quantum"]["seed"] == w["vs_classical"]["seed"] == report["seed"]

    def test_trials_and_seed_overrides(self, run_dir, tmp_path):
        out = run_dir / "mmi_override"
        profile = tmp_path / "seed.cfg"
        profile.write_text("[analysis]\nmaster_seed = 5\n")
        assert main(["analyze", "mmi", "--stream", str(run_dir / "mmi.ttag"), "--trials", "2000",
                     "--config", str(profile), "--out", str(out)]) == 0
        report = json.loads((out / "mmi_report.json").read_text())
        cfg = config.load(profile)
        assert report["seed"] == cfg.seed_for("analyze-mmi")
        assert report["similarity_corrected"]["vs_quantum"]["n_trials"] == 2000
        assert report["missed_clamped"] is False
        assert report["deadtime_fit_scale"] > 0

    def test_seed_is_set_by_the_config_only(self, run_dir, tmp_path, capsys):
        # [analysis] master_seed is the one way to set an analysis seed
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_:
            main(["analyze", "mmi", "--stream", str(run_dir / "mmi.ttag"), "--seed", "5",
                  "--out", str(out)])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["two", "0", "-1", "1.5", "", " 2", "²"])
    def test_malformed_thread_count_is_config_error(self, run_dir, tmp_path, capsys,
                                                     monkeypatch, value):
        monkeypatch.setenv("MMI_LAB_THREADS", value)
        out = tmp_path / "o"
        assert main(["analyze", "mmi", "--stream", str(run_dir / "mmi.ttag"),
                     "--trials", "10000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: MMI_LAB_THREADS must be a "
                                           f"positive integer, got {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value, threads", [(None, 1), ("1", 1), ("2", 2), ("16", 16)])
    def test_thread_count(self, monkeypatch, value, threads):
        if value is None:
            monkeypatch.delenv("MMI_LAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("MMI_LAB_THREADS", value)
        assert _runtime.max_threads() == threads

    @pytest.mark.parametrize("kind", ["g2", "mmi"])
    def test_csv_format_prints_scalars(self, run_dir, capsys, kind):
        out = run_dir / f"{kind}_csv"
        stream = run_dir / {"g2": "hbt.ttag", "mmi": "mmi.ttag"}[kind]
        assert main(["analyze", kind, "--stream", str(stream), "--trials", "1000",
                     "--format", "csv", "--out", str(out)]) == 0
        report = json.loads((out / f"{kind}_report.json").read_text())
        lines = capsys.readouterr().out.splitlines()
        # strings bare, everything else (numbers, true/false, null) as the JSON spells it
        assert sorted(lines) == sorted(f"{k},{v if isinstance(v, str) else json.dumps(v)}"
                                       for k, v in report.items()
                                       if not isinstance(v, (dict, list)))
        assert lines[0] == f"schema,{kind}-report/1"

    def test_clamped_deficit_is_reported_not_warned(self):
        # a 1000 s run holds about 30 coincidences, and some runs' fitted tail
        # expects fewer inside the dead time than were measured, so the
        # deficit is clamped.  The stream is that of the smallest seed >= 2
        # whose 1000 s run clamps: seed 17, with 27 coincidences
        cfg = config.default_config()
        cfg = dataclasses.replace(cfg, analysis=dataclasses.replace(cfg.analysis,
                                                                    mc_trials=1000))
        stream = simulate_run(cfg.source, cfg.build_layout(), cfg.detectors, 1000.0, seed=17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, _ = pipeline.analyze_mmi(stream, cfg)
        assert report["missed_clamped"] is True
        assert report["missed_same_detector"] == 0.0
        assert isinstance(report["deadtime_fit_scale"], float)
        assert json.loads(json.dumps(report)) == report

    @pytest.mark.parametrize("argv, layout", [
        (["predict", "-i", "0"], None),
        (["predict", "-j", "9"], None),
        (["predict", "-i", "1", "-j", "1"], None),
        (["analyze", "mmi"], "input_delayed = 2\ninput_direct = 2\n"),
        (["analyze", "timeresolved"], "input_direct = 5\n"),
        (["predict", "-i", "5"], None),
        (["predict", "-j", "0"], None),
    ])
    def test_bad_mode_index_is_config_error(self, run_dir, tmp_path, capsys,
                                             argv, layout):
        if layout is not None:
            cfg = tmp_path / "layout.cfg"
            cfg.write_text(f"[layout]\n{layout}[analysis]\nmc_trials = 50000\n")
            argv = argv + ["--stream", str(run_dir / "mmi.ttag"), "--config",
                           str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if argv[0] == "predict" and len(argv) == 3:
            # the 1-based flag as typed, not the 0-based mode index
            flag, value = argv[1:]
            assert err == f"config error: {flag} {value} out of range 1..4\n"

    @pytest.mark.parametrize("analysis", [pipeline.analyze_mmi,
                                          pipeline.analyze_timeresolved])
    @pytest.mark.parametrize("layout", ["input_delayed = 2\ninput_direct = 2\n",
                                        "input_direct = 5\n", "input_delayed = 0\n"])
    def test_bad_input_pair_fails_before_extraction(self, monkeypatch, analysis, layout):
        def extraction(*args, **kwargs):
            raise AssertionError("coincidence extraction ran")

        monkeypatch.setattr(pipeline, "extract_coincidences", extraction)
        cfg = config.loads(f"[layout]\n{layout}")
        stream = TimeTagStream(np.arange(8, dtype=np.uint8) % 4, np.arange(8, dtype=np.uint64),
                               n_channels=4)
        with pytest.raises(ModeIndexError):
            analysis(stream, cfg)

    @pytest.mark.parametrize("key, value", [("input_direct", 5), ("input_delayed", 0)])
    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_layout_input_out_of_range_names_key(self, tmp_path, capsys, key, value, command):
        cfg = tmp_path / "layout.cfg"
        cfg.write_text(f"[layout]\n{key} = {value}\n")
        stream = tmp_path / "s.ttag"
        if command == "simulate":
            argv = ["simulate", "--seconds", "10", "--out", str(stream)]
        else:
            TimeTagStream(np.arange(8, dtype=np.uint8) % 4, np.arange(8, dtype=np.uint64),
                          n_channels=4).write_file(stream)
            argv = ["analyze", "mmi", "--stream", str(stream), "--out", str(tmp_path / "o")]
        assert main(argv + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: [layout] {key} = {value} out of range 1..4\n"

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_window_is_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"[analysis]\ncoincidence_window_ns = {value}\n")
        stream = tmp_path / "s.ttag"
        TimeTagStream(np.arange(8, dtype=np.uint8) % 4, np.arange(8, dtype=np.uint64),
                      n_channels=4).write_file(stream)
        assert main(["analyze", "mmi", "--stream", str(stream), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("config error: invalid value for [analysis] "
                                           f"coincidence_window_ns: '{value}' is not finite\n")

    @pytest.mark.parametrize("kind, key, value", [
        ("timeresolved", "half_window_ns", "0"),
        ("hom", "display_pitch_ns", "0"),
        ("mmi", "profile_pitch_ns", "0"),
        ("g2", "correlation_pitch_ns", "-5"),
    ])
    def test_non_positive_duration_is_config_error(self, tmp_path, capsys, kind, key, value):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(f"[analysis]\n{key} = {value}\n")
        stream = tmp_path / "s.ttag"
        n = 2 if kind in ("g2", "hom") else 4
        TimeTagStream(np.arange(8, dtype=np.uint8) % n, np.arange(8, dtype=np.uint64),
                      n_channels=n).write_file(stream)
        argv = ["analyze", kind, "--stream", str(stream), "--config", str(cfg),
                "--out", str(tmp_path / "o")]
        assert main(argv + ["--reference", str(stream)] if kind == "hom" else argv) == 2
        assert capsys.readouterr().err == ("config error: invalid [analysis] section: "
                                           f"{key} must be positive, got {float(value)}\n")

    def test_missing_stream_exit_code(self, run_dir):
        assert main(["analyze", "g2", "--stream", "nope.ttag",
                     "--out", str(run_dir / "y")]) == 3


@pytest.mark.parametrize("argv", [["analyze", "g2", "--stream", "hbt.ttag"],
                                  ["characterize", "--simulate"]])
@pytest.mark.parametrize("under_file", [False, True])
def test_out_blocked_by_a_file_is_config_error(run_dir, tmp_path, capsys, argv, under_file):
    # --out names an existing file, or a directory inside one
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "sub" if under_file else blocker
    argv = [str(run_dir / a) if a.endswith(".ttag") else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --out: cannot create directory {out} (")
    assert "Traceback" not in err
    assert blocker.read_text() == "x"


@pytest.mark.parametrize("argv, code, flag", [
    (["simulate", "--seconds", "10", "--out", "DIR"], 2, "--out"),
    (["simulate", "--seconds", "10", "--out", "x.ttag", "--truth-out", "DIR"], 2, "--truth-out"),
    (["predict", "--out", "DIR"], 2, "--out"),
    (["analyze", "g2", "--stream", "DIR"], 3, None),
    (["analyze", "g2", "--stream", "x.ttag", "--config", "DIR"], 3, None),
    (["predict", "--matrix", "DIR"], 3, None),
    (["characterize", "--fringes", "DIR"], 3, None),
    (["analyze", "g2", "--stream", "FILE/x.ttag"], 3, None),
    (["predict", "--matrix", "FILE/m.json"], 3, None),
])
def test_directory_as_file_flag(tmp_path, monkeypatch, capsys, argv, code, flag):
    # DIR is a directory where a file belongs; FILE/... reads through a file
    def simulation(*args, **kwargs):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr("mmi_lab.pipeline.simulate_run", simulation)
    (tmp_path / "DIR").mkdir()
    (tmp_path / "FILE").write_text("x")
    argv = [str(tmp_path / a) if a.split("/")[0] in ("DIR", "FILE", "x.ttag") else a
            for a in argv]
    if argv[0] != "simulate" and "--out" not in argv:
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == code
    err = capsys.readouterr().err
    if flag:
        assert err == f"config error: {flag}: {tmp_path / 'DIR'} is a directory, not a file\n"
    else:
        assert err.startswith("data error: ") and "Traceback" not in err
    assert not (tmp_path / "x.ttag").exists()


@pytest.mark.parametrize("argv, message", [
    (["characterize", "--simulate", "--noise-sd", "nan"],
     "--noise-sd must be non-negative and finite, got nan"),
    (["characterize", "--simulate", "--noise-sd", "inf"],
     "--noise-sd must be non-negative and finite, got inf"),
    (["characterize", "--simulate", "--noise-sd", "-1"],
     "--noise-sd must be non-negative and finite, got -1.0"),
    (["characterize", "--simulate", "--noise-sd", "0.01", "--repeat", "-3"],
     "--repeat must be at least 1, got -3"),
    (["characterize", "--simulate", "--repeat", "0"], "--repeat must be at least 1, got 0"),
    (["predict", "--visibility", "2"], "--visibility must be in [0, 1], got 2.0"),
    (["predict", "--visibility", "nan"], "--visibility must be in [0, 1], got nan"),
    (["predict", "--visibility", "-0.5"], "--visibility must be in [0, 1], got -0.5"),
    (["characterize", "--simulate", "--seed", "-1"], "--seed must be non-negative, got -1"),
    (["simulate", "--seconds", "10", "--seed", "-1"], "--seed must be non-negative, got -1"),
])
def test_bad_numeric_flag_is_config_error(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("noise_sd", ["1.5", "1e154", "1e308"])
def test_noise_past_the_bound_exits_before_any_draw(tmp_path, capsys, monkeypatch, noise_sd):
    # unchecked, 1e154 overflows the fit's squared residuals and 1e308 the
    # noisy powers, each with a warning
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(pipeline, "simulate_fringes", kernel)
    out = tmp_path / "o"
    assert main(["characterize", "--simulate", "--noise-sd", noise_sd, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: --noise-sd must be at most 1.0, got {float(noise_sd)}\n")
    assert not out.exists()


def test_noise_at_the_bound_runs_without_a_warning(tmp_path):
    out = tmp_path / "o"
    assert main(["characterize", "--simulate", "--noise-sd", str(pipeline.MAX_NOISE_SD),
                 "--repeat", "20", "--out", str(out)]) == 0
    report = json.loads((out / "characterize_report.json").read_text())
    assert report["noise_sd"] == pipeline.MAX_NOISE_SD == 1.0


# every count is past MAX_ELEMENTS, and the last two past any numpy array
@pytest.mark.parametrize("argv, message", [
    (["analyze", "mmi", "--stream", "mmi.ttag", "--trials", "100000000000000"],
     "100000000000000 Monte-Carlo trials are too many to allocate: "
     "lower --trials or [analysis] mc_trials"),
    (["analyze", "mmi", "--stream", "mmi.ttag", "--trials", "1" + "0" * 30],
     "1" + "0" * 30 + " Monte-Carlo trials are too many to allocate: "
     "lower --trials or [analysis] mc_trials"),
    (["analyze", "timeresolved", "--stream", "mmi.ttag", "--config", "big.cfg"],
     "10000000000000 Monte-Carlo trials are too many to allocate: "
     "lower --trials or [analysis] mc_trials"),
    (["characterize", "--simulate", "--repeat", "100000000000000"],
     "--repeat 100000000000000 is too many trials to allocate"),
    (["characterize", "--simulate", "--repeat", "100000000000000000000"],
     "--repeat 100000000000000000000 is too many trials to allocate"),
], ids=["trials", "trials-past-any-dimension", "mc_trials", "repeat",
        "repeat-past-any-dimension"])
def test_count_too_large_to_allocate_is_config_error(run_dir, tmp_path, capsys, monkeypatch,
                                                    argv, message):
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for name in ("extract_coincidences", "simulate_fringes"):
        monkeypatch.setattr(pipeline, name, kernel)
    (tmp_path / "big.cfg").write_text("[analysis]\nmc_trials = 100000000000000\n")
    argv = [str(run_dir / a) if a.endswith(".ttag") else str(tmp_path / a)
            if a.endswith(".cfg") else a for a in argv]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# values `analyze g2` cannot bin, and a half window whose window grid is past
# MAX_ELEMENTS: 4e-13 ns steps over the 300 ns window
@pytest.mark.parametrize("argv, profile, message", [
    (["analyze", "g2", "--stream", "hbt.ttag"], "correlation_bin_ns = 10",
     "invalid [analysis] section: correlation_pitch_ns = 20 must be >= 1 fs and "
     "<= correlation_bin_ns = 10"),
    (["analyze", "g2", "--stream", "hbt.ttag"],
     "correlation_pitch_ns = 1e-7\ncorrelation_bin_ns = 1e-7",
     "invalid [analysis] section: correlation_pitch_ns = 1e-07 must be >= 1 fs and "
     "<= correlation_bin_ns = 1e-07"),
    (["analyze", "g2", "--stream", "hbt.ttag"],
     "correlation_pitch_ns = 1e-7\ncorrelation_bin_ns = 1e-7\ncorrelation_range_ns = 1e-6",
     "invalid [analysis] section: correlation_pitch_ns = 1e-07 must be >= 1 fs and "
     "<= correlation_bin_ns = 1e-07"),
    (["analyze", "g2", "--stream", "hbt.ttag"], "correlation_range_ns = 1000",
     "[analysis] correlation_range_ns = 1000 at a 664 ns duty cycle: "
     "histogram range covers only 1 side peaks; need at least 5 per side"),
    (["analyze", "timeresolved", "--stream", "mmi.ttag"], "half_window_ns = 1e-12",
     "a half window of 1e-12 ns gives too many windows to allocate: "
     "raise [analysis] half_window_ns or lower coincidence_window_ns"),
    (["analyze", "mmi", "--stream", "mmi.ttag"], "profile_pitch_ns = 1e-9",
     "[analysis] profile_pitch_ns = 1e-09 and [source] duty_cycle_ns = 664: "
     "too many bins to allocate"),
    (["analyze", "mmi", "--stream", "mmi.ttag"], "profile_pitch_ns = 400",
     "[analysis] profile_pitch_ns = 400 and coincidence_window_ns = 300, "
     "[detectors] dead_time_ns = 50, [source] duty_cycle_ns = 664: "
     "0 profile bins lie beyond the recovery time inside the window; the fit needs 2"),
    (["analyze", "mmi", "--stream", "mmi.ttag"], "coincidence_window_ns = 40",
     "[analysis] profile_pitch_ns = 8 and coincidence_window_ns = 40, "
     "[detectors] dead_time_ns = 50, [source] duty_cycle_ns = 664: "
     "0 profile bins lie beyond the recovery time inside the window; the fit needs 2"),
    (["analyze", "mmi", "--stream", "mmi.ttag"], "profile_pitch_ns = 1e300",
     "[analysis] profile_pitch_ns = 1e+300 and coincidence_window_ns = 300, "
     "[detectors] dead_time_ns = 50, [source] duty_cycle_ns = 664: "
     "pitch 1e+300 ns is past the u64 phase range"),
], ids=["bin-below-pitch", "pitch-below-1fs", "pitch-below-1fs-small-range",
        "range-1-side-peak", "half-window",
        "profile-pitch-below-1fs", "profile-pitch-past-window", "window-inside-dead-time",
        "profile-pitch-past-u64"])
def test_analysis_value_the_run_cannot_use_is_config_error(run_dir, tmp_path, capsys,
                                                           argv, profile, message):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"[analysis]\n{profile}\n")
    out = tmp_path / "o"
    argv = [str(run_dir / a) if a.endswith(".ttag") else a for a in argv]
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# a [layout] name no layout has stops every command at load, before any
# kernel runs, though no analysis builds a layout
@pytest.mark.parametrize("argv", [
    ["analyze", "mmi", "--stream", "mmi.ttag"],
    ["analyze", "timeresolved", "--stream", "mmi.ttag"],
    ["analyze", "g2", "--stream", "hbt.ttag"],
    ["analyze", "hom", "--stream", "hom_par.ttag", "--reference", "hom_orth.ttag"],
    ["simulate", "--seconds", "10", "--layout", "mmi", "--polarization", "parallel"],
], ids=["mmi", "timeresolved", "g2", "hom", "simulate-with-overrides"])
@pytest.mark.parametrize("profile, message", [
    ("kind = mmj", "layout kind must be one of ('hbt', 'hom_splitter', 'mmi'), got 'mmj'"),
    ("polarization = sideways",
     "polarization must be one of ('parallel', 'orthogonal'), got 'sideways'"),
], ids=["kind", "polarization"])
def test_unknown_layout_name_is_config_error(run_dir, tmp_path, capsys, monkeypatch,
                                             argv, profile, message):
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for name in ("extract_coincidences", "cross_correlate"):
        monkeypatch.setattr(pipeline, name, kernel)
    monkeypatch.setattr(instrument.np.random, "default_rng", kernel)
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"[layout]\n{profile}\n")
    out = tmp_path / "o"
    argv = [str(run_dir / a) if a.endswith(".ttag") else a for a in argv]
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: invalid [layout] section: {message}\n"
    assert not out.exists()


# bin grids past MAX_ELEMENTS, from 6e8 bins (the 1 fs pitches, which numpy
# might allocate and fill until the host runs out of memory) to past any
# numpy array; the kernels fail if reached, so a regression never allocates
@pytest.mark.parametrize("argv, profile, message", [
    (["analyze", "hom", "--stream", "hom_par.ttag", "--reference", "hom_orth.ttag"],
     "display_pitch_ns = 1e-12",
     "[analysis] coincidence_window_ns = 300 and display_pitch_ns = 1e-12: "
     "too many bins to allocate"),
    (["analyze", "hom", "--stream", "hom_par.ttag", "--reference", "hom_orth.ttag"],
     "coincidence_window_ns = 1e15",
     "[analysis] coincidence_window_ns = 1e+15 and display_pitch_ns = 4: "
     "too many bins to allocate"),
    (["analyze", "hom", "--stream", "hom_par.ttag", "--reference", "hom_orth.ttag"],
     "display_pitch_ns = 1e-6",
     "[analysis] coincidence_window_ns = 300 and display_pitch_ns = 1e-06: "
     "too many bins to allocate"),
    (["analyze", "g2", "--stream", "hbt.ttag"], "correlation_range_ns = 1e15",
     "[analysis] correlation_range_ns = 1e+15, correlation_bin_ns = 100 and "
     "correlation_pitch_ns = 20: too many bins to allocate"),
    (["analyze", "g2", "--stream", "hbt.ttag"], "correlation_range_ns = 1e300",
     "[analysis] correlation_range_ns = 1e+300, correlation_bin_ns = 100 and "
     "correlation_pitch_ns = 20: too many bins to allocate"),
    (["analyze", "g2", "--stream", "hbt.ttag"], "correlation_bin_ns = 1e12",
     "[analysis] correlation_range_ns = 5976, correlation_bin_ns = 1e+12 and "
     "correlation_pitch_ns = 20: too many bins to allocate"),
    (["analyze", "g2", "--stream", "hbt.ttag"],
     "correlation_pitch_ns = 1e-5\ncorrelation_bin_ns = 1e-5",
     "[analysis] correlation_range_ns = 5976, correlation_bin_ns = 1e-05 and "
     "correlation_pitch_ns = 1e-05: too many bins to allocate"),
    (["analyze", "mmi", "--stream", "mmi.ttag"], "profile_pitch_ns = 1e-6",
     "[analysis] profile_pitch_ns = 1e-06 and [source] duty_cycle_ns = 664: "
     "too many bins to allocate"),
], ids=["hom-display-pitch", "hom-window", "hom-display-pitch-1fs", "g2-range",
        "g2-range-past-any-size", "g2-bin-width", "g2-pitch-10fs", "mmi-profile-pitch-1fs"])
def test_bin_grid_too_large_is_config_error(run_dir, tmp_path, capsys, monkeypatch,
                                            argv, profile, message):
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for name in ("extract_coincidences", "cross_correlate", "sliding_histogram"):
        monkeypatch.setattr(pipeline, name, kernel)
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"[analysis]\n{profile}\n")
    out = tmp_path / "o"
    argv = [str(run_dir / a) if a.endswith(".ttag") else a for a in argv]
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


class Reached(Exception):
    """Raised by a patched kernel: the size checks let the analysis start."""


# the size checks weigh each histogram row and each listed g2 peak by the
# 8-byte elements it holds (16 and 36): at the budget the analysis starts,
# one row or peak past it exits 2 before any kernel runs
G2 = ["analyze", "g2", "--stream", "hbt.ttag"]
HOM = ["analyze", "hom", "--stream", "hom_par.ttag", "--reference", "hom_orth.ttag"]
G2_ROWS = "correlation_bin_ns = 1\ncorrelation_pitch_ns = 1\ncorrelation_range_ns = "
G2_PEAKS = "correlation_bin_ns = 664\ncorrelation_pitch_ns = 664\ncorrelation_range_ns = "


@pytest.mark.parametrize("argv, profile, message", [
    (G2, G2_ROWS + "2097152", None),  # 2**22 rows
    (G2, G2_ROWS + "2097152.5",
     "[analysis] correlation_range_ns = 2.09715e+06, correlation_bin_ns = 1 and "
     "correlation_pitch_ns = 1: too many bins to allocate"),
    (G2, G2_PEAKS + "618893152", None),  # 1,864,135 peaks: 36 of them within 2**26
    (G2, G2_PEAKS + "618893816",
     "[analysis] correlation_range_ns = 6.18894e+08 at a 664 ns duty cycle: "
     "1.86414e+06 peaks are too many to list"),
    (HOM, "display_pitch_ns = 1\ncoincidence_window_ns = 2097152", None),  # 2**22 rows
    (HOM, "display_pitch_ns = 1\ncoincidence_window_ns = 2097152.5",
     "[analysis] coincidence_window_ns = 2.09715e+06 and display_pitch_ns = 1: "
     "too many bins to allocate"),
], ids=["g2-rows-at-budget", "g2-rows-past-budget", "g2-peaks-at-budget",
        "g2-peaks-past-budget", "hom-rows-at-budget", "hom-rows-past-budget"])
def test_rows_and_peaks_are_weighed_by_their_bytes(run_dir, tmp_path, capsys, monkeypatch,
                                                   argv, profile, message):
    def kernel(*args, **kwargs):
        raise Reached

    for name in ("extract_coincidences", "cross_correlate"):
        monkeypatch.setattr(pipeline, name, kernel)
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"[analysis]\n{profile}\n")
    out = tmp_path / "o"
    argv = [str(run_dir / a) if a.endswith(".ttag") else a for a in argv]
    argv += ["--config", str(cfg), "--out", str(out)]
    if message is None:
        with pytest.raises(Reached):
            main(argv)
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# a g2 histogram whose span reaches the int64 separations (2**63 fs, about
# 9.2e12 ns), and one whose 2n + 1 reported peaks pass MAX_ELEMENTS; both
# have few enough bins
@pytest.mark.parametrize("profile, message", [
    ("correlation_range_ns = 2e15\ncorrelation_bin_ns = 1e9\ncorrelation_pitch_ns = 1e9",
     "a histogram span of 2e+15 ns reaches 2**63 fs, past the int64 pair separations"),
    ("correlation_range_ns = 1e11\ncorrelation_bin_ns = 1e5\ncorrelation_pitch_ns = 1e5",
     "3.01205e+08 peaks are too many to list"),
    # below MAX_ELEMENTS as a count, past it weighed by the bytes a listed peak holds
    ("correlation_range_ns = 1e10\ncorrelation_bin_ns = 1e6\ncorrelation_pitch_ns = 1e6",
     "3.01205e+07 peaks are too many to list"),
], ids=["span-past-int64", "peaks-past-the-budget", "peaks-past-the-budget-by-their-bytes"])
def test_g2_span_and_peaks_are_checked_before_the_correlation(run_dir, tmp_path, capsys,
                                                              monkeypatch, profile, message):
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(pipeline, "cross_correlate", kernel)
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"[analysis]\n{profile}\n")
    range_ns = profile.split()[2]
    out = tmp_path / "o"
    assert main(["analyze", "g2", "--stream", str(run_dir / "hbt.ttag"), "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: [analysis] correlation_range_ns = "
                                       f"{float(range_ns):g} at a 664 ns duty cycle: {message}\n")
    assert not out.exists()


def test_g2_report_lists_every_peak_of_a_wide_range(run_dir, tmp_path):
    # 30,119 peaks over 20,000 bins of 1 us: the report lists them all (a
    # mask per peak over every bin once took minutes at 100 times as many)
    cfg = tmp_path / "a.cfg"
    cfg.write_text("[analysis]\ncorrelation_range_ns = 1e7\ncorrelation_bin_ns = 1e3\n"
                   "correlation_pitch_ns = 1e3\n")
    out = tmp_path / "o"
    assert main(["analyze", "g2", "--stream", str(run_dir / "hbt.ttag"), "--config", str(cfg),
                 "--out", str(out)]) == 0
    peaks = json.loads((out / "g2_report.json").read_text())["side_peaks"]
    assert sorted(map(int, peaks)) == list(range(-15059, 15060))
    assert sum(peaks.values()) > 0


class TestMalformedStreams:
    @pytest.mark.parametrize("row", ["300,200", "1,-5"])
    def test_csv_row_out_of_range(self, tmp_path, capsys, row):
        path = tmp_path / "s.csv"
        path.write_text(f"channel,tick\n0,1\n{row}\n")
        assert main(["analyze", "mmi", "--stream", str(path),
                     "--out", str(tmp_path / "o")]) == 3
        assert "row 2" in capsys.readouterr().err

    def test_zero_tick_size_header(self, tmp_path, capsys):
        path = tmp_path / "s.ttag"
        TimeTagStream(np.array([0, 1], np.uint8), np.array([5, 6], np.uint64), 4,
                      tick_fs=0).write_file(path)
        assert main(["analyze", "g2", "--stream", str(path),
                     "--out", str(tmp_path / "o")]) == 3
        assert "tick size" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["mmi", "timeresolved"])
    def test_channels_must_match_matrix_modes(self, tmp_path, capsys, kind):
        path = tmp_path / "hbt.ttag"
        TimeTagStream(np.array([0, 1, 0, 1], np.uint8),
                      np.array([0, 10, 10_000, 10_010], np.uint64), 2).write_file(path)
        assert main(["analyze", kind, "--stream", str(path),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "2 channels" in err and "4 modes" in err

    @pytest.mark.parametrize("kind, message", [
        ("g2", "data error: no side peaks found; cannot normalise g2\n"),
        ("hom", "data error: reference stream contains no cross coincidences\n")])
    def test_tick_size_past_int64(self, tmp_path, capsys, kind, message):
        # a header tick of 2**63 fs (the u64 header allows up to 2**64 - 1)
        # puts no whole tick inside the correlation range, so only
        # simultaneous tags pair: none here
        path = tmp_path / "s.ttag"
        TimeTagStream(np.array([0, 1, 0, 1], np.uint8), np.arange(4, dtype=np.uint64), 2,
                      tick_fs=2 ** 63).write_file(path)
        extra = ["--reference", str(path)] if kind == "hom" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", kind, "--stream", str(path), *extra,
                         "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == message

    def test_no_side_peaks_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("channel,tick\n0,1000\n1,1001\n")
        assert main(["analyze", "g2", "--stream", str(path),
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "data error: no side peaks found; cannot normalise g2\n"

    def test_same_detector_coincidences_only_is_data_error(self, tmp_path, capsys):
        # 3,000 groups 1 ms apart: ch0 tags at +0, +100, +1328 and +1428 ns pair
        # at zero and at the two-duty-cycle reference offset, one ch1 tag 2-600
        # us later pairs with nothing, and a last ch3 tag makes four channels
        base = np.arange(3000) * 1e6
        ns = np.concatenate([(base[:, None] + [0, 100, 1328, 1428]).ravel(),
                             base + np.random.default_rng(0).uniform(2e3, 6e5, base.size),
                             [3e9 + 10]])
        channels = np.repeat([0, 1, 3], [4 * base.size, base.size, 1])
        order = np.argsort(ns, kind="stable")
        path = tmp_path / "s.csv"
        path.write_text("channel,tick\n" + "".join(
            f"{c},{t}\n" for c, t in zip(channels[order], np.rint(ns[order] / 0.081).astype(int))))
        assert main(["analyze", "mmi", "--stream", str(path), "--trials", "20000",
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "data error: measured counts are empty\n"


# inputs that cli.main once reported only through a ValueError catch-all
@pytest.mark.parametrize("argv, text, code, message", [
    (["analyze", "g2", "--stream", "FILE.csv"], b"0,1\n\xff,2\n", 3,
     "data error: bad CSV row 2: '\ufffd,2'"),
    (["analyze", "g2", "--stream", "hbt.ttag", "--config", "FILE"], b"[analysis]\n\xff\n", 2,
     "config error: cannot parse config: 'utf-8' codec can't decode byte 0xff in "
     "position 11: invalid start byte"),
    (["predict", "--matrix", "FILE"], b"not json", 2,
     "config error: malformed transfer-matrix JSON: Expecting value: line 1 column 1 (char 0)"),
    (["simulate", "--seconds", "10", "--config", "FILE"], b"[matrix]\nsource = file:a\0b\n", 2,
     "config error: matrix source must be 'builtin:<name>' or 'file:<path>', "
     "got 'file:a\\x00b'"),
    (["analyze", "hom", "--stream", "FILE.csv", "--reference", "hom_orth.ttag"],
     b"0,1\n0,100000\n", 3, "data error: hom analysis needs two detector channels in both streams"),
    (["analyze", "mmi", "--stream", "hom_par.ttag", "--config", "FILE"],
     b"[matrix]\nsource = file:SPLITTER\n", 2,
     "config error: the matrix predicts no cross-detector coincidences for inputs 1 and 2"),
    (["analyze", "timeresolved", "--stream", "hom_par.ttag", "--config", "FILE"],
     b"[matrix]\nsource = file:SPLITTER\n", 2,
     "config error: the matrix predicts no cross-detector coincidences for inputs 1 and 2"),
], ids=["csv-not-utf8", "config-not-utf8", "matrix-not-json", "matrix-source-nul",
        "hom-one-channel", "mmi-splitter", "timeresolved-splitter"])
def test_input_once_left_to_a_catch_all_is_typed(run_dir, tmp_path, capsys, argv, text, code,
                                                 message):
    # FILE is written from ``text``; SPLITTER is a balanced splitter's matrix file
    splitter = tmp_path / "splitter.json"
    balanced_splitter().write_file(splitter)
    name = next(a for a in argv if a.startswith("FILE"))
    (tmp_path / name).write_bytes(text.replace(b"SPLITTER", str(splitter).encode()))
    argv = [str(tmp_path / a) if a == name else str(run_dir / a) if a.endswith(".ttag") else a
            for a in argv]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().err == f"{message}\n"
    assert not out.exists()


def test_cli_runs_without_scipy():
    src = Path(mmi_lab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys, mmi_lab, mmi_lab.cli\n"
            "assert mmi_lab.cli.main(['predict']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_analyze_mmi_never_imports_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, about 30 ms of analyze mmi
    stream = tmp_path / "s.ttag"
    assert main(["simulate", "--seconds", "2000", "--seed", "3", "--out", str(stream)]) == 0
    src = Path(mmi_lab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys, mmi_lab.cli\n"
            f"assert mmi_lab.cli.main(['analyze', 'mmi', '--stream', {str(stream)!r}, "
            f"'--trials', '2000', '--out', {str(tmp_path / 'a')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    report = json.loads((tmp_path / "a" / "mmi_report.json").read_text())
    assert report["n_coincidences"] > 0 and "missed_sigma" in report
    assert out.stdout.splitlines()[-1] == "False"


def test_characterize_never_imports_numpy_ma(tmp_path):
    # np.median and np.quantile import numpy.ma on their first call
    src = Path(mmi_lab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys, mmi_lab.cli\n"
            "assert mmi_lab.cli.main(['characterize', '--simulate', '--noise-sd', '0.01', "
            f"'--repeat', '5', '--out', {str(tmp_path / 'c')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    report = json.loads((tmp_path / "c" / "characterize_report.json").read_text())
    assert report["repeat_trials"] == 5 and report["deviation_p90"] > 0
    assert out.stdout.splitlines()[-1] == "False"


class TestCharacterizeCommand:
    @pytest.mark.parametrize("flags, message", [
        (["--fringes", "f.json", "--repeat", "50"], "--repeat 50 needs --simulate"),
        (["--fringes", "f.json", "--noise-sd", "0.3"], "--noise-sd 0.3 needs --simulate"),
        (["--repeat", "2"], "--repeat 2 needs --simulate"),
        (["--noise-sd", "0.01"], "--noise-sd 0.01 needs --simulate"),
        (["--simulate", "--fringes", "f.json"], "--fringes cannot be combined with --simulate"),
    ], ids=["fringes-repeat", "fringes-noise", "repeat", "noise", "fringes-simulate"])
    def test_flags_that_would_do_nothing_are_config_errors(self, tmp_path, capsys, chip,
                                                           flags, message):
        simulate_fringes(chip).write_file(tmp_path / "f.json")
        flags = [str(tmp_path / f) if f == "f.json" else f for f in flags]
        out = tmp_path / "o"
        assert main(["characterize", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_simulated_round_trip(self, tmp_path):
        out = tmp_path / "char"
        assert main(["characterize", "--simulate", "--out", str(out)]) == 0
        report = json.loads((out / "characterize_report.json").read_text())
        assert report["max_abs_deviation"] <= 1e-10
        assert (out / "reconstructed_matrix.json").exists()

    def test_noisy_simulated(self, tmp_path):
        out = tmp_path / "charn"
        assert main(["characterize", "--simulate", "--noise-sd", "0.01",
                     "--seed", "3", "--out", str(out)]) == 0
        report = json.loads((out / "characterize_report.json").read_text())
        assert report["max_abs_deviation"] <= 0.05

    def test_fringe_file_input(self, tmp_path, chip):
        data = simulate_fringes(chip)
        fpath = tmp_path / "fringes.json"
        data.write_file(fpath)
        out = tmp_path / "charf"
        assert main(["characterize", "--fringes", str(fpath),
                     "--out", str(out)]) == 0
        rebuilt = json.loads((out / "reconstructed_matrix.json").read_text())
        assert rebuilt["n_modes"] == 4

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_powers_past_the_bound_are_data_error(self, tmp_path, capsys, chip, scale):
        # unchecked, the fit's squared residuals overflow: a traceback, as
        # warnings are errors under the test configuration
        doc = simulate_fringes(chip).to_json_dict()
        doc["transmissions"] = (np.array(doc["transmissions"]) * scale).tolist()
        doc["fringes"] = {k: (np.array(v) * scale).tolist() for k, v in doc["fringes"].items()}
        fpath = tmp_path / "fringes.json"
        fpath.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["characterize", "--fringes", str(fpath), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "data error: transmissions must be n x n and in [0, 1e+150]\n")
        assert not out.exists()

    @pytest.mark.parametrize("n_modes", [1, 0])
    def test_too_few_modes_is_data_error(self, tmp_path, capsys, n_modes):
        fpath = tmp_path / "fringes.json"
        fpath.write_text(json.dumps({
            "schema": "fringe-dataset/1", "n_modes": n_modes,
            "phase_grid": (np.arange(8) * 0.5).tolist(),
            "transmissions": [[1.0] * n_modes] * n_modes, "fringes": {}}))
        assert main(["characterize", "--fringes", str(fpath),
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (f"data error: n_modes must be at least 2, "
                                           f"got {n_modes}\n")

    def test_fringes_against_matrix(self, tmp_path, chip):
        fpath, mpath = tmp_path / "fringes.json", tmp_path / "chip.json"
        simulate_fringes(chip).write_file(fpath)
        chip.write_file(mpath)
        out = tmp_path / "charm"
        assert main(["characterize", "--fringes", str(fpath), "--matrix", str(mpath),
                     "--out", str(out)]) == 0
        report = json.loads((out / "characterize_report.json").read_text())
        assert report["noise_sd"] is None
        assert report["max_abs_deviation"] <= 1e-10

    def test_repeat_statistics(self, tmp_path):
        out = tmp_path / "charr"
        assert main(["characterize", "--simulate", "--noise-sd", "0.01", "--repeat", "5",
                     "--out", str(out)]) == 0
        report = json.loads((out / "characterize_report.json").read_text())
        assert report["repeat_trials"] == 5
        assert 0 < report["deviation_median"] <= report["deviation_p90"] \
            <= report["deviation_max"] <= 0.05

    @pytest.mark.parametrize("text", ["{}", "[1, 2]", '{"fringes": [1]}',
                                      '{"fringes": {"1-2": []}}', "not json"])
    def test_malformed_fringe_file(self, tmp_path, capsys, text):
        fpath = tmp_path / "fringes.json"
        fpath.write_text(text)
        assert main(["characterize", "--fringes", str(fpath),
                     "--out", str(tmp_path / "o")]) == 3
        assert "malformed fringe-dataset JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["phase_grid", "transmissions", "fringes"])
    def test_non_finite_fringe_data_is_data_error(self, tmp_path, capsys, chip, field):
        doc = simulate_fringes(chip).to_json_dict()
        if field == "phase_grid":
            doc["phase_grid"][4] = float("nan")
        elif field == "transmissions":
            doc["transmissions"][1][2] = float("nan")
        else:
            doc["fringes"]["1,2"][3][1] = float("inf")
        fpath = tmp_path / "fringes.json"
        fpath.write_text(json.dumps(doc))  # NaN and Infinity, as json.load reads them
        assert main(["characterize", "--fringes", str(fpath),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and field in err

    def test_requires_input(self, tmp_path):
        assert main(["characterize", "--out", str(tmp_path / "z")]) == 2


class TestPredictCommand:
    def test_quantum_table(self, capsys):
        assert main(["predict", "-i", "1", "-j", "2", "--visibility", "1.0"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("pair,")
        assert len(lines) == 11  # header + 10 unordered pairs

    def test_visibility_zero_equals_classical(self, capsys):
        assert main(["predict", "--visibility", "0.0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mixture"] == payload["classical"]

    def test_splitter_hom_table(self, capsys, tmp_path, splitter):
        mpath = tmp_path / "bs.json"
        splitter.write_file(mpath)
        assert main(["predict", "--matrix", str(mpath), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quantum"]["1,2"] == pytest.approx(0.0, abs=1e-12)
        assert payload["quantum"]["1,1"] == pytest.approx(0.5)

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "q.csv"
        assert main(["predict", "--out", str(out)]) == 0
        assert out.read_bytes().decode() == capsys.readouterr().out

    def test_bad_matrix_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["predict", "--matrix", str(bad)]) == 2
