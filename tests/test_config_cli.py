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
from mmi_lab import TimeTagStream, config, pipeline, simulate_fringes, simulate_run
from mmi_lab.cli import main
from mmi_lab.core import ModeIndexError
from mmi_lab.instrument import ConfigError


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

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[source]\nemission_prob = 2.0\n")
        code = main(["simulate", "--config", str(cfg), "--seconds", "10",
                     "--out", str(tmp_path / "x.ttag")])
        assert code == 2

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

    def test_truth_out_under_a_file_is_config_error(self, tmp_path, capsys, monkeypatch):
        def simulation(*args, **kwargs):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr("mmi_lab.cli.simulate_run", simulation)
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
        assert code == 3

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

    def test_trials_and_seed_overrides(self, run_dir):
        out = run_dir / "mmi_override"
        assert main(["analyze", "mmi", "--stream", str(run_dir / "mmi.ttag"),
                     "--trials", "2000", "--seed", "5", "--out", str(out)]) == 0
        report = json.loads((out / "mmi_report.json").read_text())
        cfg = config.loads("[analysis]\nmaster_seed = 5\n")
        assert report["seed"] == cfg.seed_for("analyze-mmi")
        assert report["similarity_corrected"]["vs_quantum"]["n_trials"] == 2000
        assert report["missed_clamped"] is False
        assert report["deadtime_fit_scale"] > 0

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
        # a 1000 s run holds 28 coincidences: the fitted tail expects fewer
        # inside the dead time than were measured, so the deficit is clamped
        cfg = config.default_config()
        cfg = dataclasses.replace(cfg, analysis=dataclasses.replace(cfg.analysis,
                                                                    mc_trials=1000))
        stream = simulate_run(cfg.source, cfg.build_layout(), cfg.detectors, 1000.0, seed=2)
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

    monkeypatch.setattr("mmi_lab.cli.simulate_run", simulation)
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
])
def test_bad_numeric_flag_is_config_error(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


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


class TestCharacterizeCommand:
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
                                      '{"fringes": {"1-2": []}}'])
    def test_malformed_fringe_file(self, tmp_path, capsys, text):
        fpath = tmp_path / "fringes.json"
        fpath.write_text(text)
        assert main(["characterize", "--fringes", str(fpath),
                     "--out", str(tmp_path / "o")]) == 3
        assert "malformed fringe-dataset JSON" in capsys.readouterr().err

    def test_requires_input(self, tmp_path):
        assert main(["characterize", "--out", str(tmp_path / "z")]) == 3


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
