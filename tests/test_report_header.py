"""The one header every report and run manifest opens with."""

from dataclasses import replace

import pytest

from mmi_lab import cli
from mmi_lab.config import default_config
from mmi_lab.pipeline import with_header

HEADER_KEYS = {"schema", "config_hash", "seed", "input_pair"}


class TestWithHeader:
    def test_schema_alone_then_the_body_in_its_order(self):
        report = with_header("x-report", None, {"b": 1, "a": [2]})
        assert list(report.items()) == [("schema", "x-report/1"), ("b", 1), ("a", [2])]

    def test_every_part_in_order(self):
        cfg = default_config()
        report = with_header("x-report", cfg, {"z": None}, seed=7, pair=(0, 3))
        assert list(report.items()) == [("schema", "x-report/1"),
                                        ("config_hash", cfg.config_hash()), ("seed", 7),
                                        ("input_pair", [1, 4]), ("z", None)]

    def test_seed_zero_is_kept(self):
        assert list(with_header("x-report", None, {}, seed=0).items()) == [
            ("schema", "x-report/1"), ("seed", 0)]

    def test_pair_without_config_or_seed(self):
        assert with_header("x-report", None, {}, pair=(2, 1)) == {
            "schema": "x-report/1", "input_pair": [3, 2]}


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    root = tmp_path_factory.mktemp("header")
    for name, argv in [("mmi", []), ("hbt", ["--layout", "hbt"]),
                       ("par", ["--layout", "hom_splitter"]),
                       ("orth", ["--layout", "hom_splitter", "--polarization", "orthogonal"])]:
        assert cli.main(["simulate", "--seconds", "30000", "--seed", "5",
                         "--out", str(root / f"{name}.ttag"), *argv]) == 0
    return root


# each producer's command, its header and its schema
PRODUCERS = {
    "simulate": (["simulate", "--seconds", "100", "--seed", "0", "--out", "{out}/s.ttag"],
                 ["schema", "config_hash", "seed"], "run-manifest/1"),
    "analyze_g2": (["analyze", "g2", "--stream", "{runs}/hbt.ttag"], ["schema", "config_hash"],
                   "g2-report/1"),
    "analyze_hom": (["analyze", "hom", "--stream", "{runs}/par.ttag",
                     "--reference", "{runs}/orth.ttag"],
                    ["schema", "config_hash"], "hom-report/1"),
    "analyze_mmi": (["analyze", "mmi", "--stream", "{runs}/mmi.ttag", "--trials", "1000"],
                    ["schema", "config_hash", "seed", "input_pair"], "mmi-report/1"),
    "analyze_timeresolved": (["analyze", "timeresolved", "--stream", "{runs}/mmi.ttag",
                              "--trials", "1000"],
                             ["schema", "config_hash", "seed", "input_pair"],
                             "timeresolved-report/1"),
    "characterize": (["characterize", "--simulate"], ["schema"], "characterize-report/1"),
    "predict": (["predict", "-i", "2", "-j", "3", "--format", "json"],
                ["schema", "input_pair"], "predict-report/1"),
}


@pytest.mark.parametrize("producer", PRODUCERS)
def test_leading_keys_are_the_header_in_order(streams, tmp_path, monkeypatch, capsys,
                                              producer):
    argv, header, schema = PRODUCERS[producer]
    argv = [a.format(runs=streams, out=tmp_path) for a in argv]
    if producer not in ("simulate", "predict"):
        argv += ["--out", str(tmp_path / "o")]
    payloads = []  # every dict the command prints or writes, in its own key order
    dumps = cli._json
    monkeypatch.setattr(cli, "_json", lambda payload: payloads.append(payload) or dumps(payload))
    assert cli.main(argv) == 0
    capsys.readouterr()
    report = payloads[0]
    assert list(report)[:len(header)] == header
    assert not HEADER_KEYS & set(list(report)[len(header):])
    assert report["schema"] == schema
    if "config_hash" in header:  # of the config the command ran, --trials included
        cfg = default_config()
        if "--trials" in argv:
            cfg = replace(cfg, analysis=replace(cfg.analysis, mc_trials=1000))
        assert report["config_hash"] == cfg.config_hash()
    if producer == "simulate":
        assert report["seed"] == 0
    if "input_pair" in header:
        assert report["input_pair"] == ([2, 3] if producer == "predict" else [1, 2])
