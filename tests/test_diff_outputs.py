"""``tools/diff_outputs.py`` on small hand-made output trees."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from mmi_lab import TimeTagStream

_spec = importlib.util.spec_from_file_location(
    "diff_outputs", Path(__file__).resolve().parents[1] / "tools" / "diff_outputs.py")
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)

REPORT = {"schema": "mmi-report/1", "visibility_fit": {"v_star": 0.733, "s": 0.99},
          "hpd68": [0.97, 0.99], "flag": False}
COUNTS = 'pair,counts,mixture\r\n"1,1",133.0,0.0212\r\n"1,2",682.0,0.0469\r\n'


def _tree(root: Path, report=REPORT, counts=COUNTS, ticks=(5, 9, 40)) -> Path:
    (root / "mmi").mkdir(parents=True)
    (root / "mmi" / "mmi_report.json").write_text(json.dumps(report, indent=2))
    (root / "mmi" / "mmi_counts.csv").write_text(counts)
    stream = TimeTagStream(np.array([0, 1, 0], np.uint8), np.array(ticks, np.uint64), 2)
    stream.write_file(root / "s.ttag")
    manifest = {"n_tags": len(stream), "n_kept": len(stream), "seed": 7}
    (root / "s.ttag.manifest.json").write_text(json.dumps(manifest))
    return root


def _run(capsys, a, b):
    code = diff_outputs.main([str(a), str(b)])
    return code, capsys.readouterr().out.splitlines()


def test_equal_trees(tmp_path, capsys):
    code, out = _run(capsys, _tree(tmp_path / "a"), _tree(tmp_path / "b"))
    # 6 report leaves, 6 CSV cells, 1 stream digest, 3 manifest keys
    assert (code, out) == (0, ["16 values unchanged, 0 differ"])


def test_one_moved_float(tmp_path, capsys):
    moved = COUNTS.replace("0.0469", "0.04690000000000001")
    code, out = _run(capsys, _tree(tmp_path / "a"), _tree(tmp_path / "b", counts=moved))
    assert code == 1
    assert out[2:] == ["mmi/mmi_counts.csv | pair=1,2/mixture | 0.0469 | 0.04690000000000001",
                       "15 values unchanged, 1 differ"]


def test_one_added_key(tmp_path, capsys):
    report = {**REPORT, "visibility_fit": {**REPORT["visibility_fit"], "v_star_hpd68": [0.7, 0.8]}}
    code, out = _run(capsys, _tree(tmp_path / "a"), _tree(tmp_path / "b", report=report))
    assert code == 1
    assert out[2:] == [
        "mmi/mmi_report.json | visibility_fit.v_star_hpd68[0] | (absent) | 0.7",
        "mmi/mmi_report.json | visibility_fit.v_star_hpd68[1] | (absent) | 0.8",
        "16 values unchanged, 2 differ"]


def test_one_changed_stream(tmp_path, capsys):
    code, out = _run(capsys, _tree(tmp_path / "a"), _tree(tmp_path / "b", ticks=(5, 9, 41)))
    assert code == 1
    assert len(out) == 4 and out[0] == "file | key | before | after"
    name, key, before, after = out[2].split(" | ")
    assert (name, key) == ("s.ttag", "sha256") and before != after and len(after) == 64
    assert out[3] == "15 values unchanged, 1 differ"


def test_file_on_one_side_and_bool_against_int(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", report={**REPORT, "flag": 0})
    (a / "only_a.csv").write_text("x,y\r\n1,2\r\n")
    code, out = _run(capsys, a, b)
    assert code == 1
    assert out[2:] == ["mmi/mmi_report.json | flag | false | 0",
                       "only_a.csv | x=1/x | 1 | (absent)",
                       "only_a.csv | x=1/y | 2 | (absent)",
                       "15 values unchanged, 3 differ"]


def test_not_a_directory(tmp_path):
    with pytest.raises(SystemExit) as exc:
        diff_outputs.main([str(tmp_path / "missing"), str(tmp_path)])
    assert exc.value.code == 2


def test_key_value_lines_by_key(tmp_path, capsys):
    # no header row: the first line is a key like every other
    text = "schema,mmi-report/1\nn_coincidences,97\nmissed_clamped,false\nnote,a,b\n"
    a, b = tmp_path / "a", tmp_path / "b"
    for root, body in ((a, text), (b, text.replace("97", "98"))):
        root.mkdir()
        (root / "stdout.kv").write_text(body)
    assert diff_outputs.values(a / "stdout.kv") == {
        "schema": "mmi-report/1", "n_coincidences": "97", "missed_clamped": "false",
        "note": "a,b", "(keys)": "schema,n_coincidences,missed_clamped,note"}
    code, out = _run(capsys, a, b)
    assert code == 1
    assert out[2:] == ["stdout.kv | n_coincidences | 97 | 98", "4 values unchanged, 1 differ"]


def test_key_value_order_is_a_value(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, body in ((a, "x,1\ny,2\n"), (b, "y,2\nx,1\n")):
        root.mkdir()
        (root / "stdout.kv").write_text(body)
    code, out = _run(capsys, a, b)
    assert code == 1
    assert out[2:] == ["stdout.kv | (keys) | x,y | y,x", "2 values unchanged, 1 differ"]

