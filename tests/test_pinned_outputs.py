"""Every number of ``tools/pin_outputs.py``'s command-line set against the
values pinned in ``tests/pinned/values.json``.

A change that moves a number on purpose regenerates the file with
``python tools/pin_outputs.py --write``.  Every value is compared exactly,
except the ``characterize`` call's floats, compared at a relative tolerance
of ``pin_outputs.CHARACTERIZE_REL_TOL`` (1e-11): they change bits with
numpy's CPU dispatch set, by at most 2.6e-14 relative where measured (an
AVX2-only dispatch against AVX-512).  The bits hold for one numpy version
only, so on any other version the test skips, naming both.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import diff_outputs  # noqa: E402
import pin_outputs  # noqa: E402


def test_every_reported_number_is_pinned(tmp_path):
    pinned = json.loads(pin_outputs.PINNED.read_text())
    if pinned["numpy"] != np.__version__:
        pytest.skip(f"values pinned with numpy {pinned['numpy']}, this is numpy {np.__version__}")
    rows, unchanged = pin_outputs.differences(pinned["values"], pin_outputs.run(tmp_path))
    lines = diff_outputs.table(rows, unchanged)
    print("\n".join(lines))
    assert not rows, "\n".join(lines)


def test_only_characterize_floats_have_a_tolerance():
    def pair(name, before, after):
        return {name: {"x": before}}, {name: {"x": after}}

    near, far = "0.1234567890123", "0.12345678901231"
    assert pin_outputs.differences(*pair("characterize/r.json", near, far)) == ([], 1)
    for name, before, after in [("analyze-mmi/r.json", near, far),  # not characterize
                                ("characterize/r.json", "4", "5"),  # an int
                                ("characterize/r.json", near, "0.1235")]:  # past the tolerance
        assert pin_outputs.differences(*pair(name, before, after)) == (
            [(name, "x", before, after)], 0)
