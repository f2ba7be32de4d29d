"""Every number of ``tools/pin_outputs.py``'s command-line set against the
values pinned in ``tests/pinned/values.json``.

A change that moves a number on purpose regenerates the file with
``python tools/pin_outputs.py --write``.  Every value is compared exactly,
except the ``characterize`` call's floats, compared at a relative tolerance
of ``pin_outputs.CHARACTERIZE_REL_TOL`` (1e-11): they change bits with
numpy's CPU dispatch set, by at most 2.6e-14 relative where measured (an
AVX2-only dispatch against AVX-512).  The bits hold for one numpy version
only, so on any other version the test skips, naming both.

A second test reruns the set in a child process whose numpy dispatches to
no level above AVX2 and requires the same values at the same tolerance.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import diff_outputs  # noqa: E402
import pin_outputs  # noqa: E402

#: run in the child: the set's differences from the pinned values, and
#: whether numpy still dispatches to the AVX-512 level (X86_V4)
CHILD = """
import json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
import pin_outputs
pinned = json.loads(pin_outputs.PINNED.read_text())["values"]
rows, unchanged = pin_outputs.differences(pinned, pin_outputs.run(Path(sys.argv[1])))
print(json.dumps({"x86_v4": __cpu_features__.get("X86_V4", False), "rows": rows,
                  "unchanged": unchanged}))
"""


def _pinned_here() -> dict:
    """The pinned file, or a skip naming both numpy versions if it was
    written with another numpy than this one."""
    pinned = json.loads(pin_outputs.PINNED.read_text())
    if pinned["numpy"] != np.__version__:
        pytest.skip(f"values pinned with numpy {pinned['numpy']}, this is numpy {np.__version__}")
    return pinned


def test_every_reported_number_is_pinned(tmp_path):
    pinned = _pinned_here()
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


def test_same_numbers_under_avx2_dispatch(tmp_path):
    """``NPY_ENABLE_CPU_FEATURES=X86_V3`` (numpy 2.4's name for the AVX2
    level) in the child's environment only; this process's dispatch is
    untouched."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"an AVX2 dispatch needs x86-64, this is {platform.machine()}")
    _pinned_here()
    from numpy._core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("X86_V3"):
        pytest.skip("this CPU has no AVX2 (X86_V3) level to limit the dispatch to")
    path = [str(ROOT / "src"), str(ROOT / "tools"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "NPY_ENABLE_CPU_FEATURES": "X86_V3",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["x86_v4"] is False  # the limit took effect
    lines = diff_outputs.table([tuple(row) for row in result["rows"]], result["unchanged"])
    print("\n".join(lines))
    assert not result["rows"], "\n".join(lines)
