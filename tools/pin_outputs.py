"""Pin every number the command line reports.

    python tools/pin_outputs.py           # compare a fresh run with the pinned values
    python tools/pin_outputs.py --write   # regenerate tests/pinned/values.json

Runs a fixed set of ``mmi_lab.cli.main`` calls (:data:`CALLS`) in a
temporary directory: a run manifest for each layout (mmi with
``--truth-out``, hbt, and HOM with parallel and orthogonal polarisation),
all four analyses (``mmi`` and ``hom`` with ``--format csv``),
``characterize --simulate --repeat 20``, and ``predict`` as CSV and as
JSON.  Each call's files and its stdout are flattened by
``diff_outputs.values``: JSON leaves, CSV cells, ``key,value`` lines, and
streams by sha256.  Stdout that is JSON (written with sorted keys, so its
values fix its bytes) is kept by value, and so are the ``key,value`` lines
of ``analyze --format csv``, by key and with their key order; any other
stdout (the ``predict`` table) by sha256.  Each call's exit code is kept
too.  The file records the numpy version it was written with.

``tests/test_pinned_outputs.py`` reruns the set and compares it with the
file.  A change that moves numbers on purpose regenerates the file with
``--write``; the file's diff is then the list of moved numbers.

Every value must match exactly, except the floats of the ``characterize``
call, compared at a relative tolerance of :data:`CHARACTERIZE_REL_TOL`.
``np.exp`` and ``np.angle`` change bits with numpy's CPU dispatch set: with
numpy 2.4.6 on an AVX-512 machine, limiting the dispatch to AVX2
(``NPY_ENABLE_CPU_FEATURES=X86_V3``) moves three of this set's
``characterize`` floats, the largest by 2.6e-14 relative
(``deviation[3][3]``, a difference of two matrix elements).  The tolerance
covers that move about 400 times over; nothing else in the set moves.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import diff_outputs
from mmi_lab import cli

PINNED = Path(__file__).resolve().parents[1] / "tests" / "pinned" / "values.json"

CHARACTERIZE_REL_TOL = 1e-11

#: ``(name, argv)``: each call writes into ``<root>/<name>``; ``{root}``
#: stands for the run's directory
CALLS = [
    ("simulate-mmi", "simulate --seconds 30000 --seed 40000 --out {root}/simulate-mmi/mmi.ttag "
                     "--truth-out {root}/simulate-mmi/truth/mmi.ttag"),
    ("simulate-hbt", "simulate --layout hbt --seconds 30000 --out {root}/simulate-hbt/hbt.ttag"),
    ("simulate-hom-parallel", "simulate --layout hom_splitter --seconds 20000 --seed 3 "
                              "--out {root}/simulate-hom-parallel/par.ttag"),
    ("simulate-hom-orthogonal", "simulate --layout hom_splitter --polarization orthogonal "
                                "--seconds 20000 --seed 4 "
                                "--out {root}/simulate-hom-orthogonal/orth.ttag"),
    ("analyze-mmi", "analyze mmi --stream {root}/simulate-mmi/mmi.ttag --trials 20000 "
                    "--format csv --out {root}/analyze-mmi"),
    ("analyze-timeresolved", "analyze timeresolved --stream {root}/simulate-mmi/mmi.ttag "
                             "--trials 20000 --out {root}/analyze-timeresolved"),
    ("analyze-hom", "analyze hom --stream {root}/simulate-hom-parallel/par.ttag "
                    "--reference {root}/simulate-hom-orthogonal/orth.ttag --format csv "
                    "--out {root}/analyze-hom"),
    ("analyze-g2", "analyze g2 --stream {root}/simulate-hbt/hbt.ttag --out {root}/analyze-g2"),
    ("characterize", "characterize --simulate --noise-sd 0.01 --repeat 20 "
                     "--out {root}/characterize"),
    ("predict-csv", "predict --out {root}/predict-csv/table.csv"),
    ("predict-json", "predict -i 2 -j 3 --visibility 0.7 --format json "
                     "--out {root}/predict-json/report.json"),
]


def run(root: Path) -> dict[str, dict[str, str]]:
    """Run :data:`CALLS` under the directory ``root`` and flatten what they
    wrote and printed, by file and key."""
    codes = {}
    for name, argv in CALLS:
        (root / name).mkdir(parents=True, exist_ok=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([arg.format(root=root) for arg in argv.split()])
        text = out.getvalue()
        suffix = (".json" if text.startswith("{")
                  else ".kv" if name.startswith("analyze-") else ".txt")
        (root / name / f"stdout{suffix}").write_text(text, encoding="utf-8", newline="")
        codes[f"{name}/(run)"] = {"exit_code": str(code)}
    return {**diff_outputs.tree_values(root), **codes}


def _close_floats(name: str, key: str, before: str, after: str) -> bool:
    if not name.startswith("characterize/"):
        return False
    try:
        a, b = json.loads(before), json.loads(after)
    except ValueError:
        return False
    return (isinstance(a, float) and isinstance(b, float)
            and math.isclose(a, b, rel_tol=CHARACTERIZE_REL_TOL))


def differences(pinned: dict, fresh: dict) -> tuple[list[tuple[str, str, str, str]], int]:
    """``diff_outputs.diff`` of the pinned values and a fresh :func:`run`,
    less the ``characterize`` floats within :data:`CHARACTERIZE_REL_TOL`;
    those count as unchanged."""
    rows, unchanged = diff_outputs.diff(pinned, fresh)
    kept = [row for row in rows if not _close_floats(*row)]
    return kept, unchanged + len(rows) - len(kept)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write the fresh values to {PINNED.relative_to(PINNED.parents[2])}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        fresh = run(Path(tmp))
    if args.write:
        PINNED.parent.mkdir(parents=True, exist_ok=True)
        PINNED.write_text(json.dumps({"numpy": np.__version__, "values": fresh},
                                     indent=1, sort_keys=True) + "\n")
        print(f"wrote {sum(map(len, fresh.values()))} values to {PINNED}")
        return 0
    pinned = json.loads(PINNED.read_text())
    if pinned["numpy"] != np.__version__:
        print(f"note: values pinned with numpy {pinned['numpy']}, "
              f"this is numpy {np.__version__}", file=sys.stderr)
    rows, unchanged = differences(pinned["values"], fresh)
    print("\n".join(diff_outputs.table(rows, unchanged)))
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main())
