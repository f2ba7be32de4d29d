"""Name every value that differs between two output trees.

    python tools/diff_outputs.py BEFORE AFTER

Walks both directories and compares each file found in either by its path
relative to the root:

- ``*.json`` by every leaf, keyed by its path (``a.b[2].c``): run
  manifests, reports and matrices;
- ``*.csv`` by every cell, keyed by row and column (the row by its first
  cell when that column's values are unique, else by its number);
- ``*.kv``, ``key,value`` lines with no header row (what ``analyze --format
  csv`` prints), by every key, and the keys' order as ``(keys)``;
- anything else, time-tag streams among them, by the sha256 of its bytes.

Prints one ``file | key | before | after`` row per difference, ready for a
Markdown table, then the count of values that did not change.  A value
present on one side only reads ``(absent)`` on the other.  Exits 1 when
anything differs, 0 when nothing does.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

ABSENT = "(absent)"


def _json_leaves(value, path: str = ""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for n, item in enumerate(value):
            yield from _json_leaves(item, f"{path}[{n}]")
    else:
        yield path, json.dumps(value)  # keeps 1 apart from 1.0, and NaN equal to NaN


def _csv_cells(text: str):
    header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
    firsts = [row[0] if row else "" for row in rows]
    unique = len(set(firsts)) == len(firsts)
    for n, row in enumerate(rows):
        label = f"{header[0]}={row[0]}" if unique and row else f"row {n + 1}"
        for col, cell in zip(header, row):
            yield f"{label}/{col}", cell


def _key_values(text: str) -> dict[str, str]:
    pairs = [line.partition(",")[::2] for line in text.splitlines()]
    return {**dict(pairs), "(keys)": ",".join(key for key, _ in pairs)}


def values(path: Path) -> dict[str, str]:
    """Every comparable value of one file, by key."""
    if path.suffix == ".json":
        return dict(_json_leaves(json.loads(path.read_text())))
    if path.suffix == ".csv":
        return dict(_csv_cells(path.read_text()))
    if path.suffix == ".kv":
        return _key_values(path.read_text())
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def tree_values(root: Path) -> dict[str, dict[str, str]]:
    """:func:`values` of every file under ``root``, by its relative path."""
    return {p.relative_to(root).as_posix(): values(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def diff(before: dict, after: dict) -> tuple[list[tuple[str, str, str, str]], int]:
    """``(differences, unchanged)`` between two :func:`tree_values` maps: a
    ``(file, key, before, after)`` row per differing value, and the number
    of values equal on both sides."""
    rows, unchanged = [], 0
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name, {}), after.get(name, {})
        for key in list(old) + [k for k in new if k not in old]:
            a, b = old.get(key, ABSENT), new.get(key, ABSENT)
            if a == b:
                unchanged += 1
            else:
                rows.append((name, key, a, b))
    return rows, unchanged


def compare(before: Path, after: Path) -> tuple[list[tuple[str, str, str, str]], int]:
    """:func:`diff` of the files under two directories."""
    return diff(tree_values(before), tree_values(after))


def table(rows, unchanged: int) -> list[str]:
    """The lines :func:`main` prints: a Markdown table of ``rows``, if any,
    then the counts."""
    head = ["file | key | before | after", "--- | --- | --- | ---"] if rows else []
    return head + [" | ".join(row) for row in rows] + [
        f"{unchanged} values unchanged, {len(rows)} differ"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    for root in (args.before, args.after):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    rows, unchanged = compare(args.before, args.after)
    print("\n".join(table(rows, unchanged)))
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main())
