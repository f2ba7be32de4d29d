"""Every input parser either parses its input or raises its module's typed
error, which the command line turns into exit code 2 or 3; nothing else
may escape (no traceback).

The strategies mix arbitrary input with input that is well-formed up to
one field, so the examples reach the checks behind the outer format.
"""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmi_lab import FringeDataset, TimeTagStream, TransferMatrix, config
from mmi_lab.characterize import CharacterizationError
from mmi_lab.instrument import ConfigError
from mmi_lab.matrix import MatrixError
from mmi_lab.tagstream import StreamFormatError

FUZZ = settings(max_examples=300, deadline=None)

numbers = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=True,
                                                                allow_infinity=True))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


def parses_or_raises(parse, error, payload):
    try:
        return parse(payload)
    except error:
        return None


# -- time-tag streams --------------------------------------------------------


@st.composite
def stream_payloads(draw):
    """A header with random fields, then whole or partial 12-byte records."""
    header = struct.pack("<4sHHQ", draw(st.sampled_from([b"TTAG", b"TTAH"])),
                         draw(st.sampled_from([1, 1, 2])), draw(st.integers(0, 5)),
                         draw(st.integers(0, 2 ** 64 - 1)))
    records = [struct.pack("<QB3x", draw(st.integers(0, 2 ** 64 - 1)), draw(st.integers(0, 6)))
               for _ in range(draw(st.integers(0, 5)))]
    return header + b"".join(records) + draw(st.binary(max_size=13))


@FUZZ
@given(st.one_of(st.binary(max_size=64), stream_payloads()))
@example(struct.pack("<4sHHQ", b"TTAG", 1, 2, 81_000) + struct.pack("<QB3x", 5, 2))
def test_stream_bytes_parse_or_raise(payload):
    stream = parses_or_raises(TimeTagStream.from_bytes, StreamFormatError, payload)
    if stream is not None:
        assert len(stream) == (len(payload) - 16) // 12
        assert TimeTagStream.from_bytes(stream.to_bytes()).to_bytes() == stream.to_bytes()


csv_rows = st.one_of(
    st.tuples(st.integers(-3, 300), st.integers(-5, 2 ** 65)).map(lambda r: f"{r[0]},{r[1]}"),
    st.text(alphabet="0123456789,-+_. xe\t", max_size=12))


@FUZZ
@given(st.one_of(st.text(max_size=40),
                 st.lists(csv_rows, max_size=6).map(lambda rows: "\n".join(rows))))
@example("channel,tick\n5,10\n")
def test_stream_csv_parses_or_raises(text):
    stream = parses_or_raises(TimeTagStream.from_csv, StreamFormatError, text)
    if stream is not None:  # read at 81 ps, with one channel past the highest named
        assert stream.n_channels == int(stream.channels.max(initial=0)) + 1
        assert stream.tick_fs == 81_000


# -- experiment configs --------------------------------------------------------

_KEYS = sorted({f"{name}.{key}" for name, cls in config._SECTION_TYPES.items()
                for key in cls.__dataclass_fields__})
_VALUES = st.one_of(
    numbers.map(str), st.sampled_from(["none", "calibrated", "mmi", "hbt", "parallel",
                                       "builtin:chip_4x4_v1", "", "0", "-1", "1e400"]),
    st.text(alphabet="0123456789.-e:abn ", max_size=10))


@st.composite
def config_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        section, key = draw(st.sampled_from(_KEYS)).split(".")
        section = draw(st.sampled_from([section, section, "DEFAULT", "sauce"]))
        lines += [f"[{section}]", f"{key} = {draw(_VALUES)}"]
    return "\n".join(lines) + "\n"


@FUZZ
@given(st.one_of(st.text(max_size=60), config_texts()))
@example("[detectors]\ntick_fs = 0\n")
@example("[source]\npulse_length_ns = 1\n")
def test_config_parses_or_raises(text):
    cfg = parses_or_raises(config.loads, ConfigError, text)
    if cfg is not None:
        assert len(cfg.config_hash()) == 16


# -- transfer matrices ---------------------------------------------------------

entries = st.one_of(st.fixed_dictionaries({"re": numbers, "im": numbers}), json_values)


@FUZZ
@given(st.one_of(json_values, st.fixed_dictionaries({
    "n_modes": st.one_of(st.integers(-1, 4), numbers, json_values),
    "elements": st.one_of(st.lists(st.lists(entries, max_size=3), max_size=3), json_values),
})))
@example({"n_modes": float("inf"), "elements": []})
@example({"n_modes": 2, "elements": [[{"re": 10 ** 400, "im": 0}] * 2] * 2})
def test_matrix_json_parses_or_raises(doc):
    parses_or_raises(TransferMatrix.from_json_dict, MatrixError, doc)


# -- fringe datasets -----------------------------------------------------------

grids = st.one_of(st.lists(numbers, max_size=10),
                  st.just(np.linspace(0.0, 2 * np.pi, 8, endpoint=False).tolist()),
                  json_values)
tables = st.one_of(st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=2, max_size=2),
                   st.lists(st.lists(numbers, max_size=3), max_size=9), json_values)


@FUZZ
@given(st.one_of(json_values, st.fixed_dictionaries({
    "n_modes": st.one_of(st.just(2), numbers, json_values),
    "phase_grid": grids,
    "transmissions": tables,
    "fringes": st.one_of(st.dictionaries(st.sampled_from(["1,2", "1-2", "a,b", "1,2,3"]),
                                         tables, max_size=2), json_values),
})))
@example({"n_modes": 2, "phase_grid": [[0.1 * k for k in range(8)]],
          "transmissions": [[1, 0], [0, 1]], "fringes": {}})
@example({"n_modes": float("inf"), "phase_grid": [], "transmissions": [], "fringes": {}})
def test_fringe_json_parses_or_raises(doc):
    parses_or_raises(FringeDataset.from_json_dict, CharacterizationError, doc)

