"""Experiment configuration files.

INI-style documents with sections [source], [detectors], [layout],
[matrix] and [analysis]; a key left out keeps its dataclass default, so
``default_config()`` is ``ExperimentConfig()``.  Unknown sections or keys
are rejected so typos cannot silently fall back to defaults; every number
must be finite and every [analysis] duration (``*_ns``) positive.  Mode
indices in config files are 1-based (matching how interferometer ports
are labelled); the library converts to 0-based indices internally.
Every stochastic step derives its seed deterministically from
``analysis.master_seed``.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from ._runtime import ConfigError
from .core import ModeIndexError
from .instrument import DetectorConfig, Layout, SourceConfig, check_layout_names
from .matrix import TransferMatrix, balanced_splitter, builtin_matrix

_SCHEMA = "experiment-config/1"


@dataclass(frozen=True)
class AnalysisConfig:
    coincidence_window_ns: float = 300.0
    reference_offset_cycles: int = 2
    profile_pitch_ns: float = 8.0
    display_pitch_ns: float = 4.0
    correlation_range_ns: float = 5976.0
    correlation_bin_ns: float = 100.0
    correlation_pitch_ns: float = 20.0
    half_window_ns: float = 25.0
    min_window_events: int = 5
    mc_trials: int = 1_000_000
    master_seed: int = 20260101

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_ns") and not value > 0:
                raise ConfigError(f"{f.name} must be positive, got {value}")
        if not 1e-6 <= self.correlation_pitch_ns <= self.correlation_bin_ns:
            raise ConfigError(f"correlation_pitch_ns = {self.correlation_pitch_ns:g} must be "
                              f">= 1 fs and <= correlation_bin_ns = {self.correlation_bin_ns:g}")
        if self.mc_trials < 1000:
            raise ConfigError("mc_trials unreasonably small")
        if not 1 <= self.reference_offset_cycles <= 1 << 53:  # a float offset holds it exactly
            raise ConfigError("reference_offset_cycles must be in [1, 2**53], "
                              f"got {self.reference_offset_cycles}")
        if self.min_window_events < 1:  # an empty window has nothing to resample
            raise ConfigError(f"min_window_events must be at least 1, got {self.min_window_events}")


@dataclass(frozen=True)
class LayoutSpec:
    kind: str = "mmi"
    input_delayed: int = 1          # 1-based, as written in config files
    input_direct: int = 2
    polarization: str = "parallel"

    def __post_init__(self):  # at load, so no command runs with a name no layout has
        check_layout_names(self.kind, self.polarization)


@dataclass(frozen=True)
class MatrixSpec:
    source: str = "builtin:chip_4x4_v1"   # or file:<path>


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceConfig = field(default_factory=SourceConfig)
    detectors: DetectorConfig = field(default_factory=DetectorConfig)
    layout: LayoutSpec = field(default_factory=LayoutSpec)
    matrix: MatrixSpec = field(default_factory=MatrixSpec)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    # -- assembly --------------------------------------------------------

    def build_matrix(self) -> TransferMatrix:
        kind, _, name = self.matrix.source.partition(":")
        readers = {"builtin": builtin_matrix, "file": TransferMatrix.from_file}
        if kind not in readers or "\0" in name:  # no file or resource name holds a NUL
            raise ConfigError(f"matrix source must be 'builtin:<name>' or "
                              f"'file:<path>', got {self.matrix.source!r}")
        return readers[kind](name)

    def build_layout(self) -> Layout:
        spec = self.layout
        if spec.kind == "hbt":
            return Layout.hbt()
        matrix = self.build_matrix() if spec.kind == "mmi" else balanced_splitter()
        delayed, direct = self._inputs(matrix.n_modes)
        return Layout(kind=spec.kind, interference_matrix=matrix,
                      input_delayed=delayed, input_direct=direct,
                      polarization=spec.polarization)

    def input_pair(self, n_modes: int) -> tuple[int, int]:
        """0-based (i, j) input pair fed by the routing into ``n_modes`` modes."""
        return tuple(sorted(self._inputs(n_modes)))

    def _inputs(self, n_modes: int) -> tuple[int, int]:
        """0-based (delayed, direct) inputs, each checked against ``n_modes``."""
        for key in ("input_delayed", "input_direct"):
            value = getattr(self.layout, key)
            if not 1 <= value <= n_modes:
                raise ModeIndexError(f"[layout] {key} = {value} out of range 1..{n_modes}")
        return self.layout.input_delayed - 1, self.layout.input_direct - 1

    # -- seeds and provenance ---------------------------------------------

    def seed_for(self, purpose: str) -> int:
        digest = hashlib.sha256(
            f"{self.analysis.master_seed}:{purpose}".encode()).digest()
        return int.from_bytes(digest[:8], "little") % (2 ** 63)

    def to_dict(self) -> dict:
        return {"schema": _SCHEMA,
                **{name: asdict(getattr(self, name)) for name in _SECTION_TYPES}}

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


_SECTION_TYPES = {f.name: f.default_factory for f in fields(ExperimentConfig)}


def _convert(raw: str, default):
    """``raw`` as the type of ``default``; None marks an optional float."""
    value = raw.strip()
    if default is None and value.lower() in ("none", "auto", "calibrated"):
        return None
    converted = float(value) if default is None else type(default)(value)
    if isinstance(converted, float) and not math.isfinite(converted):
        raise ValueError(f"{value!r} is not finite")
    return converted


def _parse_section(parser: configparser.ConfigParser, name: str, cls):
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    if parser.has_section(name):
        for key, raw in parser.items(name):
            if key not in defaults:
                raise ConfigError(f"unknown key [{name}] {key!r}; "
                                  f"valid keys: {sorted(defaults)}")
            try:
                kwargs[key] = _convert(raw, defaults[key])
            except ValueError as exc:
                raise ConfigError(f"invalid value for [{name}] {key}: {exc}") from exc
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid [{name}] section: {exc}") from exc


def loads(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    unknown = set(parser.sections()) - set(_SECTION_TYPES)
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}; "
                          f"valid sections: {sorted(_SECTION_TYPES)}")
    return ExperimentConfig(**{name: _parse_section(parser, name, cls)
                               for name, cls in _SECTION_TYPES.items()})


def load(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
    return loads(text)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
