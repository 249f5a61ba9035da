"""Run configuration: defaults, file parsing, validation, precedence.

Config files are flat ``key = value`` text ('#' starts a comment).
Precedence is command-line flags > file values > built-in defaults.
Unknown keys are rejected.

`RunConfig` and `SynthConfig` are frozen and check themselves when built,
whatever builds them: flags, a config file, a checkpoint or a library call.
A value of the wrong type or out of range raises `UsageError` there.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import UsageError


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


def _has_type(value, ftype: str) -> bool:
    accepted = (int, float) if ftype == "float" else FIELD_TYPES[ftype]
    # bool is an int subclass: only a bool field takes one
    return isinstance(value, bool) == (ftype == "bool") and isinstance(value, accepted)


def _check_types(cfg) -> None:
    """`UsageError` naming the first field of `cfg` whose value is not of its type."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if not (_has_type(value, f.type) if f.type in FIELD_TYPES else  # a pair of floats
                isinstance(value, tuple) and len(value) == 2 and all(_has_type(v, "float") for v in value)):
            raise UsageError(f"config key '{f.name}' must be of type {f.type}, got {value!r}")


@dataclass(frozen=True)
class SynthConfig:
    """The synthetic corpus's shape; only one that `build_synth` can draw is built."""
    train_per_class: int = 25
    test_per_class: int = 10
    train_subjects: int = 6
    test_subjects: int = 4
    snr_db: tuple[float, float] = (5.0, 20.0)

    def __post_init__(self):
        _check_types(self)
        _need(self.train_per_class >= 1, f"train_per_class must be >= 1, got {self.train_per_class}")
        _need(self.test_per_class >= 0, f"test_per_class must be >= 0, got {self.test_per_class}")
        _need(self.train_subjects >= 1 and self.test_subjects >= 1, "subject counts must be >= 1")
        snr_lo, snr_hi = self.snr_db
        for name, db in (("snr_lo", snr_lo), ("snr_hi", snr_hi)):
            _need(not math.isnan(db), f"{name} is NaN; an SNR bound must be a number of dB")
        _need(snr_lo <= snr_hi, f"snr_lo={snr_lo} exceeds snr_hi={snr_hi}")
        _need(math.isfinite(snr_hi - snr_lo),
              f"snr range {snr_lo}..{snr_hi} must have a finite width")


@dataclass(frozen=True)
class RunConfig:
    dataset: str = "synth"          # "synth" or a directory of WAV + annotations
    split_file: str = ""            # defaults to <dataset>/split.txt for directories
    out_dir: str = "runs/default"
    seed: int = 0

    # model dimensions
    dim: int = 96
    heads: int = 4
    layers: int = 4
    mask_hidden: int = 32

    # optimization
    lr: float = 5e-5
    weight_decay: float = 0.1
    batch: int = 8
    epochs: int = 50

    # loss / filter hyperparameters
    beta: float = 0.5
    epsilon: float = 0.2
    alpha: float = 0.02

    # ablation toggles; beta = 0 switches off the bias-denoise loss
    no_aff: bool = False
    no_ddl: bool = False

    # synthetic dataset shape
    train_per_class: int = SynthConfig.train_per_class
    test_per_class: int = SynthConfig.test_per_class
    train_subjects: int = SynthConfig.train_subjects
    test_subjects: int = SynthConfig.test_subjects
    snr_lo: float = SynthConfig.snr_db[0]
    snr_hi: float = SynthConfig.snr_db[1]

    def __post_init__(self):
        _check_types(self)
        _need(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        _need(0 < self.lr < math.inf, f"lr must be finite and > 0, got {self.lr}")
        _need(0 <= self.weight_decay < math.inf,
              f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        _need(self.batch >= 1, f"batch must be >= 1, got {self.batch}")
        _need(self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}")
        _need(0.0 <= self.beta <= 1.0, f"beta must be in [0, 1], got {self.beta}")
        _need(0.0 <= self.epsilon < 1.0, f"epsilon must be in [0, 1), got {self.epsilon}")
        _need(0.0 <= self.alpha < math.inf, f"alpha must be finite and >= 0, got {self.alpha}")
        _need(self.dim >= 1 and self.heads >= 1 and self.layers >= 0,
              "model dimensions must be positive")
        _need(self.mask_hidden >= 1, f"mask_hidden must be >= 1, got {self.mask_hidden}")
        _need(self.dim % (2 * self.heads) == 0, f"dim={self.dim} must be divisible by "
              f"2*heads={2 * self.heads} for the query/key split")
        self.synth()

    def synth(self) -> SynthConfig:
        """The synthetic corpus that the synth fields describe."""
        return SynthConfig(self.train_per_class, self.test_per_class, self.train_subjects,
                           self.test_subjects, (self.snr_lo, self.snr_hi))

    def snapshot(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
#: the Python type of each field type; a float field also takes an int value
FIELD_TYPES = {"bool": bool, "int": int, "float": float, "str": str}


def _coerce(key: str, value: str):
    ftype = _FIELDS[key].type
    try:
        if ftype == "bool":
            lowered = value.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        return FIELD_TYPES[ftype](value)
    except ValueError as exc:
        raise UsageError(f"config key '{key}': {exc}") from exc


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise UsageError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in values:
            raise UsageError(f"{path}:{lineno}: config key '{key}' is set twice")
        values[key] = _coerce(key, value)
    return values


def parse_config(overrides: dict, config_file: str | None = None) -> RunConfig:
    """Merge defaults, an optional config file, and explicit overrides."""
    values = dataclasses.asdict(RunConfig())
    if config_file:
        try:
            values.update(parse_config_file(config_file))
        except OSError as exc:
            raise UsageError(f"cannot read config file {config_file}: {exc}") from exc
    for key, value in overrides.items():
        if key not in _FIELDS:
            raise UsageError(f"unknown config key '{key}'")
        if value is not None:
            values[key] = value
    return RunConfig(**values)
