"""Run configuration: defaults, file parsing, validation, precedence.

Config files are flat ``key = value`` text ('#' starts a comment).
Precedence is command-line flags > file values > built-in defaults.
Unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import UsageError


@dataclass
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

    # ablation toggles
    no_aff: bool = False
    no_ddl: bool = False
    no_bias_loss: bool = False

    # synthetic dataset shape
    train_per_class: int = 25
    test_per_class: int = 10
    train_subjects: int = 6
    test_subjects: int = 4
    snr_lo: float = 5.0
    snr_hi: float = 20.0

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


def check_value_types(values: dict) -> dict:
    """`values`, if each value of a known field has that field's type (an int
    may stand for a float); else `UsageError` naming the key."""
    for key, value in values.items():
        if key not in _FIELDS:
            continue
        ftype = _FIELDS[key].type
        accepted = (int, float) if ftype == "float" else FIELD_TYPES[ftype]
        # bool is an int subclass: only a bool field takes one
        if isinstance(value, bool) != (ftype == "bool") or not isinstance(value, accepted):
            raise UsageError(f"config key '{key}' must be of type {ftype}, got {value!r}")
    return values


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
        values[key] = _coerce(key, value)
    return values


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


def check_synth(train_per_class: int, test_per_class: int, train_subjects: int,
                test_subjects: int, snr_lo: float, snr_hi: float) -> None:
    """`UsageError` unless the values describe a synthetic corpus `build_synth` can draw."""
    _need(train_per_class >= 1, f"train_per_class must be >= 1, got {train_per_class}")
    _need(test_per_class >= 0, f"test_per_class must be >= 0, got {test_per_class}")
    _need(train_subjects >= 1 and test_subjects >= 1, "subject counts must be >= 1")
    for name, db in (("snr_lo", snr_lo), ("snr_hi", snr_hi)):
        _need(not math.isnan(db), f"{name} is NaN; an SNR bound must be a number of dB")
    _need(snr_lo <= snr_hi, f"snr_lo={snr_lo} exceeds snr_hi={snr_hi}")
    _need(math.isfinite(snr_hi - snr_lo), f"snr range {snr_lo}..{snr_hi} must have a finite width")


def validate_config(cfg: RunConfig) -> RunConfig:
    _need(cfg.seed >= 0, f"seed must be >= 0, got {cfg.seed}")
    _need(0 < cfg.lr < math.inf, f"lr must be finite and > 0, got {cfg.lr}")
    _need(0 <= cfg.weight_decay < math.inf,
          f"weight_decay must be finite and >= 0, got {cfg.weight_decay}")
    _need(cfg.batch >= 1, f"batch must be >= 1, got {cfg.batch}")
    _need(cfg.epochs >= 0, f"epochs must be >= 0, got {cfg.epochs}")
    _need(0.0 <= cfg.beta <= 1.0, f"beta must be in [0, 1], got {cfg.beta}")
    _need(0.0 <= cfg.epsilon < 1.0, f"epsilon must be in [0, 1), got {cfg.epsilon}")
    _need(0.0 <= cfg.alpha < math.inf, f"alpha must be finite and >= 0, got {cfg.alpha}")
    _need(cfg.dim >= 1 and cfg.heads >= 1 and cfg.layers >= 0, "model dimensions must be positive")
    _need(cfg.mask_hidden >= 1, f"mask_hidden must be >= 1, got {cfg.mask_hidden}")
    _need(cfg.dim % (2 * cfg.heads) == 0,
          f"dim={cfg.dim} must be divisible by 2*heads={2 * cfg.heads} for the query/key split")
    check_synth(cfg.train_per_class, cfg.test_per_class, cfg.train_subjects, cfg.test_subjects,
                cfg.snr_lo, cfg.snr_hi)
    return cfg


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
    return validate_config(RunConfig(**values))
