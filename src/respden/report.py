"""Metrics-log reading and the ablation table renderer.

Percentages are truncated (not rounded) to two decimals, matching the
reporting convention of the evaluation protocol.
"""

from __future__ import annotations

import json
import math

from .errors import DatasetError, UsageError


def truncate_pct(fraction: float) -> float:
    """Truncate a [0, 1] fraction to a percentage with two decimals."""
    # the 1e-9 nudge absorbs binary representation error of decimal inputs
    return math.floor(fraction * 100.0 * 100 + 1e-9) / 100


def format_triple(sp: float, se: float, score: float) -> str:
    return f"{truncate_pct(sp):.2f} / {truncate_pct(se):.2f} / {truncate_pct(score):.2f}"


#: variant names; beta = 0 is `no_bias_loss`, which older logs also carry as a flag
ABLATION_FLAGS = ("no_aff", "no_ddl", "no_bias_loss")


def variant_name(config: dict) -> str:
    """'+'-joined names of the mechanisms a run config switches off, or 'full'."""
    off = {**config, "no_bias_loss": config.get("no_bias_loss") or config.get("beta") == 0}
    on = [k for k in ABLATION_FLAGS if off.get(k)]
    return "+".join(on) if on else "full"


def _is_fraction(value) -> bool:
    return type(value) in (int, float) and 0 <= value <= 1  # a JSON bool is an int subclass


def read_metrics_log(path: str) -> tuple[dict, list[dict]]:
    """Return (header record, epoch records) from a line-delimited log.

    Every record must be a JSON object, a header's config an object whose
    ablation flags are booleans and whose beta is a number, and each epoch
    record's sp, se and score numbers in [0, 1]; unknown keys are ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DatasetError(f"cannot read metrics log {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"metrics log {path} is not UTF-8 text: {exc}") from exc
    header = None
    epochs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DatasetError(f"{path}:{lineno}: invalid metrics record: {exc}") from exc
        if not isinstance(record, dict):
            raise DatasetError(f"{path}:{lineno}: a metrics record must be a JSON object")
        if record.get("type") == "header":
            config = record.get("config", {})
            if not isinstance(config, dict):
                raise DatasetError(f"{path}:{lineno}: the header's config must be a JSON object")
            if not (all(isinstance(config.get(k, False), bool) for k in ABLATION_FLAGS)
                    and type(config.get("beta", 0)) in (int, float)):  # a JSON bool is an int
                raise DatasetError(f"{path}:{lineno}: the ablation flags {', '.join(ABLATION_FLAGS)} "
                                   "must be JSON booleans, and beta a JSON number")
            header = record
        elif record.get("type") == "epoch":
            if not all(_is_fraction(record.get(key)) for key in ("sp", "se", "score")):
                raise DatasetError(f"{path}:{lineno}: an epoch record needs sp, se and score in [0, 1]")
            epochs.append(record)
    if header is None or not epochs:
        raise DatasetError(f"metrics log {path} lacks a header or epoch records")
    return header, epochs


def render_ablation_table(rows: list[tuple[str, float, float, float]]) -> str:
    """Text table with one row per ablation variant: Sp / Se / Score in %."""
    if not rows:
        raise UsageError("no runs to report")
    name_w = max(len("variant"), max(len(r[0]) for r in rows))
    header = f"{'variant':<{name_w}}  {'Sp(%)':>7}  {'Se(%)':>7}  {'Score(%)':>9}"
    rule = "-" * len(header)
    lines = [header, rule]
    for name, sp, se, score in rows:
        lines.append(
            f"{name:<{name_w}}  {truncate_pct(sp):>7.2f}  {truncate_pct(se):>7.2f}  "
            f"{truncate_pct(score):>9.2f}"
        )
    return "\n".join(lines)


def ablation_report(log_paths: list[str]) -> str:
    """Assemble the ablation table from one metrics log per variant."""
    if not log_paths:
        raise UsageError("report requires at least one metrics log")
    rows = []
    for path in log_paths:
        header, epochs = read_metrics_log(path)
        last = epochs[-1]
        rows.append((variant_name(header.get("config", {})), last["sp"], last["se"], last["score"]))
    return render_ablation_table(rows)
