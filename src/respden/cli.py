"""Command-line surface: train / eval / synth / gradcheck / report.

Exit codes are a stable contract for scripting:
0 success, 1 verification, training or numeric failure, 2 usage error,
3 I/O or data-format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .checkpoint import (
    checkpoint_from_model,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from .config import FIELD_TYPES, RunConfig, parse_config
from .datasets import write_synth
from .errors import (
    CheckpointError,
    DatasetError,
    NumericError,
    ShapeError,
    TrainingError,
    UndefinedMetricError,
    UsageError,
)
from .gradcheck import run_gradcheck
from .report import ablation_report, format_triple
from .train import evaluate_split, prepare_data, synth_dataset, train

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DATA = 3


#: help text of the flags whose name does not say what they take
_FLAG_HELP = {"dataset": "'synth' or a directory of WAV + annotation files",
              "split_file": "override the dataset split file",
              "out_dir": "run output directory"}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """`--config`, then one flag per `RunConfig` field: `--mask-hidden` sets
    `mask_hidden`, and a bool field's flag sets it to True."""
    p.add_argument("--config", help="flat key = value config file")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            p.add_argument(flag, dest=f.name, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=f.name, type=FIELD_TYPES[f.type], help=_FLAG_HELP.get(f.name))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    field_names = set(RunConfig.__dataclass_fields__)
    overrides = {k: v for k, v in vars(args).items() if k in field_names and v is not None}
    return parse_config(overrides, getattr(args, "config", None))


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    log_path = os.path.join(cfg.out_dir, "metrics.jsonl")
    result = train(cfg, log_path=log_path)
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.bin")
    save_checkpoint(checkpoint_from_model(result.model, len(result.history), result.adam), ckpt_path)
    if result.history:
        last = result.history[-1]
        print(f"epoch {last.epoch}: loss {last.train_loss:.4f}  "
              f"Sp/Se/Score {format_triple(last.sp, last.se, last.score)}")
    print(f"checkpoint: {ckpt_path}")
    print(f"metrics log: {log_path}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if not args.checkpoint:
        raise UsageError("eval requires --checkpoint")
    ckpt = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    overrides = {}
    if args.dataset is not None:
        # the stored split file names the training corpus's recordings, not this one's
        overrides.update(dataset=args.dataset, split_file="")
    for key in ("split_file", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    data = prepare_data(dataclasses.replace(model.cfg, **overrides))
    report = evaluate_split(model, data, args.split)
    print(f"confusion (rows=truth):\n{report.confusion}")
    print(f"Sp/Se/Score: {format_triple(report.sp, report.se, report.score)}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    manifest, clips = synth_dataset(cfg)
    split_path = write_synth(manifest, clips, cfg.out_dir)
    print(f"wrote {len(clips)} clips to {cfg.out_dir} (split file: {split_path})")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    # zero entries would pass every row without probing anything
    if args.max_entries < 1:
        raise UsageError(f"--max-entries must be >= 1, got {args.max_entries}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    rows, ok = run_gradcheck(seed=args.seed, max_entries=args.max_entries)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<28} max_rel_err={r.max_rel_err:.3e}  "
              f"entries={r.n_checked}  tol={r.tol:g}")
    print("gradcheck: " + ("all checks passed" if ok else "FAILURES present"))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_report(args: argparse.Namespace) -> int:
    print(ablation_report(args.logs))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="respden",
                                     description="respiratory sound classifier with implicit denoising")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset")
    p_eval.add_argument("--split-file", dest="split_file")
    p_eval.add_argument("--split", default="test", choices=("train", "test"))
    p_eval.add_argument("--seed", type=int)
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    _add_config_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_gc = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--max-entries", dest="max_entries", type=int, default=8,
                      help="entries sampled per large parameter tensor")
    p_gc.set_defaults(func=cmd_gradcheck)

    p_rep = sub.add_parser("report", help="render an ablation table from metrics logs")
    p_rep.add_argument("logs", nargs="+")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (DatasetError, CheckpointError, ShapeError, UndefinedMetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
