"""Mini-batch training loop and split evaluation.

The loop is deterministic under a fixed seed: model init, data synthesis,
and per-epoch shuffling each draw from named child streams of the root
seed, and gradients are reduced in fixed index order. Per-epoch records
(epoch, train loss, Se, Sp, Score) go to a line-delimited JSON log, each
as its epoch ends, after a header written before the data loads.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .audio import AudioClip, preprocess
from .config import RunConfig
from .datasets import DatasetManifest, SynthConfig, build_synth, load_dataset
from .errors import NumericError, TrainingError, UndefinedMetricError
from .metrics import MetricsReport, compute_metrics, confusion_matrix
from .model import Model, seed_stream
from .optim import AdamState, adam_step

#: clips per no-grad forward in `evaluate_indices`. Stacking amortises the
#: per-call cost of each layer; much larger chunks lose the gain again to
#: page faults on the bigger temporaries.
EVAL_CHUNK = 4


@dataclass
class PreparedData:
    manifest: DatasetManifest
    features: list[np.ndarray]
    labels: list[int]
    train_idx: list[int]
    test_idx: list[int]


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    se: float
    sp: float
    score: float

    def to_json(self) -> str:
        return json.dumps({"type": "epoch", **asdict(self)}, sort_keys=True)


@dataclass
class TrainResult:
    model: Model
    adam: AdamState
    history: list[EpochRecord]
    step_losses: list[float] = field(default_factory=list)


def synth_dataset(cfg: RunConfig) -> tuple[DatasetManifest, list]:
    """The in-memory synthetic corpus that the config's synth fields describe."""
    return build_synth(SynthConfig(
        train_per_class=cfg.train_per_class, test_per_class=cfg.test_per_class,
        train_subjects=cfg.train_subjects, test_subjects=cfg.test_subjects,
        snr_db=(cfg.snr_lo, cfg.snr_hi),
    ), cfg.seed)


def resolve_dataset(cfg: RunConfig) -> tuple[DatasetManifest, Sequence[AudioClip]]:
    if cfg.dataset == "synth":
        return synth_dataset(cfg)
    split_file = cfg.split_file or os.path.join(cfg.dataset, "split.txt")
    return load_dataset(cfg.dataset, split_file)


def prepare_data(cfg: RunConfig, manifest: DatasetManifest | None = None,
                 clips: Sequence[AudioClip] | None = None) -> PreparedData:
    """Resolve the dataset and precompute every clip's spectrogram once."""
    if manifest is None or clips is None:
        manifest, clips = resolve_dataset(cfg)
    features = [preprocess(clip).values for clip in clips]
    labels = [int(entry.label) for entry in manifest.entries]
    return PreparedData(
        manifest, features, labels,
        manifest.split_indices("train"), manifest.split_indices("test"),
    )


def evaluate_indices(model: Model, data: PreparedData, indices: list[int]) -> MetricsReport:
    """Cycle-level evaluation: one prediction per clip, order-invariant.

    Clips are scored `EVAL_CHUNK` at a time, one `Model.predict` over their
    stacked spectrograms, which predicts what each clip alone would.
    """
    if not indices:
        raise UndefinedMetricError("cannot evaluate an empty split")
    preds: list[int] = []
    for lo in range(0, len(indices), EVAL_CHUNK):
        chunk = np.stack([data.features[i] for i in indices[lo:lo + EVAL_CHUNK]])
        preds.extend(model.predict(chunk).tolist())
    truths = [data.labels[i] for i in indices]
    return compute_metrics(confusion_matrix(truths, preds))


def evaluate_split(model: Model, data: PreparedData, split: str = "test") -> MetricsReport:
    return evaluate_indices(model, data, data.manifest.split_indices(split))


def _stratified_order(data: PreparedData, rng: np.random.Generator) -> list[int]:
    """Class-interleaved epoch order: each class list is shuffled, then the
    lists are round-robin merged so consecutive batches stay class-balanced.

    Balanced batches keep the gradient's common-mode term (driven by batch
    composition) from drowning the small discriminative signal at the tiny
    default learning rate.
    """
    by_class: dict[int, list[int]] = {}
    for i in data.train_idx:
        by_class.setdefault(data.labels[i], []).append(i)
    shuffled = []
    for label in sorted(by_class):
        idx = np.array(by_class[label])
        shuffled.append(list(idx[rng.permutation(len(idx))]))
    order: list[int] = []
    longest = max(len(lst) for lst in shuffled)
    for k in range(longest):
        for lst in shuffled:
            if k < len(lst):
                order.append(int(lst[k]))
    return order


def _batch_loss(model: Model, data: PreparedData, batch: list[int]) -> float:
    """Backward of the batch-mean loss, one sample graph at a time, each loss seeded
    with 1/B (the bits of mul(1/B, l0 + ... + l_{B-1}).backward()); returns the mean."""
    scale, total = 1.0 / len(batch), 0.0
    for i in batch:
        loss = model.sample_loss(data.features[i], data.labels[i])
        total += loss.item()
        loss.backward(scale)
    return scale * total


def header_line(cfg: RunConfig) -> str:
    return json.dumps({"type": "header", "config": cfg.snapshot()}, sort_keys=True)


def _write_line(path: str, line: str, mode: str) -> None:
    """Write one log line and close the file, so a run that aborts later keeps it."""
    with open(path, mode, encoding="utf-8") as fh:
        fh.write(line + "\n")


def train(cfg: RunConfig, manifest: DatasetManifest | None = None,
          clips: Sequence[AudioClip] | None = None,
          log_path: str | None = None) -> TrainResult:
    """Run Adam over the hybrid loss; returns the model, state, and history.

    The returned model holds no gradients: once the last step's Adam update
    has read them they are released (`grad` is None), so a caller that keeps
    the model does not keep a parameter-sized buffer nothing reads.

    Metrics in each epoch record are computed on the test split when one
    exists, otherwise on the training split. A non-finite loss aborts with
    a diagnostic naming the epoch and step, and non-finite values in an
    epoch's evaluation with one naming the epoch.
    """
    if log_path:
        os.makedirs(os.path.dirname(log_path) or ".", exist_ok=True)
        _write_line(log_path, header_line(cfg), "w")
    data = prepare_data(cfg, manifest, clips)
    if not data.train_idx:
        raise TrainingError("training split is empty")
    model = Model(cfg, rng=seed_stream(cfg.seed, "init"))
    shuffle_rng = seed_stream(cfg.seed, "shuffle")
    adam = AdamState()
    result = TrainResult(model, adam, [])
    metric_idx = data.test_idx if data.test_idx else data.train_idx

    steps_done = 0
    for epoch in range(cfg.epochs):
        order = _stratified_order(data, shuffle_rng)
        epoch_loss = 0.0
        seen = 0
        for lo in range(0, len(order), cfg.batch):
            batch = order[lo : lo + cfg.batch]
            model.zero_grads()
            try:
                value = _batch_loss(model, data, batch)
                trainable = model.trainable()
                adam_step(trainable, {n: p.grad for n, p in trainable.items()}, adam,
                          lr=cfg.lr, weight_decay=cfg.weight_decay)
            except NumericError as exc:
                raise TrainingError(f"non-finite loss at epoch {epoch} step {steps_done}: {exc}") from exc
            result.step_losses.append(value)
            epoch_loss += value * len(batch)
            seen += len(batch)
            steps_done += 1
        try:
            report = evaluate_indices(model, data, metric_idx)
        except NumericError as exc:
            raise TrainingError(f"non-finite values evaluating epoch {epoch}: {exc}") from exc
        record = EpochRecord(epoch, epoch_loss / max(seen, 1), report.se, report.sp, report.score)
        result.history.append(record)
        if log_path:
            _write_line(log_path, record.to_json(), "a")
    model.release_grads()
    return result
