"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop in one process: the next operation starts
when the previous one returns.  Inputs come from the workload seed only.

* ``train-synth``: `train()` on an in-memory `build_synth` corpus, then
  `save_checkpoint`, as ``respden train`` does (default model, AFF + DDL +
  bias-denoise loss on).  One operation is one such training run.
* ``eval-heldout``: `load_checkpoint` -> `model_from_checkpoint` ->
  `evaluate_split` over a held-out split, then one single-clip
  `Model.predict` call per held-out clip.  One operation is both.
* ``ingest-wav``: a 44.1 kHz 16-bit WAV corpus shaped like ICBHI 2017, with
  annotated cycles shorter and longer than 8 s, through `load_dataset` and
  `prepare_data`.  One operation is one pass over the corpus.

Layers are called through their module attributes (``train.train``, not a
name bound at import), so a tracer that swaps those attributes sees them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
import wave
from dataclasses import dataclass, field

import numpy as np

import respden.audio as audio
import respden.checkpoint as checkpoint
import respden.datasets as datasets
from respden.config import RunConfig
from respden.losses import pooled_features
from respden.model import Model, seed_stream
from respden.tensor import no_grad

# the package re-exports the function `train` under the submodule's name
train = importlib.import_module("respden.train")

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

#: seed of the fixed-size reference runs compared against `reference.json`
GOLDEN_SEED = 0
#: relative tolerances of the reference comparisons.  Step losses allow for
#: a changed summation order (one Adam step can amplify last-bit gradient
#: differences); logits and features are plain forward maps.
LOSS_RTOL = 1e-6
LOGIT_RTOL = 1e-9
FEATURE_RTOL = 1e-9
#: the same WAV bytes read back must give the in-memory features to this
#: tolerance (they share every arithmetic step, so they should be equal)
ROUNDTRIP_RTOL = 1e-12

WAV_RATE = 44100
#: std of the seeded prediction-head weights in the evaluation checkpoint
HEAD_STD = 0.05
#: shrunken model used by the self-test
MINIMAL_DIMS = {"dim": 16, "heads": 2, "layers": 1, "mask_hidden": 4}
#: each loop runs at least this many operations, whatever the time budget,
#: so repeat checks always have two runs to compare
MIN_OPS = 2
#: single-clip predictions per run: at least ten beyond p90
MIN_PREDICTS = 110


@dataclass
class LoopStats:
    """Per-operation samples of one timed loop, each tagged traced or not."""

    # (value, traced, start time) per operation; rates are items per second
    rates: list[tuple[float, bool, float]] = field(default_factory=list)
    latencies_ms: list[tuple[float, bool, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counts: list[dict] = field(default_factory=list)      # tracer counts per traced op
    tracing: bool = False                                 # is the current op traced?

    def add(self, start: float, rate: float | None, latency_ms: float | None) -> None:
        if rate is not None:
            self.rates.append((rate, self.tracing, start))
        if latency_ms is not None:
            self.latencies_ms.append((latency_ms, self.tracing, start))

    def rate_samples(self, traced: bool = False, calibrator=None) -> list[float]:
        """Rates of the untraced (or traced) operations; at reference speed with a calibrator."""
        return [v * (calibrator.slowdown_at(t) if calibrator else 1.0)
                for v, tr, t in self.rates if tr == traced]

    def latency_samples(self, traced: bool = False, calibrator=None) -> list[float]:
        return [v / (calibrator.slowdown_at(t) if calibrator else 1.0)
                for v, tr, t in self.latencies_ms if tr == traced]

    def fail(self, what: str, exc: Exception, attempted: int) -> None:
        self.attempted += attempted
        self.failed += attempted
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def run_loop(seconds: float, min_ops: int, op, stats: LoopStats, tracer, calibrator,
             prefix: str) -> None:
    """Call op(i) back to back until `seconds` passed and `min_ops` ran.

    The calibrator's kernel runs between operations, never inside one.
    With a tracer, every other operation runs traced, so traced and
    untraced samples share the same stretch of machine time; each kind
    then gets `min_ops` operations at least.
    """
    if tracer is not None:
        min_ops *= 2
    end = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < end:
        calibrator.tick()
        stats.tracing = tracer is not None and i % 2 == 1
        if stats.tracing:
            tracer.begin(f"{prefix}{i}")
            tracer.install()
        try:
            op(i)
        finally:
            if stats.tracing:
                tracer.uninstall()
        i += 1
    stats.tracing = False


def rel_close(got, want, rtol: float) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want))))


def check_reference(key: str, got: dict, rtol: float) -> list[str]:
    want = REFERENCE[key]
    bad = [k for k in want if k not in got or not rel_close(got[k], want[k], rtol)]
    return [f"reference {key}.{k}: got {got.get(k)!r}, want {want[k]!r} (rtol {rtol:g})"
            for k in bad]


def model_config(seed: int, minimal: bool, **overrides) -> RunConfig:
    dims = MINIMAL_DIMS if minimal else {}
    return RunConfig(seed=seed, epochs=1, **dims, **overrides)


def synth_corpus(cfg: RunConfig):
    synth = datasets.SynthConfig(
        train_per_class=cfg.train_per_class, test_per_class=cfg.test_per_class,
        train_subjects=cfg.train_subjects, test_subjects=cfg.test_subjects,
        snr_db=(cfg.snr_lo, cfg.snr_hi))
    return datasets.build_synth(synth, cfg.seed)


def features_digest(features: list[np.ndarray]) -> list[float]:
    """Sum, sum of squares and a position-weighted sum over all features."""
    stack = np.stack(features)
    weights = np.cos(np.arange(stack[0].size, dtype=np.float64)).reshape(stack[0].shape)
    return [float(stack.sum()), float((stack * stack).sum()), float((stack * weights).sum())]


# -- train-synth ---------------------------------------------------------------------


class TrainSynth:
    name = "train-synth"

    def __init__(self, seed: int, minimal: bool, workdir: str):
        per_class = (1, 1) if minimal else (6, 2)
        self.cfg = model_config(seed, minimal, train_per_class=per_class[0],
                                test_per_class=per_class[1])
        self.ckpt_path = os.path.join(workdir, "train-checkpoint.bin")
        self.losses: list[list[float]] = []
        self.last_model: Model | None = None

    def setup(self) -> None:
        self.manifest, self.clips = synth_corpus(self.cfg)
        self.n_train = len(self.manifest.split_indices("train"))

    def run(self, seconds: float, tracer, calibrator) -> LoopStats:
        stats = LoopStats()
        steps = -(-self.n_train // self.cfg.batch) * self.cfg.epochs

        def op(i):
            t0 = time.perf_counter()
            try:
                result = train.train(self.cfg, self.manifest, self.clips)
                checkpoint.save_checkpoint(
                    checkpoint.checkpoint_from_model(result.model, len(result.history), result.adam),
                    self.ckpt_path)
            except Exception as exc:  # counted as failed steps; the gate reports it
                stats.fail(f"training run {i}", exc, steps)
                return
            dt = time.perf_counter() - t0
            samples = self.n_train * self.cfg.epochs
            stats.add(t0, samples / dt, dt * 1e3)
            stats.attempted += len(result.step_losses)
            self.losses.append(list(result.step_losses))
            if stats.tracing:
                counts = tracer.take_counts()
                counts["checkpoint_bytes"] = os.path.getsize(self.ckpt_path)
                stats.counts.append(counts)
            self.last_model = result.model

        run_loop(seconds, MIN_OPS, op, stats, tracer, calibrator, "train")
        return stats

    def _roundtrip_ok(self) -> bool:
        if self.last_model is None:
            return False
        stored = checkpoint.load_checkpoint(self.ckpt_path).params
        return all(np.array_equal(stored[n], p.data) for n, p in self.last_model.params.items())

    def gates(self) -> dict[str, list[str]]:
        out = {"step_losses_finite": [], "same_seed_same_bits": [], "checkpoint_roundtrip": []}
        for k, losses in enumerate(self.losses):
            if not losses or not all(math.isfinite(v) for v in losses):
                out["step_losses_finite"].append(f"run {k}: {losses}")
            if losses != self.losses[0]:
                out["same_seed_same_bits"].append(
                    f"run {k}: {[v.hex() for v in losses]} != {[v.hex() for v in self.losses[0]]}")
        if len(self.losses) < 2:
            out["same_seed_same_bits"].append(f"only {len(self.losses)} training runs completed")
        if not self._roundtrip_ok():
            out["checkpoint_roundtrip"].append("saved parameters differ from the trained model")
        out["reference_final_loss"] = check_reference("train", golden_train(), LOSS_RTOL)
        return out


def golden_train() -> dict:
    cfg = RunConfig(seed=GOLDEN_SEED, epochs=1, train_per_class=2, test_per_class=1, batch=4)
    manifest, clips = synth_corpus(cfg)
    losses = train.train(cfg, manifest, clips).step_losses
    return {"step_losses": losses, "final_loss": losses[-1]}


# -- eval-heldout ---------------------------------------------------------------------


def seeded_model(cfg: RunConfig, centering: list[np.ndarray]) -> Model:
    """Default init plus seeded head weights.

    Zero heads predict class 0 for every clip, and raw random heads still
    pick one class for all clips (the pooled features share a large common
    part), so the head biases cancel the mean pooled feature of the
    `centering` clips.
    """
    model = Model(cfg, rng=seed_stream(cfg.seed, "init"))
    rng = seed_stream(cfg.seed, "bench-heads")
    with no_grad():
        pooled = np.mean([pooled_features(model.features(x)).data[0] for x in centering], axis=0)
    for head in ("phi", "cls"):
        w = model.params[f"head.{head}.w"]
        w.data = rng.normal(0.0, HEAD_STD, size=w.data.shape)
        model.params[f"head.{head}.b"].data = -(pooled @ w.data)
    return model


def score_of(truths: list[int], preds: list[int]) -> float:
    """ICBHI Score (Se + Sp) / 2, computed independently of respden.metrics."""
    normal = [p for t, p in zip(truths, preds) if t == 0]
    abnormal = [(t, p) for t, p in zip(truths, preds) if t != 0]
    sp = sum(1 for p in normal if p == 0) / len(normal)
    se = sum(1 for t, p in abnormal if t == p) / len(abnormal)
    return (se + sp) / 2.0


class EvalHeldout:
    name = "eval-heldout"

    def __init__(self, seed: int, minimal: bool, workdir: str):
        self.cfg = model_config(seed, minimal, train_per_class=1,
                                test_per_class=1 if minimal else 6)
        self.ckpt_path = os.path.join(workdir, "eval-checkpoint.bin")
        self.reports: list = []
        self.pass_preds: list[list[int]] = []

    def setup(self) -> None:
        manifest, clips = synth_corpus(self.cfg)
        self.data = train.prepare_data(self.cfg, manifest, clips)
        self.test_idx = manifest.split_indices("test")
        centering = [self.data.features[i] for i in manifest.split_indices("train")]
        checkpoint.save_checkpoint(
            checkpoint.checkpoint_from_model(seeded_model(self.cfg, centering), 0), self.ckpt_path)

    def run(self, seconds: float, tracer, calibrator) -> LoopStats:
        """Each operation: load, evaluate the split, then predict each clip singly."""
        stats = LoopStats()
        n = len(self.test_idx)

        def op(i):
            t0 = time.perf_counter()
            try:
                model = checkpoint.model_from_checkpoint(checkpoint.load_checkpoint(self.ckpt_path))
                report = train.evaluate_split(model, self.data, "test")
            except Exception as exc:
                stats.fail(f"evaluation pass {i}", exc, 2 * n)
                return
            dt = time.perf_counter() - t0
            stats.add(t0, n / dt, None)
            stats.attempted += n
            self.reports.append(report)
            preds = []
            for idx in self.test_idx:
                t0 = time.perf_counter()
                try:
                    preds.append(model.predict(self.data.features[idx]))
                except Exception as exc:
                    stats.fail(f"predict {i}/{idx}", exc, 1)
                    continue
                stats.add(t0, None, (time.perf_counter() - t0) * 1e3)
                stats.attempted += 1
            self.pass_preds.append(preds)
            if stats.tracing:
                stats.counts.append(tracer.take_counts())

        run_loop(seconds, max(MIN_OPS, -(-MIN_PREDICTS // n)), op, stats, tracer, calibrator, "eval")
        return stats

    def gates(self) -> dict[str, list[str]]:
        n = len(self.test_idx)
        truths = [self.data.labels[i] for i in self.test_idx]
        out = {"confusion_sums_to_split": [], "score_matches_predictions": [],
               "same_seed_same_bits": []}
        for k, rep in enumerate(self.reports):
            if int(rep.confusion.sum()) != n:
                out["confusion_sums_to_split"].append(f"pass {k}: {int(rep.confusion.sum())} != {n}")
            if not np.array_equal(rep.confusion, self.reports[0].confusion):
                out["same_seed_same_bits"].append(f"pass {k} confusion differs from pass 0")
        if not self.reports or not self.pass_preds:
            out["score_matches_predictions"].append("no complete evaluation or prediction pass")
        else:
            for k, preds in enumerate(self.pass_preds):
                if preds != self.pass_preds[0]:
                    out["same_seed_same_bits"].append(f"prediction pass {k} differs from pass 0")
            want = score_of(truths, self.pass_preds[0])
            if abs(self.reports[0].score - want) > 1e-12:
                out["score_matches_predictions"].append(
                    f"evaluate_split Score {self.reports[0].score!r} != {want!r} from predict()")
        out["reference_logits"] = check_reference("eval", golden_eval(), LOGIT_RTOL)
        return out


def golden_eval() -> dict:
    cfg = RunConfig(seed=GOLDEN_SEED, train_per_class=1, test_per_class=3)
    manifest, clips = synth_corpus(cfg)
    data = train.prepare_data(cfg, manifest, clips)
    model = seeded_model(cfg, [data.features[i] for i in manifest.split_indices("train")])
    idx = manifest.split_indices("test")
    logits = np.stack([model.logits(data.features[i]) for i in idx])
    preds = [int(np.argmax(row)) for row in logits]
    return {"logits_digest": [float(logits.sum()), float((logits * logits).sum())],
            "predictions": preds,
            "score": score_of([data.labels[i] for i in idx], preds)}


# -- ingest-wav ------------------------------------------------------------------------


def write_pcm16(path: str, pcm: np.ndarray, rate: int) -> None:
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.astype("<i2").tobytes())


def cycle_signal(rng: np.random.Generator, label: int, n: int) -> np.ndarray:
    """Noise floor plus a wheeze tone and/or crackle bursts, by label."""
    x = 0.05 * rng.standard_normal(n)
    if label in (2, 3):
        t = np.arange(n) / WAV_RATE
        x += 0.15 * np.sin(2 * np.pi * rng.uniform(200.0, 800.0) * t + rng.uniform(0, 2 * np.pi))
    if label in (1, 3):
        for _ in range(int(rng.integers(5, 21))):
            dur = int(rng.uniform(0.005, 0.020) * WAV_RATE)
            t0 = int(rng.integers(0, max(1, n - dur)))
            seg = x[t0:t0 + dur]
            seg += 0.6 * np.exp(-np.arange(seg.size) / (dur / 4.0)) * rng.standard_normal(seg.size)
    return x


#: cycle lengths in seconds of a pair of recordings, 7 cycles in the first
#: and 8 in the second.  This follows the published ICBHI 2017 statistics:
#: 6898 cycles in 920 recordings, 5.5 h in all (Rocha et al. 2019), so 7.5
#: cycles per 21.5 s recording; cycles last 0.2-16.2 s, 2.7 s on average.
#: Together the two sets average 2.7 s, and each fills about 20 s.  One
#: cycle in 15 is longer than 8 s, so truncation runs as well as tiling;
#: that share has no published source.  The lengths do not depend on the
#: seed: array shapes, and with them the allocator's peak memory, stay the
#: same from seed to seed.
CYCLE_SECONDS = ((9.6, 0.6, 1.5, 1.9, 2.5, 2.9, 1.3),
                 (1.0, 1.7, 2.1, 2.3, 2.6, 2.7, 3.2, 4.6))
CYCLE_GAP_SECONDS = 0.2


def make_wav_corpus(seed: int, out_dir: str, n_recordings: int) -> list[dict]:
    """Write a patient-disjoint WAV + annotation corpus; returns what was written."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A6E57]))
    os.makedirs(out_dir, exist_ok=True)
    recordings = []
    split_lines = []
    for r in range(n_recordings):
        split = ("train", "test")[r % 2]
        patient = (101, 201)[r % 2] + r // 2
        name = f"{patient}_{r + 1}b1_Al_sc_Meditron"
        rows, t = [], 0.25
        for seconds in CYCLE_SECONDS[r % 2]:
            rows.append((f"{t:.3f}", f"{t + seconds:.3f}", int(rng.integers(0, 4))))
            t = float(rows[-1][1]) + CYCLE_GAP_SECONDS
        n = int(round((t + 0.25) * WAV_RATE))
        x = 0.02 * rng.standard_normal(n)
        for start, end, label in rows:
            lo, hi = int(round(float(start) * WAV_RATE)), int(round(float(end) * WAV_RATE))
            x[lo:hi] += cycle_signal(rng, label, hi - lo)
        x *= 0.9 / np.abs(x).max()
        pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)
        write_pcm16(os.path.join(out_dir, name + ".wav"), pcm, WAV_RATE)
        with open(os.path.join(out_dir, name + ".txt"), "w", encoding="utf-8") as fh:
            for start, end, label in rows:
                fh.write(f"{start}\t{end}\t{label & 1}\t{label >> 1}\n")
        split_lines.append(f"{name}\t{split}\n")
        recordings.append({"name": name, "pcm": pcm, "rows": rows})
    with open(os.path.join(out_dir, "split.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(split_lines)
    return sorted(recordings, key=lambda rec: rec["name"])


def in_memory_features(recordings: list[dict]) -> list[np.ndarray]:
    """Features of the written samples, without WAV decoding or annotation parsing."""
    out = []
    for rec in recordings:
        samples = rec["pcm"].astype(np.float64) / 32768.0
        subject = rec["name"].split("_", 1)[0]
        for start, end, label in rec["rows"]:
            lo = int(round(float(start) * WAV_RATE))
            hi = min(int(round(float(end) * WAV_RATE)), samples.size)
            clip = audio.AudioClip(samples[lo:hi], WAV_RATE, audio.Label(label), subject)
            out.append(audio.preprocess(clip).values)
    return out


def ingest(corpus_dir: str):
    manifest, clips = datasets.load_dataset(corpus_dir, os.path.join(corpus_dir, "split.txt"))
    return train.prepare_data(RunConfig(), manifest, clips)


class IngestWav:
    name = "ingest-wav"

    def __init__(self, seed: int, minimal: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.n_recordings = 2 if minimal else 6
        self.corpus_dir = os.path.join(workdir, "corpus")
        self.digests: list[list[float]] = []
        self.first_data = None

    def setup(self) -> None:
        self.recordings = make_wav_corpus(self.seed, self.corpus_dir, self.n_recordings)
        self.n_cycles = sum(len(rec["rows"]) for rec in self.recordings)

    def run(self, seconds: float, tracer, calibrator) -> LoopStats:
        stats = LoopStats()

        def op(i):
            t0 = time.perf_counter()
            try:
                data = ingest(self.corpus_dir)
            except Exception as exc:
                stats.fail(f"ingest pass {i}", exc, self.n_recordings)
                return
            dt = time.perf_counter() - t0
            n = len(data.features)
            stats.add(t0, n / dt, dt * 1e3)
            stats.attempted += self.n_recordings
            if self.first_data is None:
                self.first_data = data
            self.digests.append(features_digest(data.features))
            if stats.tracing:
                counts = tracer.take_counts()
                counts["cycles"] = n
                stats.counts.append(counts)

        run_loop(seconds, MIN_OPS, op, stats, tracer, calibrator, "ingest")
        return stats

    def _bad_features(self) -> list[str]:
        data = self.first_data
        if data is None:
            return ["no ingest pass completed"]
        bad = []
        if len(data.features) != self.n_cycles:
            bad.append(f"{len(data.features)} features for {self.n_cycles} cycles")
        for k, f in enumerate(data.features):
            if f.shape != (audio.N_FRAMES, audio.DEFAULT_SPEC_CONFIG.n_mels) or not np.all(np.isfinite(f)):
                bad.append(f"cycle {k}: shape {f.shape}, finite {np.all(np.isfinite(f))}")
        got, want = features_digest(data.features), features_digest(in_memory_features(self.recordings))
        if not rel_close(got, want, ROUNDTRIP_RTOL):
            bad.append(f"digest {got} != in-memory {want} (rtol {ROUNDTRIP_RTOL:g})")
        return bad

    def gates(self) -> dict[str, list[str]]:
        out = {"features_finite_249x64_match_wav_samples": self._bad_features(),
               "same_seed_same_bits": [f"pass {k} digest {d} != {self.digests[0]}"
                                       for k, d in enumerate(self.digests) if d != self.digests[0]]}
        out["reference_feature_digest"] = check_reference("ingest", golden_ingest(self.workdir), FEATURE_RTOL)
        return out


def golden_ingest(workdir: str) -> dict:
    corpus_dir = os.path.join(workdir, "reference-corpus")
    make_wav_corpus(GOLDEN_SEED, corpus_dir, 2)
    data = ingest(corpus_dir)
    return {"cycles": len(data.features), "feature_digest": features_digest(data.features)}


WORKLOADS = {cls.name: cls for cls in (TrainSynth, EvalHeldout, IngestWav)}
