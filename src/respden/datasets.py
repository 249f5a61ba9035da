"""Dataset loading and synthesis.

Two sources share one manifest format and annotation grammar:

* on-disk corpora (real recordings or persisted synthetic ones): WAV files
  plus one tab-separated annotation file per recording with rows
  ``start<TAB>end<TAB>crackle<TAB>wheeze``, and a split file with lines
  ``recording_name<TAB>train|test``;
* in-memory synthetic data generated by `build_synth`.

Synthetic class recipes are stand-ins that make the four classes separable
under additive noise; they are not meant to mimic true lung acoustics.
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioClip, Label, TARGET_RATE, TARGET_SECONDS, resampled_length
from .errors import DatasetError, MissingAudioError
# read_wav is unused here but stays importable: perfbench/tracer.py wraps datasets.read_wav
from .wavio import WavHeader, read_header, read_wav, write_wav

SPLITS = ("train", "test")


@dataclass
class ManifestEntry:
    name: str
    label: Label
    subject_id: str
    split: str


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def validate_patient_disjoint(self) -> None:
        per_split: dict[str, set[str]] = {s: set() for s in SPLITS}
        for e in self.entries:
            per_split[e.split].add(e.subject_id)
        overlap = per_split["train"] & per_split["test"]
        if overlap:
            raise DatasetError(f"subjects present in both splits: {sorted(overlap)}")

    def split_indices(self, split: str) -> list[int]:
        return [i for i, e in enumerate(self.entries) if e.split == split]


def subject_from_name(name: str) -> str:
    """Leading patient number of a recording name (text before the first '_')."""
    return name.split("_", 1)[0]


# -- annotation grammar -----------------------------------------------------------


def _text_rows(path: str) -> list[tuple[int, list[str]]]:
    """(line number, tab-separated columns) of each non-blank line of a UTF-8 file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc}") from exc
    return [(lineno, line.strip().split("\t"))
            for lineno, line in enumerate(lines, start=1) if line.strip()]


def parse_annotation_file(path: str) -> list[tuple[float, float, Label]]:
    """Parse rows of ``start end crackle wheeze`` (tab-separated)."""
    cycles = []
    for lineno, cols in _text_rows(path):
        if len(cols) != 4:
            raise DatasetError(f"{path}:{lineno}: expected 4 tab-separated columns, got {len(cols)}")
        try:
            start, end = float(cols[0]), float(cols[1])
            crackle, wheeze = int(cols[2]), int(cols[3])
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
        if not (math.isfinite(start) and math.isfinite(end)) or start < 0:
            raise DatasetError(f"{path}:{lineno}: cycle times must be finite and >= 0, "
                               f"got start {start}, end {end}")
        if end <= start:
            raise DatasetError(f"{path}:{lineno}: cycle end {end} <= start {start}")
        if crackle not in (0, 1) or wheeze not in (0, 1):
            raise DatasetError(f"{path}:{lineno}: crackle/wheeze flags must be 0 or 1")
        cycles.append((start, end, Label.from_flags(crackle, wheeze)))
    return cycles


def parse_split_file(path: str) -> dict[str, str]:
    splits = {}
    for lineno, cols in _text_rows(path):
        if len(cols) != 2 or cols[1] not in SPLITS:
            raise DatasetError(f"{path}:{lineno}: expected 'name<TAB>train|test'")
        splits[cols[0]] = cols[1]
    return splits


class CycleClips(Sequence):
    """Annotated cycles as AudioClips, each decoded from its WAV bytes when read.

    Item k reads only cycle k's frames, so a pass over the sequence holds
    one cycle's samples at a time, never a whole recording. Reading a cycle
    whose file was removed after `load_dataset` raises `MissingAudioError`;
    one whose file changed raises `DatasetError`.
    """

    def __init__(self, ranges: list[tuple[WavHeader, int, int, Label, str]]):
        self._ranges = ranges  # (header, first frame, end frame, label, subject) per cycle

    def __len__(self) -> int:
        return len(self._ranges)

    def __getitem__(self, k: int) -> AudioClip:
        header, lo, hi, label, subject = self._ranges[operator.index(k)]
        return AudioClip(header.read_frames(lo, hi), header.rate, label, subject)


def load_dataset(dir_path: str, split_file: str) -> tuple[DatasetManifest, CycleClips]:
    """Load a WAV + annotation corpus as one AudioClip per annotated cycle.

    Every annotation file needs a sibling WAV and an entry in the split
    file; the resulting manifest is checked to be patient-disjoint. Each
    WAV header and each cycle's bounds are checked here; the samples are
    decoded when a clip is read (see `CycleClips`).
    """
    splits = parse_split_file(split_file)
    split_base = os.path.abspath(split_file)
    names = sorted(
        os.path.splitext(f)[0]
        for f in os.listdir(dir_path)
        if f.endswith(".txt") and os.path.abspath(os.path.join(dir_path, f)) != split_base
    )
    if not names:
        raise DatasetError(f"no annotation files found in {dir_path}")
    manifest = DatasetManifest()
    ranges: list[tuple[WavHeader, int, int, Label, str]] = []
    for name in names:
        ann_path = os.path.join(dir_path, name + ".txt")
        wav_path = os.path.join(dir_path, name + ".wav")
        cycles = parse_annotation_file(ann_path)
        if not os.path.exists(wav_path):
            raise MissingAudioError(f"annotation {ann_path} has no WAV file {wav_path}")
        if name not in splits:
            raise DatasetError(f"recording {name} missing from split file {split_file}")
        header = read_header(wav_path)
        rate = header.rate
        subject = subject_from_name(name)
        for k, (start, end, label) in enumerate(cycles):
            lo = int(round(start * rate))
            hi = min(int(round(end * rate)), header.frames)
            if hi <= lo:
                raise DatasetError(f"{ann_path}: cycle {k} lies outside the recording")
            if resampled_length(hi - lo, rate) == 0:
                raise DatasetError(f"{ann_path}: cycle {k} of {wav_path} is {hi - lo} samples "
                                   f"at {rate} Hz, which resample to none at {TARGET_RATE} Hz")
            ranges.append((header, lo, hi, label, subject))
            manifest.entries.append(ManifestEntry(f"{name}#{k}", label, subject, splits[name]))
    manifest.validate_patient_disjoint()
    return manifest, CycleClips(ranges)


# -- synthetic data ----------------------------------------------------------------


@dataclass
class SynthConfig:
    train_per_class: int = 25
    test_per_class: int = 10
    train_subjects: int = 6
    test_subjects: int = 4
    snr_db: tuple[float, float] = (5.0, 20.0)

    def validate(self) -> None:
        if self.train_per_class <= 0:
            raise ValueError("train_per_class must be positive")
        if self.test_per_class < 0:
            raise ValueError("test_per_class must be >= 0")
        if self.train_subjects <= 0 or self.test_subjects <= 0:
            raise ValueError("subject counts must be positive")
        if self.snr_db[0] > self.snr_db[1]:
            raise ValueError("snr_db range is inverted")


def _band_noise(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    """Noise floor with a 100-1000 Hz emphasis and a gentle 1/sqrt(f) tilt."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    f = np.fft.rfftfreq(n, 1.0 / sr)
    tilt = 1.0 / np.sqrt(np.maximum(f, 20.0))
    emphasis = np.where((f >= 100.0) & (f <= 1000.0), 1.0, 0.15)
    shaped = np.fft.irfft(spec * tilt * emphasis, n)
    return shaped / (np.sqrt(np.mean(shaped**2)) + 1e-30) * 0.05


def _wheeze_tone(rng: np.random.Generator, n: int, sr: int) -> tuple[np.ndarray, float]:
    """Continuous sinusoid at a per-clip frequency in 200-800 Hz.

    Tone RMS sits a few times above the noise floor so the tonal ridge
    stays prominent in log-mel space even at the low end of the SNR range.
    """
    freq = float(rng.uniform(200.0, 800.0))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    t = np.arange(n) / sr
    amp = 0.05 * float(rng.uniform(2.0, 3.5)) * np.sqrt(2.0)
    return amp * np.sin(2.0 * np.pi * freq * t + phase), freq


def _crackle_bursts(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    """5-20 exponentially decaying wideband transients of 5-20 ms."""
    out = np.zeros(n)
    for _ in range(int(rng.integers(5, 21))):
        dur = int(rng.uniform(0.005, 0.020) * sr)
        t0 = int(rng.integers(0, n - dur))
        env = np.exp(-np.arange(dur) / (dur / 4.0))
        out[t0 : t0 + dur] += 0.05 * float(rng.uniform(10.0, 18.0)) * env * rng.standard_normal(dur)
    return out


def synth_clip(rng: np.random.Generator, label: Label, snr_db: tuple[float, float]) -> np.ndarray:
    """One synthetic cycle at the target rate and length: class recipe plus
    white noise at a drawn SNR.

    The SNR is referenced to the breath-noise floor (the component every
    class shares), so the class overlays keep a fixed salience relative
    to the added noise across the whole SNR range.
    """
    sr = TARGET_RATE
    n = int(round(sr * TARGET_SECONDS))
    base = _band_noise(rng, n, sr)
    clean = base
    if label in (Label.WHEEZE, Label.BOTH):
        tone, _ = _wheeze_tone(rng, n, sr)
        clean = clean + tone
    if label in (Label.CRACKLE, Label.BOTH):
        clean = clean + _crackle_bursts(rng, n, sr)
    snr = float(rng.uniform(*snr_db))
    base_rms = np.sqrt(np.mean(base**2))
    noise = rng.standard_normal(n) * base_rms / (10.0 ** (snr / 20.0))
    mix = clean + noise
    return mix / np.abs(mix).max() * 0.9


def build_synth(cfg: SynthConfig, seed: int) -> tuple[DatasetManifest, list[AudioClip]]:
    """Deterministic in-memory synthetic dataset, subject-disjoint by split."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(b"synth")))
    manifest = DatasetManifest()
    clips: list[AudioClip] = []
    plan = (
        ("train", cfg.train_per_class, [f"{101 + i}" for i in range(cfg.train_subjects)]),
        ("test", cfg.test_per_class, [f"{501 + i}" for i in range(cfg.test_subjects)]),
    )
    for split, per_class, subjects in plan:
        counter = 0
        for label in Label:
            for _ in range(per_class):
                subject = subjects[counter % len(subjects)]
                samples = synth_clip(rng, label, cfg.snr_db)
                clips.append(AudioClip(samples, TARGET_RATE, label, subject))
                manifest.entries.append(
                    ManifestEntry(f"{subject}_c{counter:04d}_{split}", label, subject, split)
                )
                counter += 1
    manifest.validate_patient_disjoint()
    return manifest, clips


def write_synth(manifest: DatasetManifest, clips: list[AudioClip], out_dir: str) -> str:
    """Persist a synthetic dataset as WAV + annotation files + split file.

    The files round-trip through `load_dataset`, sharing the annotation
    grammar with real corpora. Returns the split-file path.
    """
    os.makedirs(out_dir, exist_ok=True)
    split_path = os.path.join(out_dir, "split.txt")
    with open(split_path, "w", encoding="utf-8") as split_fh:
        for entry, clip in zip(manifest.entries, clips):
            write_wav(os.path.join(out_dir, entry.name + ".wav"), clip.samples, clip.sample_rate)
            crackle = 1 if entry.label in (Label.CRACKLE, Label.BOTH) else 0
            wheeze = 1 if entry.label in (Label.WHEEZE, Label.BOTH) else 0
            with open(os.path.join(out_dir, entry.name + ".txt"), "w", encoding="utf-8") as fh:
                fh.write(f"0.0\t{clip.seconds}\t{crackle}\t{wheeze}\n")
            split_fh.write(f"{entry.name}\t{entry.split}\n")
    return split_path
