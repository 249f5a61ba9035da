"""Waveform preprocessing: resample -> fix length -> normalize -> log-mel.

Every clip, real or synthetic, is standardized to 8 s at 16 kHz
(128000 samples) and turned into a 249 x 64 log-mel spectrogram. The
spectrogram conventions that the pipeline does not inherit from elsewhere
(FFT size, hop, mel scale, log floor) live in `SpectrogramConfig` so runs
are reproducible; the analysis window is always the periodic Hann.

The fixed filters are designed once, not once per clip: the resampling
low-pass once per (up, down) rate pair, the analysis window and the mel
filterbank once per process, from `DEFAULT_SPEC_CONFIG`.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import firwin, resample_poly
from scipy.sparse import csr_array

from .errors import ShapeError


class Label(enum.IntEnum):
    """Respiratory-cycle classes; integer values index the confusion matrix."""

    NORMAL = 0
    CRACKLE = 1
    WHEEZE = 2
    BOTH = 3

    @staticmethod
    def from_flags(crackle: int, wheeze: int) -> "Label":
        return Label(crackle + 2 * wheeze)


TARGET_RATE = 16000
TARGET_SECONDS = 8.0
TARGET_SAMPLES = int(TARGET_RATE * TARGET_SECONDS)  # 128000


@dataclass
class AudioClip:
    """One respiratory cycle: mono samples in [-1, 1] plus bookkeeping."""

    samples: np.ndarray
    sample_rate: int
    label: Label
    subject_id: str

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")
        if self.samples.size == 0:
            raise ValueError("clip has no samples")

    @property
    def seconds(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class SpectrogramConfig:
    sample_rate: int = TARGET_RATE
    n_fft: int = 1024
    hop: int = 512
    n_mels: int = 64
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-6


DEFAULT_SPEC_CONFIG = SpectrogramConfig()

#: frames produced by an 8 s clip: 1 + (128000 - 1024) // 512
N_FRAMES = 1 + (TARGET_SAMPLES - DEFAULT_SPEC_CONFIG.n_fft) // DEFAULT_SPEC_CONFIG.hop


@dataclass
class Spectrogram:
    """T x 64 matrix of log-mel energies at a fixed frame rate."""

    values: np.ndarray
    frame_rate: float = TARGET_RATE / DEFAULT_SPEC_CONFIG.hop

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != DEFAULT_SPEC_CONFIG.n_mels:
            raise ShapeError(
                f"spectrogram must be T x {DEFAULT_SPEC_CONFIG.n_mels}, got {self.values.shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


# -- waveform stages -----------------------------------------------------------


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _read_only_csr(dense: np.ndarray) -> csr_array:
    sparse = csr_array(dense)
    for arr in (sparse.data, sparse.indices, sparse.indptr):
        _read_only(arr)
    return sparse


@functools.lru_cache(maxsize=4)
def _lowpass(up: int, down: int) -> np.ndarray:
    """The anti-aliasing FIR `resample_poly` designs by default, read-only.

    The bound is small because the filter has 20 * max(up, down) + 1 taps:
    three device rates need three entries, and an odd rate such as 44101 Hz
    needs megabytes.
    """
    m = max(up, down)
    return _read_only(firwin(2 * 10 * m + 1, 1.0 / m, window=("kaiser", 5.0)))


def resample(clip: AudioClip, target_rate: int = TARGET_RATE) -> AudioClip:
    """Band-limited (polyphase windowed-sinc) resampling.

    Output length is round(len * target / source); equal rates pass the
    samples through untouched.
    """
    if target_rate <= 0:
        raise ValueError(f"target rate must be positive, got {target_rate}")
    if clip.sample_rate == target_rate:
        return clip
    g = math.gcd(target_rate, clip.sample_rate)
    up, down = target_rate // g, clip.sample_rate // g
    # resample_poly copies an explicit window before scaling it by `up`
    out = resample_poly(clip.samples, up, down, window=_lowpass(up, down))
    want = int(round(clip.samples.size * target_rate / clip.sample_rate))
    out = out[:want]
    if out.size < want:  # pragma: no cover - resample_poly returns ceil(n*up/down) >= want
        out = np.pad(out, (0, want - out.size))
    return AudioClip(out, target_rate, clip.label, clip.subject_id)


def fix_length(clip: AudioClip, target_seconds: float = TARGET_SECONDS) -> AudioClip:
    """Cyclically tile short clips / truncate long ones to the target length."""
    target = int(round(target_seconds * clip.sample_rate))
    n = clip.samples.size
    if n == target:
        return clip
    if n > target:
        out = clip.samples[:target]
    else:
        reps = -(-target // n)
        out = np.tile(clip.samples, reps)[:target]
    return AudioClip(out, clip.sample_rate, clip.label, clip.subject_id)


def normalize_amplitude(clip: AudioClip) -> AudioClip:
    """Peak normalization; an all-zero clip is returned unchanged."""
    peak = np.abs(clip.samples).max()
    if peak == 0.0:
        return clip
    return AudioClip(clip.samples / peak, clip.sample_rate, clip.label, clip.subject_id)


# -- spectrogram stage -----------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: SpectrogramConfig = DEFAULT_SPEC_CONFIG) -> np.ndarray:
    """Triangular, area-normalized filterbank (n_mels x (n_fft//2 + 1))."""
    n_bins = cfg.n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * cfg.sample_rate / cfg.n_fft
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bank = np.zeros((cfg.n_mels, n_bins))
    for i in range(cfg.n_mels):
        lo, ctr, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        up = (fft_freqs - lo) / (ctr - lo)
        down = (hi - fft_freqs) / (hi - ctr)
        tri = np.maximum(0.0, np.minimum(up, down))
        bank[i] = tri * 2.0 / (hi - lo)  # unit-area triangles
    return bank


def band_centers_hz(cfg: SpectrogramConfig = DEFAULT_SPEC_CONFIG) -> np.ndarray:
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    return mel_to_hz(mel_pts)[1:-1]


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


_WINDOW = _read_only(_hann_periodic(DEFAULT_SPEC_CONFIG.n_fft))
#: the filterbank as a read-only CSR matrix: 1001 of its 32832 entries are
#: nonzero, and the sparse product sums each band's bins in one fixed
#: order, so the features do not depend on the BLAS thread count
_MEL_BANK = _read_only_csr(mel_filterbank(DEFAULT_SPEC_CONFIG))


def mel_spectrogram(clip: AudioClip) -> Spectrogram:
    """STFT power -> mel filterbank -> log(x + floor); no centering pad."""
    cfg = DEFAULT_SPEC_CONFIG
    if clip.sample_rate != cfg.sample_rate or clip.samples.size != TARGET_SAMPLES:
        raise ShapeError(
            f"mel_spectrogram requires {TARGET_SAMPLES} samples at {cfg.sample_rate} Hz, "
            f"got {clip.samples.size} at {clip.sample_rate} Hz"
        )
    stride = clip.samples.strides[0]
    frames = np.lib.stride_tricks.as_strided(
        clip.samples, shape=(N_FRAMES, cfg.n_fft), strides=(cfg.hop * stride, stride)
    )
    power = np.abs(np.fft.rfft(frames * _WINDOW, axis=1)) ** 2
    mel = np.ascontiguousarray((_MEL_BANK @ power.T).T)
    return Spectrogram(np.log(mel + cfg.log_floor), frame_rate=cfg.sample_rate / cfg.hop)


def preprocess(clip: AudioClip) -> Spectrogram:
    """Full pipeline: resample -> fix_length -> normalize_amplitude -> mel."""
    return mel_spectrogram(normalize_amplitude(fix_length(resample(clip))))
