"""Waveform preprocessing: resample -> first 8 s -> normalize -> fix length -> log-mel.

Every clip, real or synthetic, is standardized to 8 s at 16 kHz
(128000 samples) and turned into a 249 x 64 log-mel spectrogram. The
spectrogram conventions that the pipeline does not inherit from elsewhere
(FFT size, hop, mel scale, log floor) live in `SpectrogramConfig` so runs
are reproducible; the analysis window is always the periodic Hann.

The fixed filters are designed once, not once per clip: the resampling
design once per (up, down) rate pair, the analysis window and the mel
filterbank once per process, from `DEFAULT_SPEC_CONFIG`.

Resampling computes the windowed-sinc sums of `scipy.signal.resample_poly`
with its default Kaiser design as a few polyphase GEMMs per clip (see
`_Polyphase`). The design is computed here (`_kaiser_lowpass`), bitwise
equal to `firwin`'s, so importing the package does not import
`scipy.signal`. The GEMMs sum in another order, so outputs agree with
`resample_poly` to within 1e-13 * max|x| rather than bitwise; they do not
depend on the BLAS thread count. The design grows with the source rate,
which `wavio.MAX_SAMPLE_RATE` (192 kHz) bounds.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.special import i0

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


#: outputs per band matrix of the polyphase design
_GROUP = 16


@dataclass(frozen=True)
class _Polyphase:
    """Resampling by up/down (coprime) as a few strided GEMMs.

    Output k is sum_m h[p + m*up] * x[i - m], where (i, p) = divmod((k + pre)*down, up)
    and h is the anti-aliasing FIR times `up`, front-padded and offset by `pre`
    as `scipy.signal.resample_poly` does it. The phase pattern repeats every
    `up` outputs. One base period of Q = lcm(up, 16) outputs is cut into groups
    of 16; `taps[g]` holds group g's 16 phase filters as a band matrix over
    its input window. A GEMM row is `repeats` base periods, enough that the
    row stride is at least the window width: a narrower stride makes numpy's
    matmul leave BLAS for its own loop. A run is a span of groups whose
    windows start `slope` samples apart, so one matmul of a strided view of
    the padded input covers all of a run's rows, groups and base periods.
    """

    taps: np.ndarray  # (Q / 16, width, 16), read-only
    advance: int  # inputs consumed by one base period
    repeats: int  # base periods per GEMM row
    slope: int  # window offset from one group of a run to the next
    runs: tuple[tuple[int, int, int], ...]  # (first group, end group, its window start)
    lead: int  # zeros in front of the input
    reach: int  # padded samples spanned by a row's windows

    def apply(self, x: np.ndarray, n_out: int) -> np.ndarray:
        n_groups, width, _ = self.taps.shape
        stride = self.repeats * self.advance
        rows = -(-n_out // (self.repeats * n_groups * _GROUP))
        # a clip shorter than one base period needs only its first groups
        n_groups = min(n_groups, -(-n_out // _GROUP))
        padded = np.empty(max(self.lead + x.size, self.reach + (rows - 1) * stride))
        padded[: self.lead] = 0.0
        padded[self.lead : self.lead + x.size] = x
        padded[self.lead + x.size :] = 0.0
        out = np.empty((rows, self.repeats, n_groups, _GROUP))
        step = padded.strides[0]
        for first, end, start in self.runs:
            if first >= n_groups:
                break
            end = min(end, n_groups)
            windows = np.lib.stride_tricks.as_strided(
                padded[start:], shape=(self.repeats, end - first, rows, width),
                strides=(self.advance * step, self.slope * step, stride * step, step),
                writeable=False,
            )
            np.matmul(windows, self.taps[first:end], out=out[:, :, first:end].transpose(1, 2, 0, 3))
        return out.reshape(-1)[:n_out]


def _kaiser_lowpass(numtaps: int, cutoff: float) -> np.ndarray:
    """`firwin(numtaps, cutoff, window=("kaiser", 5.0))` in firwin's own arithmetic."""
    m = np.arange(numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    h = cutoff * np.sinc(cutoff * m)
    h *= i0(5.0 * np.sqrt(1 - (m / (0.5 * (numtaps - 1))) ** 2.0)) / i0(5.0)
    return h / np.sum(h)


@functools.lru_cache(maxsize=4)
def _polyphase(up: int, down: int) -> _Polyphase:
    """The design for one coprime (up, down), with `resample_poly`'s default filter.

    The bound is small because a design holds lcm(up, 16) x width floats,
    and the filter has 20 * max(up, down) + 1 taps: ICBHI's three device
    rates need at most 125 KB each, but an odd rate such as 44101 Hz
    (up = 16000) needs 14 MB.
    """
    m = max(up, down)
    half = 10 * m
    pad = down - half % down
    h = np.concatenate((np.zeros(pad), _kaiser_lowpass(2 * half + 1, 1.0 / m) * up))
    k = np.arange(math.lcm(up, _GROUP))
    newest, phase = divmod((k + (half + pad) // down) * down, up)
    lo = (newest - (h.size - 1 - phase) // up).reshape(-1, _GROUP).min(axis=1)
    hi = newest.reshape(-1, _GROUP).max(axis=1)
    # runs of groups whose windows start `slope` apart drift from the true
    # starts by at most _GROUP samples
    n_groups = lo.size
    slope = (2 * _GROUP * down + up) // (2 * up)  # round(_GROUP * down / up)
    drift = abs(_GROUP * down - slope * up)
    per_run = max(1, min(n_groups, _GROUP * up // drift)) if drift else n_groups
    g = np.arange(n_groups)
    offset = g % per_run * slope
    starts = np.minimum.reduceat(lo - offset, np.arange(0, n_groups, per_run))
    base = starts[g // per_run] + offset
    width = int((hi - base).max()) + 1
    # scatter each output's phase filter into its column of its group's matrix
    lag = np.arange(-(-h.size // up))
    idx = phase[:, None] + lag * up
    live = idx < h.size
    col = np.broadcast_to(k[:, None], idx.shape)[live]
    row = (newest[:, None] - lag - base[k // _GROUP, None])[live]
    taps = np.zeros((n_groups, width, _GROUP))
    taps[col // _GROUP, row, col % _GROUP] = h[idx[live]]
    lead = max(0, -int(base.min()))
    runs = tuple((f, min(f + per_run, n_groups), int(base[f]) + lead)
                 for f in range(0, n_groups, per_run))
    advance = k.size * down // up
    repeats = -(-width // advance)
    last_start = max(start + (end - first - 1) * slope for first, end, start in runs)
    return _Polyphase(taps=_read_only(taps), advance=advance, repeats=repeats, slope=slope,
                      runs=runs, lead=lead, reach=last_start + (repeats - 1) * advance + width)


def resampled_length(n: int, source_rate: int) -> int:
    """Samples `resample` makes of n samples: round(n * 16000 / source)."""
    return int(round(n * TARGET_RATE / source_rate))


def resample(clip: AudioClip) -> AudioClip:
    """Band-limited (polyphase windowed-sinc) resampling to 16 kHz.

    Output length is `resampled_length`; a 16 kHz clip passes through
    untouched.
    """
    if clip.sample_rate == TARGET_RATE:
        return clip
    g = math.gcd(TARGET_RATE, clip.sample_rate)
    n_out = resampled_length(clip.samples.size, clip.sample_rate)
    out = _polyphase(TARGET_RATE // g, clip.sample_rate // g).apply(clip.samples, n_out)
    return AudioClip(out, TARGET_RATE, clip.label, clip.subject_id)


def fix_length(clip: AudioClip) -> AudioClip:
    """Cyclically tile short clips / truncate long ones to 8 s at the clip's rate."""
    target = int(round(TARGET_SECONDS * clip.sample_rate))
    n = clip.samples.size
    if n == target:
        return clip
    if n > target:
        return AudioClip(clip.samples[:target], clip.sample_rate, clip.label, clip.subject_id)
    # doubling copies of the filled prefix: the filled length stays a whole
    # number of clips, so this is np.tile's output without its reps x n array
    out = np.empty(target)
    out[:n] = clip.samples
    while n < target:
        step = min(n, target - n)
        out[n : n + step] = out[:step]
        n += step
    return AudioClip(out, clip.sample_rate, clip.label, clip.subject_id)


def normalize_amplitude(clip: AudioClip) -> AudioClip:
    """Peak normalization; an all-zero clip is returned unchanged."""
    peak = max(clip.samples.max(), -clip.samples.min())  # = max|x| without an |x| copy
    if peak == 0.0:
        return clip
    return AudioClip(clip.samples / peak, clip.sample_rate, clip.label, clip.subject_id)


# -- spectrogram stage -----------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular, area-normalized filterbank (n_mels x (n_fft//2 + 1))."""
    cfg = DEFAULT_SPEC_CONFIG
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


def band_centers_hz() -> np.ndarray:
    cfg = DEFAULT_SPEC_CONFIG
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    return mel_to_hz(mel_pts)[1:-1]


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


_WINDOW = _read_only(_hann_periodic(DEFAULT_SPEC_CONFIG.n_fft))
#: the filterbank as a read-only CSR matrix: 1001 of its 32832 entries are
#: nonzero, and the sparse product sums each band's bins in one fixed
#: order, so the features do not depend on the BLAS thread count
_MEL_BANK = _read_only_csr(mel_filterbank())
#: frames per STFT block: a block's frames, spectrum and power stay in cache,
#: and row FFTs and the sparse sums do not depend on the block size
STFT_BLOCK = 32


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
    n_bins = cfg.n_fft // 2 + 1
    windowed = np.empty((STFT_BLOCK, cfg.n_fft))
    spectrum = np.empty((STFT_BLOCK, n_bins), dtype=np.complex128)
    # a block's power, re^2 + im^2 squared in place in its spectrum (no hypot),
    # overwrites its windowed frames once the rfft has read them
    power = windowed.reshape(-1)[: STFT_BLOCK * n_bins].reshape(STFT_BLOCK, n_bins)
    mel = np.empty((N_FRAMES, cfg.n_mels))
    for lo in range(0, N_FRAMES, STFT_BLOCK):
        n = min(STFT_BLOCK, N_FRAMES - lo)
        np.multiply(frames[lo : lo + n], _WINDOW, out=windowed[:n])
        np.fft.rfft(windowed[:n], axis=1, out=spectrum[:n])
        sq = spectrum[:n].view(np.float64)
        np.square(sq, out=sq)
        np.add(sq[:, 0::2], sq[:, 1::2], out=power[:n])
        mel[lo : lo + n] = (_MEL_BANK @ power[:n].T).T
    mel += cfg.log_floor
    return Spectrogram(np.log(mel, out=mel), frame_rate=cfg.sample_rate / cfg.hop)


def _first_8s(clip: AudioClip) -> AudioClip:
    """A view of a 16 kHz clip's first 8 s; a shorter clip is all kept."""
    return AudioClip(clip.samples[:TARGET_SAMPLES], clip.sample_rate, clip.label, clip.subject_id)


def preprocess(clip: AudioClip) -> Spectrogram:
    """Full pipeline: resample -> first 8 s -> normalize_amplitude -> fix_length -> mel.

    Bit-equal to normalizing after fix_length: a short clip's tile repeats
    every sample, a long clip's peak comes from its first 8 s either way,
    and each sample is divided by the same float. The peak scan and the
    division touch only the samples the clip keeps, and each stage's input
    is freed when the next stage returns.
    """
    return mel_spectrogram(fix_length(normalize_amplitude(_first_8s(resample(clip)))))
