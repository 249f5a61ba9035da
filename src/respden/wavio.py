"""RIFF WAV reading/writing for the dataset layer.

Decoding is delegated to scipy (8-bit unsigned, 16/24/32-bit signed PCM
and float formats); samples are returned as float64 in [-1, 1], stereo
averaged down to mono. Float data is clipped to [-1, 1] after averaging.
A file scipy cannot decode, or with a cut-off data chunk, is a `DatasetError`.
"""

from __future__ import annotations

import os
import struct

import numpy as np
from scipy.io import wavfile

from .errors import DatasetError, MissingAudioError

_PCM_SCALE = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}
#: what scipy raises on a damaged header besides its own ValueError
_DECODE_ERRORS = (ValueError, struct.error, EOFError, ZeroDivisionError, UnboundLocalError)


def _data_chunk_end(fh) -> int:
    """Offset where a (little-endian) RIFF file's data chunk ends by its header, else 0."""
    if fh.read(12)[:4] != b"RIFF":
        return 0
    while len(chunk := fh.read(8)) == 8:
        size = int.from_bytes(chunk[4:], "little")
        if chunk[:4] == b"data":
            return fh.tell() + size
        fh.seek(size + size % 2, os.SEEK_CUR)
    return 0


def read_wav(path: str) -> tuple[np.ndarray, int]:
    """Read a WAV file as (mono float64 samples in [-1, 1], sample_rate)."""
    if not os.path.exists(path):
        raise MissingAudioError(f"missing WAV file: {path}")
    with open(path, "rb") as fh:
        if _data_chunk_end(fh) > os.fstat(fh.fileno()).st_size:
            raise DatasetError(f"truncated WAV file {path}: data chunk shorter than its header says")
        fh.seek(0)
        try:
            rate, data = wavfile.read(fh)
        except _DECODE_ERRORS as exc:
            raise DatasetError(f"unreadable WAV file {path}: {exc}") from exc
    # scale first: the averaged channels are float, which loses the PCM type
    scaled = data.dtype in _PCM_SCALE or data.dtype == np.uint8
    if data.dtype in _PCM_SCALE:
        # one pass; the scale is a power of two, so this equals dividing
        samples = np.multiply(data, 1.0 / _PCM_SCALE[data.dtype], dtype=np.float64)
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        samples = data.astype(np.float64)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if not scaled:  # scaled PCM already lies in [-1, 1)
        samples = np.clip(samples, -1.0, 1.0)
    return samples, int(rate)


def write_wav(path: str, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono float samples in [-1, 1] as 16-bit PCM.

    The scale matches the reader (1/32768), so int16-representable
    samples round-trip bitwise.
    """
    scaled = np.round(np.asarray(samples, dtype=np.float64) * 32768.0)
    pcm = np.clip(scaled, -32768, 32767).astype(np.int16)
    wavfile.write(path, sample_rate, pcm)
