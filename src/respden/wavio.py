"""RIFF WAV reading and writing for the dataset layer.

A file is read in two parts. `read_header` parses and checks the header
once: encoding, channels, sample container size, rate, where the data
chunk starts, how many frames it holds and that the file holds them all.
`WavHeader.read_frames` then decodes any frame range `[lo, hi)` from its
own bytes, so a caller can hold one cycle of a long recording instead of
all of it; `read_wav` decodes the whole file the same way.

Accepted encodings, all little-endian RIFF:

* PCM in 1-byte (unsigned, offset 128) or 2-, 3- or 4-byte (signed)
  containers, scaled by 2**-(8 * container - 1), so it lies in [-1, 1);
* IEEE float, 32- or 64-bit, clipped to [-1, 1] after channel averaging;
  a NaN or infinite sample is a `DatasetError` that names the file, raised
  when the frames that hold it are read;
* `WAVE_FORMAT_EXTENSIBLE` with a PCM or float subformat.

Channels are averaged down to mono float64. Every other encoding, RIFX
(big-endian) and RF64 files included, is a `DatasetError` that names it,
and so is a cut-off header or data chunk, or a sample rate outside
1..`MAX_SAMPLE_RATE` Hz: resampling designs a filter whose size grows with
the rate, so the header alone must not choose it. The header never sizes
an allocation: the fmt chunk is read up to its 40 known bytes, and the
data chunk must lie inside the file.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError, MissingAudioError

MAX_SAMPLE_RATE = 192_000
_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
#: numpy dtype of each accepted (format tag, container bytes); a 3-byte
#: sample is widened into the top three bytes of an int32
_DTYPES = {(_PCM, 1): "u1", (_PCM, 2): "<i2", (_PCM, 3): "<i4", (_PCM, 4): "<i4",
           (_FLOAT, 4): "<f4", (_FLOAT, 8): "<f8"}
#: names of rejected format tags that WAV files commonly carry
_TAG_NAMES = {0x0002: "Microsoft ADPCM", 0x0006: "A-law", 0x0007: "mu-law",
              0x0011: "IMA ADPCM", 0x0055: "MPEG layer 3"}
#: the GUID {XXXXXXXX-0000-0010-8000-00AA00389B71} of an extensible subformat, after its tag
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
#: chunks skipped without a warning
_QUIET_CHUNKS = (b"fact", b"LIST", b"JUNK", b"Fake")


@dataclass(frozen=True)
class WavHeader:
    """Where a WAV file's frames lie and how to decode them."""

    path: str
    rate: int
    channels: int
    container: int    # bytes per sample of one channel
    dtype: str        # numpy dtype the samples decode through
    offset: int       # byte offset of frame 0
    frames: int
    stamp: tuple[int, int]  # (size, mtime_ns) of the file when the header was read

    def read_frames(self, lo: int, hi: int) -> np.ndarray:
        """Frames [lo, hi) as mono float64 in [-1, 1].

        The file must be as it was when the header was read: a removed file
        is a `MissingAudioError`, a changed one a `DatasetError`.
        """
        if not 0 <= lo <= hi <= self.frames:
            raise ValueError(f"frames [{lo}, {hi}) outside 0..{self.frames} of {self.path}")
        frame_bytes = self.channels * self.container
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError as exc:
            raise MissingAudioError(f"WAV file {self.path} was removed after its header was read") from exc
        with fh:
            st = os.fstat(fh.fileno())
            if (st.st_size, st.st_mtime_ns) != self.stamp:
                raise DatasetError(f"WAV file {self.path} changed after its header was read")
            fh.seek(self.offset + lo * frame_bytes)
            raw = fh.read((hi - lo) * frame_bytes)
        if len(raw) != (hi - lo) * frame_bytes:
            raise DatasetError(f"WAV file {self.path} was cut off after its header was read")
        return self._decode(raw)

    def _decode(self, raw: bytes) -> np.ndarray:
        if self.container == 3:
            wide = np.zeros((len(raw) // 3, 4), dtype=np.uint8)
            wide[:, 1:] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
            data = wide.view(self.dtype).reshape(-1)
        else:
            data = np.frombuffer(raw, dtype=self.dtype)
        if data.dtype.kind == "f":
            samples = data.astype(np.float64)
            if not np.isfinite(samples).all():
                raise DatasetError(f"WAV file {self.path} holds non-finite float samples "
                                   f"(NaN or inf)")
        else:
            # one pass; the scale is a power of two, so this equals dividing
            samples = np.multiply(data, 2.0 ** (1 - 8 * data.dtype.itemsize), dtype=np.float64)
            if data.dtype.kind == "u":  # 8-bit PCM is unsigned around 128
                samples -= 1.0
        # scale first: the averaged channels are float, which loses the PCM type
        if self.channels > 1:
            samples = samples.reshape(-1, self.channels).mean(axis=1)
        if data.dtype.kind == "f":  # scaled PCM already lies in [-1, 1)
            samples = np.clip(samples, -1.0, 1.0)
        return samples


def _unsupported(path: str, what: str) -> DatasetError:
    return DatasetError(f"unsupported WAV encoding in {path}: {what}")


def _parse_fmt(path: str, body: bytes, size: int) -> tuple[int, int, int, int]:
    """(format tag, channels, rate, container bytes) of a fmt chunk, checked."""
    if size < 16 or len(body) < min(size, 40):
        raise DatasetError(f"unreadable WAV file {path}: fmt chunk cut off or shorter than 16 bytes")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack("<HHIIHH", body[:16])
    if tag == _EXTENSIBLE:
        if size < 40 or int.from_bytes(body[16:18], "little") < 22 or body[28:40] != _GUID_TAIL:
            raise _unsupported(path, "WAVE_FORMAT_EXTENSIBLE without a known subformat")
        tag = int.from_bytes(body[24:28], "little")
    if tag not in (_PCM, _FLOAT):
        raise _unsupported(path, f"format tag 0x{tag:04x}"
                           + (f" ({_TAG_NAMES[tag]})" if tag in _TAG_NAMES else "")
                           + "; only PCM and IEEE float are read")
    if channels == 0 or block_align % channels:
        raise DatasetError(f"unreadable WAV file {path}: block align {block_align} "
                           f"for {channels} channels")
    container = block_align // channels
    kind = "PCM" if tag == _PCM else "float"
    fits = 0 < bits <= 8 * container if tag == _PCM else bits == 8 * container
    if (tag, container) not in _DTYPES or not fits:
        raise _unsupported(path, f"{bits}-bit {kind} in {container}-byte containers")
    if byte_rate != rate * block_align:
        raise DatasetError(f"unreadable WAV file {path}: byte rate {byte_rate} is not "
                           f"rate {rate} x block align {block_align}")
    if not 0 < rate <= MAX_SAMPLE_RATE:
        raise DatasetError(f"WAV file {path} has sample rate {rate} Hz, "
                           f"outside 1..{MAX_SAMPLE_RATE}")
    return tag, channels, rate, container


def read_header(path: str) -> WavHeader:
    """Parse and check a WAV file's header; see the module docstring for what passes."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise MissingAudioError(f"missing WAV file: {path}") from exc
    with fh:
        st = os.fstat(fh.fileno())
        riff = fh.read(12)
        if riff[:4] in (b"RIFX", b"RF64"):
            raise _unsupported(path, "big-endian RIFX" if riff[:4] == b"RIFX" else "RF64")
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise DatasetError(f"unreadable WAV file {path}: not a RIFF WAVE file")
        riff_end = 8 + int.from_bytes(riff[4:8], "little")
        fmt = None
        # chunks are read up to the end that the RIFF header declares
        while fh.tell() < riff_end and len(chunk := fh.read(8)) == 8:
            cid, size = chunk[:4], int.from_bytes(chunk[4:], "little")
            if cid == b"data":
                if fmt is None:
                    raise DatasetError(f"unreadable WAV file {path}: no fmt chunk before the data")
                tag, channels, rate, container = fmt
                offset = fh.tell()
                if offset + size > st.st_size:
                    raise DatasetError(f"truncated WAV file {path}: data chunk shorter "
                                       f"than its header says")
                return WavHeader(path, rate, channels, container, _DTYPES[tag, container],
                                 offset, size // (channels * container),
                                 (st.st_size, st.st_mtime_ns))
            body = fh.tell()
            if cid == b"fmt ":
                fmt = _parse_fmt(path, fh.read(min(size, 40)), size)
            elif cid not in _QUIET_CHUNKS:
                warnings.warn(f"WAV file {path}: chunk {cid!r} not understood, skipping it",
                              stacklevel=2)
            fh.seek(body + size + size % 2)
    raise DatasetError(f"unreadable WAV file {path}: no data chunk")


def read_wav(path: str) -> tuple[np.ndarray, int]:
    """Read a WAV file as (mono float64 samples in [-1, 1], sample_rate)."""
    header = read_header(path)
    return header.read_frames(0, header.frames), header.rate


def write_wav(path: str, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono float samples in [-1, 1] as 16-bit PCM.

    The scale matches the reader (1/32768), so int16-representable
    samples round-trip bitwise.
    """
    scaled = np.round(np.asarray(samples, dtype=np.float64) * 32768.0)
    pcm = np.clip(scaled, -32768, 32767).astype("<i2")
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes, b"WAVE", b"fmt ", 16,
                         _PCM, 1, sample_rate, 2 * sample_rate, 2, 16, b"data", pcm.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pcm.tobytes())
