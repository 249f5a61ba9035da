"""Dataset grammar, fixtures, synthesis determinism, persistence roundtrip."""

import hashlib
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

import respden.datasets as datasets_module
from respden.audio import Label, TARGET_RATE, TARGET_SAMPLES
from respden.datasets import (
    DatasetManifest,
    ManifestEntry,
    SynthConfig,
    _wheeze_tone,
    build_synth,
    load_dataset,
    parse_annotation_file,
    write_synth,
)
from respden.config import RunConfig
from respden.errors import DatasetError, MissingAudioError, UsageError
from respden.train import prepare_data, synth_dataset
from respden.wavio import MAX_SAMPLE_RATE, WavHeader, read_header, read_wav, write_wav

from oracles import dft_peak_hz, scipy_read_wav


#: the GUID {XXXXXXXX-0000-0010-8000-00AA00389B71} of an extensible subformat, after its tag
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
#: encoding -> (numpy dtype of its values, format tag, container bytes)
ENCODINGS = {"u8": ("u1", 1, 1), "i16": ("<i2", 1, 2), "i24": ("<i4", 1, 3),
             "i32": ("<i4", 1, 4), "f32": ("<f4", 3, 4), "f64": ("<f8", 3, 8)}


def wav_values(encoding, frames, channels, rng):
    """Random sample values of an encoding, its extremes first; floats reach past [-1, 1]."""
    dtype, tag, container = ENCODINGS[encoding]
    if tag == 3:
        values = rng.uniform(-1.5, 1.5, (frames, channels))
        values.flat[:2] = (-1.0, 1.0)
        return values.astype(dtype)
    lo, hi = (0, 256) if container == 1 else (-2 ** (8 * container - 1), 2 ** (8 * container - 1))
    values = rng.integers(lo, hi, (frames, channels))
    values.flat[:2] = (lo, hi - 1)
    return values.astype(dtype)


def wav_payload(values, container):
    """Little-endian sample bytes; a 3-byte container keeps the low three bytes of each int32."""
    if container == 3:
        return values.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    return values.tobytes()


def pack_wav(payload, *, tag, channels, rate, container, bits=None, extensible=False,
             before_data=b"", magic=b"RIFF", endian="<"):
    """A WAV file's bytes: RIFF header, fmt chunk, optional chunks, then the data chunk."""
    bits = 8 * container if bits is None else bits
    block = channels * container
    fmt = struct.pack(endian + "HHIIHH", 0xFFFE if extensible else tag, channels, rate,
                      rate * block, block, bits)
    if extensible:  # cbSize, valid bits, channel mask, subformat GUID
        fmt += struct.pack(endian + "HHII", 22, bits, 0, tag) + GUID_TAIL
    body = (b"WAVE" + b"fmt " + struct.pack(endian + "I", len(fmt)) + fmt + before_data
            + b"data" + struct.pack(endian + "I", len(payload)) + payload
            + b"\0" * (len(payload) % 2))
    return magic + struct.pack(endian + "I", len(body)) + body


def same_bits(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def write_fixture(dir_path, name, samples, rate, rows, split="train"):
    write_wav(os.path.join(dir_path, name + ".wav"), samples, rate)
    with open(os.path.join(dir_path, name + ".txt"), "w") as fh:
        fh.writelines(row + "\n" for row in rows)
    split_path = os.path.join(dir_path, "split.txt")
    with open(split_path, "a") as fh:
        fh.write(f"{name}\t{split}\n")
    return split_path


class TestAnnotationGrammar:
    def test_valid_fixture_yields_one_crackle_clip(self, tmp_path):
        rng = np.random.default_rng(0)
        split = write_fixture(tmp_path, "101_1b1_Al", rng.uniform(-0.5, 0.5, 10 * 4000), 4000,
                              ["0.0\t2.5\t1\t0"])
        manifest, clips = load_dataset(str(tmp_path), split)
        assert len(clips) == 1
        clip = clips[0]
        assert clip.label == Label.CRACKLE
        assert clip.samples.size == int(2.5 * 4000)
        assert clip.subject_id == "101"
        assert manifest.entries[0].split == "train"

    def test_three_column_row_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0\t2.5\t1\n")
        with pytest.raises(DatasetError, match=r"bad\.txt:1"):
            parse_annotation_file(str(path))

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0\tx\t1\t0\n")
        with pytest.raises(DatasetError, match="non-numeric"):
            parse_annotation_file(str(path))

    def test_end_before_start(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3.0\t2.5\t0\t0\n")
        with pytest.raises(DatasetError, match="end"):
            parse_annotation_file(str(path))

    #: cycle times that are not finite or start before the recording; (-1, 7.5)
    #: would otherwise slice from near the recording's end (samples[-rate:]),
    #: and (0, 1e305) overflow to an infinite frame index at 44.1 kHz
    BAD_TIMES = [("nan", "1.0"), ("0.0", "nan"), ("inf", "1.0"), ("0.0", "inf"),
                 ("-inf", "1.0"), ("0.0", "-inf"), ("-1.0", "1.0"), ("-1.0", "7.5"),
                 ("0.0", "1e305"), ("1e304", "1e305")]

    @pytest.mark.parametrize("start,end", BAD_TIMES, ids=["/".join(t) for t in BAD_TIMES])
    def test_bad_cycle_times_name_the_line(self, tmp_path, start, end):
        path = tmp_path / "bad.txt"
        path.write_text(f"0.0\t1.0\t0\t0\n{start}\t{end}\t0\t0\n")
        with pytest.raises(DatasetError, match=r"bad\.txt:2"):
            parse_annotation_file(str(path))

    @pytest.mark.parametrize("again", ["train", "test"])
    def test_recording_named_twice_in_split_file_rejected(self, tmp_path, again):
        split = write_fixture(tmp_path, "101_a", np.zeros(8000), 4000, ["0.0\t1.0\t0\t0"])
        with open(split, "a") as fh:
            fh.write(f"101_a\t{again}\n")
        with pytest.raises(DatasetError, match=r"split\.txt:2: recording 101_a"):
            load_dataset(str(tmp_path), split)

    def test_label_mapping(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("0\t1\t0\t0\n1\t2\t1\t0\n2\t3\t0\t1\n3\t4\t1\t1\n")
        labels = [label for _, _, label in parse_annotation_file(str(path))]
        assert labels == [Label.NORMAL, Label.CRACKLE, Label.WHEEZE, Label.BOTH]

    def test_missing_wav_reported(self, tmp_path):
        (tmp_path / "102_xx.txt").write_text("0.0\t1.0\t0\t0\n")
        (tmp_path / "split.txt").write_text("102_xx\ttrain\n")
        with pytest.raises(MissingAudioError):
            load_dataset(str(tmp_path), str(tmp_path / "split.txt"))

    def test_shared_patient_prefix_same_subject(self, tmp_path):
        rng = np.random.default_rng(1)
        split = write_fixture(tmp_path, "101_1b1_Al", rng.uniform(-0.5, 0.5, 8000), 4000,
                              ["0.0\t1.0\t0\t0"], split="train")
        write_fixture(tmp_path, "101_2b2_Pr", rng.uniform(-0.5, 0.5, 8000), 4000,
                      ["0.0\t1.0\t0\t1"], split="train")
        manifest, _ = load_dataset(str(tmp_path), split)
        assert {e.subject_id for e in manifest.entries} == {"101"}

    def test_patient_split_overlap_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        split = write_fixture(tmp_path, "101_1b1_Al", rng.uniform(-0.5, 0.5, 8000), 4000,
                              ["0.0\t1.0\t0\t0"], split="train")
        write_fixture(tmp_path, "101_2b2_Pr", rng.uniform(-0.5, 0.5, 8000), 4000,
                      ["0.0\t1.0\t0\t1"], split="test")
        with pytest.raises(DatasetError, match="both splits"):
            load_dataset(str(tmp_path), split)

    def test_cycle_resampling_to_nothing_rejected(self, tmp_path):
        # round(0.5 * 44100) = 22050, round(0.50002 * 44100) = 22051: one sample,
        # and round(16000 / 44100) = 0
        split = write_fixture(tmp_path, "101_1b1_Al", np.zeros(44100), 44100,
                              ["0.0\t0.5\t0\t0", "0.5\t0.50002\t0\t0"])
        with pytest.raises(DatasetError, match=r"101_1b1_Al\.txt: cycle 1 of .*101_1b1_Al\.wav"):
            load_dataset(str(tmp_path), split)

    def test_manifest_invariant_direct(self):
        manifest = DatasetManifest([
            ManifestEntry("a#0", Label.NORMAL, "7", "train"),
            ManifestEntry("b#0", Label.NORMAL, "7", "test"),
        ])
        with pytest.raises(DatasetError):
            manifest.validate_patient_disjoint()


class TestSynthetic:
    def test_determinism_bitwise(self):
        cfg = SynthConfig(train_per_class=3, test_per_class=2, train_subjects=2, test_subjects=2)
        m1, c1 = build_synth(cfg, seed=123)
        m2, c2 = build_synth(cfg, seed=123)
        assert [e.name for e in m1.entries] == [e.name for e in m2.entries]
        for a, b in zip(c1, c2):
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_default_corpus_is_pinned(self):
        # the default corpus every run, bench workload and recorded figure starts from
        manifest, clips = synth_dataset(RunConfig())
        digest = hashlib.sha256()
        for entry, clip in zip(manifest.entries, clips, strict=True):
            digest.update(entry.name.encode("utf-8"))
            digest.update(clip.samples.tobytes())
        assert digest.hexdigest() == (
            "be82c8b04169a358457af46d9c380e175628a8afcb35de1ab57d1610078f3ab3")

    def test_different_seed_differs(self):
        cfg = SynthConfig(train_per_class=2, test_per_class=0)
        _, c1 = build_synth(cfg, seed=1)
        _, c2 = build_synth(cfg, seed=2)
        assert not np.array_equal(c1[0].samples, c2[0].samples)

    def test_per_class_counts(self):
        cfg = SynthConfig(train_per_class=25, test_per_class=0)
        manifest, clips = build_synth(cfg, seed=0)
        assert len(manifest.entries) == 100
        for label in Label:
            assert sum(1 for e in manifest.entries if e.label == label) == 25

    def test_split_sizes_and_disjointness(self):
        cfg = SynthConfig(train_per_class=4, test_per_class=3)
        manifest, _ = build_synth(cfg, seed=5)
        manifest.validate_patient_disjoint()
        assert len(manifest.split_indices("train")) == 16
        assert len(manifest.split_indices("test")) == 12

    def test_subject_ids_stay_disjoint_past_400_training_subjects(self, monkeypatch):
        # the 401st training subject must not take 501, the first test subject's id
        monkeypatch.setattr(datasets_module, "synth_clip", lambda rng, label, snr_db: np.zeros(1))
        manifest, clips = build_synth(SynthConfig(train_per_class=101, train_subjects=401), seed=0)
        assert len(clips) == 4 * 101 + 4 * 10
        train = [e.subject_id for e in manifest.entries if e.split == "train"]
        test = {e.subject_id for e in manifest.entries if e.split == "test"}
        assert train[:400] == [str(101 + i) for i in range(400)] and train[400] == "901"
        assert test == {"501", "502", "503", "504"}

    def test_wheeze_tone_peaks_at_drawn_frequency(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            tone, freq = _wheeze_tone(rng, TARGET_RATE * 8, TARGET_RATE)
            peak, bin_width = dft_peak_hz(tone, TARGET_RATE)
            assert abs(peak - freq) <= bin_width

    def test_samples_within_unit_range(self):
        cfg = SynthConfig(train_per_class=2, test_per_class=1)
        _, clips = build_synth(cfg, seed=9)
        for clip in clips:
            assert np.abs(clip.samples).max() <= 1.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            build_synth(SynthConfig(train_per_class=0), seed=0)

    @pytest.mark.parametrize("snr_db, message", [
        ((np.nan, 5.0), "snr_lo is NaN"),
        ((0.0, np.inf), "finite width"),
        ((-np.inf, np.inf), "finite width"),
        ((5.0, np.nan), "snr_hi is NaN"),
    ])
    def test_unusable_snr_range_is_a_usage_error_before_any_draw(self, snr_db, message,
                                                                  monkeypatch):
        def no_draws(*args):
            raise AssertionError("a clip was drawn")

        monkeypatch.setattr(datasets_module, "synth_clip", no_draws)
        with pytest.raises(UsageError, match=message):
            build_synth(SynthConfig(train_per_class=1, test_per_class=0, snr_db=snr_db), seed=0)


class TestPersistenceRoundtrip:
    def test_write_then_load_preserves_structure(self, tmp_path):
        cfg = SynthConfig(train_per_class=2, test_per_class=1, train_subjects=2, test_subjects=1)
        manifest, clips = build_synth(cfg, seed=7)
        out = tmp_path / "synthset"
        split_path = write_synth(manifest, clips, str(out))
        loaded_manifest, loaded_clips = load_dataset(str(out), split_path)
        assert len(loaded_clips) == len(clips)
        by_name = {e.name: (e.label, e.split, e.subject_id) for e in loaded_manifest.entries}
        for entry in manifest.entries:
            label, split, subject = by_name[f"{entry.name}#0"]
            assert label == entry.label and split == entry.split and subject == entry.subject_id

    def test_waveforms_survive_pcm16_quantization(self, tmp_path):
        cfg = SynthConfig(train_per_class=1, test_per_class=0)
        manifest, clips = build_synth(cfg, seed=3)
        out = tmp_path / "synthset"
        split_path = write_synth(manifest, clips, str(out))
        _, loaded = load_dataset(str(out), split_path)
        order = {e.name: i for i, e in enumerate(manifest.entries)}
        for entry, clip in zip(manifest.entries, clips):
            got = loaded[order[entry.name]]
            assert got.samples.size == clip.samples.size
            assert np.abs(got.samples - clip.samples).max() <= 0.5 / 32768.0 + 1e-12


class TestWavRoundtrip:
    def test_pcm16_lossless(self, tmp_path):
        rng = np.random.default_rng(11)
        pcm = rng.integers(-32768, 32767, size=2000, dtype=np.int16)
        samples = pcm.astype(np.float64) / 32768.0
        path = tmp_path / "x.wav"
        write_wav(str(path), samples, 16000)
        back, rate = read_wav(str(path))
        assert rate == 16000
        np.testing.assert_array_equal(back, samples)

    def test_stereo_averaged_and_float_supported(self, tmp_path):
        from scipy.io import wavfile

        rng = np.random.default_rng(12)
        stereo = rng.uniform(-0.5, 0.5, size=(500, 2)).astype(np.float32)
        path = tmp_path / "st.wav"
        wavfile.write(str(path), 8000, stereo)
        mono, rate = read_wav(str(path))
        assert rate == 8000 and mono.shape == (500,)
        np.testing.assert_allclose(mono, stereo.astype(np.float64).mean(axis=1), atol=1e-7)

        # integer PCM is scaled by its own type before the channels are averaged
        pcm16 = rng.integers(-32768, 32768, size=(500, 2)).astype(np.int16)
        wavfile.write(str(path), 8000, pcm16)
        mono, _ = read_wav(str(path))
        np.testing.assert_array_equal(mono, (pcm16 / 32768.0).mean(axis=1))
        pcm8 = rng.integers(0, 256, size=(500, 2)).astype(np.uint8)
        wavfile.write(str(path), 8000, pcm8)
        mono, _ = read_wav(str(path))
        np.testing.assert_array_equal(mono, ((pcm8 - 128.0) / 128.0).mean(axis=1))
        pcm32 = rng.integers(-2**31, 2**31, size=(500, 2)).astype(np.int32)
        wavfile.write(str(path), 8000, pcm32)
        mono, _ = read_wav(str(path))
        np.testing.assert_array_equal(mono, (pcm32 / 2147483648.0).mean(axis=1))

        # the int16 extremes are exact and need no clipping
        wavfile.write(str(path), 8000, np.array([-32768, 32767, 0], dtype=np.int16))
        mono, _ = read_wav(str(path))
        np.testing.assert_array_equal(mono, [-1.0, 32767 / 32768, 0.0])

        # float data is clipped to [-1, 1] after the channels are averaged
        loud = np.array([[1.5, 0.25], [1.5, 1.25], [-3.0, 0.5], [0.5, 0.25]], dtype=np.float32)
        wavfile.write(str(path), 8000, loud)
        mono, _ = read_wav(str(path))
        np.testing.assert_array_equal(mono, [0.875, 1.0, -1.0, 0.375])

    def test_missing_file(self):
        with pytest.raises(MissingAudioError):
            read_wav("/nonexistent/file.wav")

    @pytest.mark.parametrize("rate", [MAX_SAMPLE_RATE + 1, 2**31 - 1])
    def test_rate_above_max_rejected(self, rate, tmp_path):
        path = tmp_path / "fast.wav"
        write_wav(str(path), np.zeros(10), rate)
        with pytest.raises(DatasetError, match=f"sample rate {rate} Hz"):
            read_wav(str(path))

    def test_max_rate_accepted(self, tmp_path):
        path = tmp_path / "max.wav"
        write_wav(str(path), np.zeros(10), MAX_SAMPLE_RATE)
        assert read_wav(str(path))[1] == MAX_SAMPLE_RATE

    def test_frame_range_outside_the_file_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(str(path), np.zeros(10), 8000)
        header = read_header(str(path))
        for lo, hi in [(-1, 3), (3, 2), (0, 11)]:
            with pytest.raises(ValueError, match="outside 0..10"):
                header.read_frames(lo, hi)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a riff file at all")
        with pytest.raises(DatasetError):
            read_wav(str(path))


class TestWavAgainstScipy:
    """`read_wav` equals `scipy.io.wavfile.read` plus the scaling `read_wav` always applied, bit for bit."""

    @pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
    @pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_decode_equals_scipy(self, encoding, channels, extensible, tmp_path):
        _, tag, container = ENCODINGS[encoding]
        values = wav_values(encoding, 301, channels, np.random.default_rng(container + channels))
        path = tmp_path / "x.wav"
        path.write_bytes(pack_wav(wav_payload(values, container), tag=tag, channels=channels,
                                  rate=22050, container=container, extensible=extensible))
        got, rate = read_wav(str(path))
        want, want_rate = scipy_read_wav(str(path))
        assert rate == want_rate == 22050
        assert same_bits(got, want)

    @pytest.mark.parametrize("container,bits", [(2, 12), (3, 20)])
    def test_fewer_bits_than_the_container_equals_scipy(self, container, bits, tmp_path):
        encoding = {2: "i16", 3: "i24"}[container]
        values = wav_values(encoding, 200, 2, np.random.default_rng(bits))
        path = tmp_path / "x.wav"
        path.write_bytes(pack_wav(wav_payload(values, container), tag=1, channels=2, rate=8000,
                                  container=container, bits=bits))
        assert same_bits(read_wav(str(path))[0], scipy_read_wav(str(path))[0])

    def test_unknown_chunk_before_data_warns_and_equals_scipy(self, tmp_path):
        values = wav_values("i16", 300, 2, np.random.default_rng(5))
        odd_chunk = b"abcd" + struct.pack("<I", 5) + b"01234\0"  # odd size, then a pad byte
        path = tmp_path / "x.wav"
        path.write_bytes(pack_wav(wav_payload(values, 2), tag=1, channels=2, rate=8000,
                                  container=2, before_data=odd_chunk))
        with pytest.warns(Warning, match="not understood"):
            got, _ = read_wav(str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want, _ = scipy_read_wav(str(path))
        assert same_bits(got, want)

    def test_list_and_junk_chunks_skipped_without_a_warning(self, tmp_path):
        values = wav_values("f32", 100, 1, np.random.default_rng(6))
        chunks = b"LIST" + struct.pack("<I", 4) + b"INFO" + b"JUNK" + struct.pack("<I", 2) + b"\0\0"
        path = tmp_path / "x.wav"
        path.write_bytes(pack_wav(wav_payload(values, 4), tag=3, channels=1, rate=8000,
                                  container=4, before_data=chunks))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _ = read_wav(str(path))
        assert same_bits(got, scipy_read_wav(str(path))[0])

    @pytest.mark.parametrize("n", [0, 1, 1001])
    def test_write_wav_writes_scipys_bytes(self, n, tmp_path):
        pcm = wav_values("i16", n, 1, np.random.default_rng(n)).ravel() if n > 1 else np.zeros(n, np.int16)
        write_wav(str(tmp_path / "ours.wav"), pcm / 32768.0, 16000)
        wavfile.write(str(tmp_path / "scipy.wav"), 16000, pcm)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


@pytest.fixture(scope="module")
def small_wav(tmp_path_factory):
    """A 444-byte 16-bit mono file from `write_wav`, and a path for mutants."""
    workdir = tmp_path_factory.mktemp("wavfuzz")
    path = workdir / "base.wav"
    write_wav(str(path), np.sin(np.arange(200) / 5.0) * 0.5, 16000)
    return path.read_bytes(), workdir / "mutant.wav"


class TestWavDamage:
    """Damaged WAVs: the reader succeeds or raises `DatasetError`, never another error."""

    def test_cut_off_data_chunk_rejected(self, small_wav):
        raw, path = small_wav
        path.write_bytes(raw[:-10])
        with pytest.raises(DatasetError, match="data chunk shorter"):
            read_wav(str(path))

    def test_unknown_chunk_before_data_skipped(self, small_wav):
        raw, path = small_wav
        extra = b"abcd" + (6).to_bytes(4, "little") + b"012345"
        riff_size = (int.from_bytes(raw[4:8], "little") + len(extra)).to_bytes(4, "little")
        path.write_bytes(raw[:4] + riff_size + raw[8:36] + extra + raw[36:])
        want, _ = read_wav(str(path.parent / "base.wav"))
        with pytest.warns(Warning, match="not understood"):
            got, rate = read_wav(str(path))
        assert rate == 16000
        np.testing.assert_array_equal(got, want)

    def test_rifx_rejected_by_name(self, tmp_path):
        # scipy decoded these as >i2, which missed the PCM scale: [1.0, -1.0, 1.0]
        path = tmp_path / "rifx.wav"
        path.write_bytes(pack_wav(np.array([1000, -2000, 300], ">i2").tobytes(), tag=1, channels=1,
                                  rate=8000, container=2, magic=b"RIFX", endian=">"))
        with pytest.raises(DatasetError, match="unsupported WAV encoding .*big-endian RIFX"):
            read_wav(str(path))

    #: (format tag, container bytes, bits, extensible, GUID tail) -> what the error names
    UNSUPPORTED = {
        "rf64": (None, "RF64"),
        "pcm64": ((1, 8, 64, False, GUID_TAIL), "64-bit PCM in 8-byte containers"),
        "float16": ((3, 2, 16, False, GUID_TAIL), "16-bit float in 2-byte containers"),
        "float32-in-8": ((3, 8, 32, False, GUID_TAIL), "32-bit float in 8-byte containers"),
        "mu-law": ((7, 1, 8, False, GUID_TAIL), r"format tag 0x0007 \(mu-law\)"),
        "adpcm-extensible": ((2, 2, 16, True, GUID_TAIL), r"format tag 0x0002 \(Microsoft ADPCM\)"),
        "foreign-guid": ((1, 2, 16, True, GUID_TAIL[:-1] + b"\x00"), "WAVE_FORMAT_EXTENSIBLE"),
    }

    @pytest.mark.parametrize("case", sorted(UNSUPPORTED))
    def test_unsupported_encoding_rejected_by_name(self, case, tmp_path):
        fields, named = self.UNSUPPORTED[case]
        path = tmp_path / "x.wav"
        if fields is None:  # an RF64 file as scipy writes it, but for its size
            raw = pack_wav(bytes(8), tag=1, channels=1, rate=8000, container=2)
            path.write_bytes(b"RF64" + raw[4:])
        else:
            tag, container, bits, extensible, tail = fields
            raw = pack_wav(bytes(4 * container), tag=tag, channels=1, rate=8000,
                           container=container, bits=bits, extensible=extensible)
            path.write_bytes(raw.replace(GUID_TAIL, tail))
        with pytest.raises(DatasetError, match=f"unsupported WAV encoding in .*: {named}"):
            read_wav(str(path))

    def test_fmt_chunk_size_does_not_size_a_read(self, small_wav):
        raw, path = small_wav
        # a 4 GiB fmt chunk: the reader must not try to read it, only find the file too short
        path.write_bytes(raw[:16] + (2**32 - 1).to_bytes(4, "little") + raw[20:])
        with pytest.raises(DatasetError):
            read_wav(str(path))

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_at_any_offset(self, small_wav, data):
        raw, path = small_wav
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(DatasetError):
            read_wav(str(path))

    # offsets are drawn from the 44-byte header as often as from the whole file
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data(), flip=st.integers(1, 255))
    def test_any_byte_flipped(self, small_wav, data, flip):
        raw, path = small_wav
        mutant = bytearray(raw)
        mutant[data.draw(st.one_of(st.integers(0, 43), st.integers(0, len(raw) - 1)))] ^= flip
        path.write_bytes(bytes(mutant))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns about chunks it skips
            try:
                read_wav(str(path))
            except DatasetError:
                pass


def mixed_corpus(dir_path):
    """Two recordings: 16-bit mono at 8 kHz, and 24-bit stereo extensible at 11025 Hz.

    The last cycle of each runs past the end of its recording.
    """
    rng = np.random.default_rng(21)
    split = write_fixture(dir_path, "101_1b1_Al", rng.uniform(-0.5, 0.5, 3 * 8000), 8000,
                          ["0.0\t0.7\t0\t0", "0.9\t2.2\t1\t0", "2.5\t9.0\t0\t1"])
    values = wav_values("i24", 2 * 11025, 2, rng)
    (dir_path / "102_1b1_Al.wav").write_bytes(pack_wav(
        wav_payload(values, 3), tag=1, channels=2, rate=11025, container=3, extensible=True))
    (dir_path / "102_1b1_Al.txt").write_text("0.25\t1.0\t1\t1\n1.5\t2.5\t0\t0\n")
    with open(split, "a") as fh:
        fh.write("102_1b1_Al\ttest\n")
    return split


class TestLazyCycles:
    """`load_dataset` checks headers and bounds at once and decodes each cycle when read."""

    def test_every_cycle_equals_its_slice_of_the_whole_file(self, tmp_path):
        manifest, clips = load_dataset(str(tmp_path), mixed_corpus(tmp_path))
        assert len(clips) == len(manifest.entries) == 5
        for entry, clip in zip(manifest.entries, clips):
            name, k = entry.name.split("#")
            whole, rate = read_wav(str(tmp_path / f"{name}.wav"))
            start, end, label = parse_annotation_file(str(tmp_path / f"{name}.txt"))[int(k)]
            lo, hi = int(round(start * rate)), min(int(round(end * rate)), whole.size)
            assert clip.sample_rate == rate and clip.label == label == entry.label
            assert np.array_equal(clip.samples, whole[lo:hi])

    def test_sequence_protocol(self, tmp_path):
        _, clips = load_dataset(str(tmp_path), mixed_corpus(tmp_path))
        assert np.array_equal(clips[-1].samples, clips[4].samples)
        assert len(list(clips)) == 5
        with pytest.raises(IndexError):
            clips[5]
        with pytest.raises(TypeError):
            clips[1:3]

    def test_shortened_file_raises_when_its_cycle_is_read(self, tmp_path):
        manifest, clips = load_dataset(str(tmp_path), mixed_corpus(tmp_path))
        wav = tmp_path / "101_1b1_Al.wav"
        wav.write_bytes(wav.read_bytes()[:-100])
        # cycle 0's bytes are still there, but the file is no longer the one loaded
        with pytest.raises(DatasetError, match="101_1b1_Al.wav changed"):
            clips[0]
        assert clips[3].samples.size == 11025 - round(0.25 * 11025)  # the other file still reads
        with pytest.raises(DatasetError, match="101_1b1_Al.wav changed"):
            prepare_data(RunConfig(), manifest, clips)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float_sample_raises_when_its_cycle_is_read(self, bad, tmp_path):
        values = np.zeros((8000, 1), dtype="<f4")
        values[6000] = bad
        (tmp_path / "103_1b1_Al.wav").write_bytes(
            pack_wav(values.tobytes(), tag=3, channels=1, rate=8000, container=4))
        (tmp_path / "103_1b1_Al.txt").write_text("0.0\t0.5\t0\t0\n0.5\t1.0\t0\t0\n")
        (tmp_path / "split.txt").write_text("103_1b1_Al\ttrain\n")
        _, clips = load_dataset(str(tmp_path), str(tmp_path / "split.txt"))
        assert np.array_equal(clips[0].samples, np.zeros(4000))  # the first cycle is finite
        with pytest.raises(DatasetError, match="103_1b1_Al.wav holds non-finite"):
            clips[1]

    def test_removed_file_raises_when_its_cycle_is_read(self, tmp_path):
        _, clips = load_dataset(str(tmp_path), mixed_corpus(tmp_path))
        os.remove(tmp_path / "102_1b1_Al.wav")
        with pytest.raises(MissingAudioError, match="102_1b1_Al.wav was removed"):
            clips[3]

    @pytest.mark.parametrize("fault", ["truncated", "rate_above_max", "rifx", "cycle_outside"])
    def test_malformed_files_fail_before_any_cycle_is_decoded(self, fault, tmp_path, monkeypatch):
        split = mixed_corpus(tmp_path)
        wav = tmp_path / "102_1b1_Al.wav"
        raw = wav.read_bytes()
        if fault == "truncated":
            wav.write_bytes(raw[:-7])
        elif fault == "rate_above_max":
            write_wav(str(wav), np.zeros(100), MAX_SAMPLE_RATE + 1)
        elif fault == "rifx":
            wav.write_bytes(b"RIFX" + raw[4:])
        else:
            (tmp_path / "102_1b1_Al.txt").write_text("0.0\t1.0\t0\t0\n2.5\t3.0\t0\t0\n")

        def no_decoding(*args):
            raise AssertionError("a cycle was decoded")

        monkeypatch.setattr(WavHeader, "read_frames", no_decoding)
        with pytest.raises(DatasetError, match="102_1b1_Al"):
            load_dataset(str(tmp_path), split)


#: the memory corpus: 4 recordings of 5 s at 44.1 kHz, three 1.4-1.5 s cycles each
MEMORY_RATE, MEMORY_SECONDS, MEMORY_RECORDINGS = 44100, 5.0, 4


@pytest.fixture(scope="module")
def memory_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("memory")
    rng = np.random.default_rng(31)
    for r in range(MEMORY_RECORDINGS):
        split = write_fixture(str(out), f"{101 + r}_1b1_Al",
                              rng.uniform(-0.5, 0.5, int(MEMORY_SECONDS * MEMORY_RATE)),
                              MEMORY_RATE, ["0.1\t1.6\t0\t0", "1.8\t3.3\t1\t0", "3.5\t4.9\t0\t1"])
    return str(out), split


class TestIngestMemory:
    def test_loaded_dataset_holds_less_than_one_recording(self, memory_corpus):
        # measured 6.9 KB held against the 1723 KB of one recording as float64;
        # holding every recording as float64 took 6898 KB
        tracemalloc.start()
        try:
            loaded = load_dataset(*memory_corpus)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(loaded[1]) == 3 * MEMORY_RECORDINGS
        assert held < MEMORY_SECONDS * MEMORY_RATE * 8

    def test_peak_of_load_and_prepare(self, memory_corpus):
        # measured 2420 KB above the 1494 KB of features, against a bound of
        # three 8 s clips at 16 kHz (3000 KB); decoding whole recordings
        # peaked 8828 KB above the features
        prepare_data(RunConfig(), *load_dataset(*memory_corpus))  # fills the resampling caches
        tracemalloc.start()
        try:
            data = prepare_data(RunConfig(), *load_dataset(*memory_corpus))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        features = sum(f.nbytes for f in data.features)
        assert peak < features + 3 * TARGET_SAMPLES * 8
