"""Dataset grammar, fixtures, synthesis determinism, persistence roundtrip."""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from respden.audio import Label, TARGET_RATE
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
from respden.errors import DatasetError, MissingAudioError
from respden.wavio import MAX_SAMPLE_RATE, read_wav, write_wav

from oracles import dft_peak_hz


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
    #: would otherwise slice from near the recording's end (samples[-rate:])
    BAD_TIMES = [("nan", "1.0"), ("0.0", "nan"), ("inf", "1.0"), ("0.0", "inf"),
                 ("-inf", "1.0"), ("0.0", "-inf"), ("-1.0", "1.0"), ("-1.0", "7.5")]

    @pytest.mark.parametrize("start,end", BAD_TIMES, ids=["/".join(t) for t in BAD_TIMES])
    def test_bad_cycle_times_name_the_line(self, tmp_path, start, end):
        path = tmp_path / "bad.txt"
        path.write_text(f"0.0\t1.0\t0\t0\n{start}\t{end}\t0\t0\n")
        with pytest.raises(DatasetError, match=r"bad\.txt:2"):
            parse_annotation_file(str(path))

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

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a riff file at all")
        with pytest.raises(DatasetError):
            read_wav(str(path))


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
