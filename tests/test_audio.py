"""Preprocessing pipeline: resampling, length fixing, normalization, mel."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.array_utils import byte_bounds

from respden import audio
from respden.audio import (
    AudioClip,
    DEFAULT_SPEC_CONFIG,
    Label,
    Spectrogram,
    TARGET_SAMPLES,
    band_centers_hz,
    fix_length,
    hz_to_mel,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    normalize_amplitude,
    preprocess,
    resample,
    resampled_length,
)
from respden.errors import ShapeError

from oracles import (
    dft_frame_direct,
    dft_peak_hz,
    kaiser_lowpass_firwin,
    mel_spectrogram_per_call,
    normalize_by_abs_peak,
    power_hypot_squared,
    preprocess_composed,
    resample_poly_oracle,
)


RATES = [4000, 8000, 10000, 22050, 44100, 48000, 44101]

_RESAMPLE_AND_HASH = f"""
import hashlib, json
import numpy as np
from respden.audio import AudioClip, Label, resample
digest = hashlib.sha256()
for rate in {RATES}:
    x = np.random.default_rng(rate).uniform(-1, 1, int(2.7 * rate))
    digest.update(resample(AudioClip(x, rate, Label.NORMAL, "s")).samples.tobytes())
print(json.dumps(digest.hexdigest()))
"""


def make_clip(samples, rate=16000, label=Label.NORMAL):
    return AudioClip(np.asarray(samples, dtype=np.float64), rate, label, "subj")


def up_down(rate):
    g = math.gcd(16000, rate)
    return 16000 // g, rate // g


def traced_peak_kb(fn, clip):
    """tracemalloc's peak over one call, after a warm call fills the design caches."""
    fn(clip)
    tracemalloc.start()
    try:
        fn(clip)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


class TestColdStart:
    @pytest.mark.parametrize("module", ["scipy.signal", "scipy.io"])
    def test_import_does_not_load(self, module, run_with_blas_threads):
        script = ("import json, sys\nimport respden, respden.cli\n"
                  f"print(json.dumps({module!r} in sys.modules))")
        assert run_with_blas_threads(script, 1) is False


class TestFilterDesign:
    @pytest.mark.parametrize("rate", RATES)
    def test_kaiser_lowpass_is_bit_equal_to_firwin(self, rate):
        m = max(up_down(rate))
        assert np.array_equal(audio._kaiser_lowpass(20 * m + 1, 1.0 / m),
                              kaiser_lowpass_firwin(20 * m + 1, 1.0 / m))

    @pytest.mark.parametrize("rate", RATES)
    def test_polyphase_taps_are_bit_equal_to_a_firwin_design(self, rate, monkeypatch):
        up, down = up_down(rate)
        audio._polyphase.cache_clear()
        try:
            ours = audio._polyphase(up, down).taps
            monkeypatch.setattr(audio, "_kaiser_lowpass", kaiser_lowpass_firwin)
            audio._polyphase.cache_clear()
            theirs = audio._polyphase(up, down).taps
        finally:
            audio._polyphase.cache_clear()
        assert ours is not theirs and np.array_equal(ours, theirs)


class TestResample:
    def test_equal_rates_passthrough_bitwise(self):
        rng = np.random.default_rng(0)
        clip = make_clip(rng.uniform(-1, 1, 1000))
        out = resample(clip)
        assert out.samples is clip.samples

    def test_halving_length(self):
        clip = make_clip(np.zeros(32000), rate=32000)
        out = resample(clip)
        assert out.samples.size == 16000 and out.sample_rate == 16000

    def test_440hz_tone_survives_resampling(self):
        t = np.arange(44100 * 2) / 44100
        clip = make_clip(0.5 * np.sin(2 * np.pi * 440.0 * t), rate=44100)
        out = resample(clip)
        peak, bin_width = dft_peak_hz(out.samples, 16000)
        assert abs(peak - 440.0) <= bin_width

    def test_length_rounding_contract(self):
        clip = make_clip(np.zeros(1001), rate=44100)
        out = resample(clip)
        assert out.samples.size == round(1001 * 16000 / 44100)

    @pytest.mark.parametrize("rate,up,down", [(4000, 4, 1), (10000, 8, 5), (22050, 320, 441),
                                              (44100, 160, 441)])
    def test_cached_filter_is_bit_equal_to_default_design(self, rate, up, down):
        # the GEMMs sum each output's <= 61 products in another order than
        # resample_poly: 61 * 2**-53 * |phase|_1 * max|x| is about 1e-14 * max|x|
        x = np.random.default_rng(rate).uniform(-1, 1, int(2.7 * rate))
        want = resample_poly_oracle(x, rate)
        assert audio._polyphase(up, down).taps.shape[0] == np.lcm(up, 16) // 16
        for _ in range(2):  # the second call reads the cached design
            got = resample(make_clip(x, rate=rate)).samples
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(x).max()

    @pytest.mark.parametrize("n", [1, 2, 7, 441, 1001])
    @pytest.mark.parametrize("rate", RATES)
    def test_matches_resample_poly(self, rate, n):
        x = np.random.default_rng(n).uniform(-1, 1, n)
        want = resample_poly_oracle(x, rate)
        assert want.size == resampled_length(n, rate)
        if want.size == 0:
            with pytest.raises(ValueError, match="no samples"):
                resample(make_clip(x, rate=rate))
            return
        got = resample(make_clip(x, rate=rate)).samples
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(x).max()

    @pytest.mark.parametrize("rate", RATES)
    def test_design_rows_stay_on_blas(self, rate):
        # numpy's matmul leaves BLAS for its own loop when a row stride is
        # narrower than the row
        g = np.gcd(16000, rate)
        design = audio._polyphase(16000 // g, rate // g)
        assert design.repeats * design.advance >= design.taps.shape[1]

    @pytest.mark.parametrize("n", [7, 1001])
    @pytest.mark.parametrize("rate", RATES)
    def test_windows_stay_inside_the_padded_input(self, rate, n, monkeypatch):
        real = np.lib.stride_tricks.as_strided
        views = []

        def checked(x, *args, **kwargs):
            view = real(x, *args, **kwargs)
            lo, hi = byte_bounds(view)
            base_lo, base_hi = byte_bounds(x)
            assert base_lo <= lo and hi <= base_hi
            views.append(view)
            return view

        monkeypatch.setattr(np.lib.stride_tricks, "as_strided", checked)
        resample(make_clip(np.ones(n), rate=rate))
        assert views

    def test_short_clip_computes_only_the_groups_it_needs(self, monkeypatch):
        # at 44101 Hz one GEMM row is 16000 outputs; a 7-sample clip needs 3
        design = audio._polyphase(16000, 44101)
        assert design.repeats * design.taps.shape[0] * 16 == 16000
        real = np.matmul
        computed = []

        def counted(a, b, **kwargs):
            computed.append(kwargs["out"].size)
            return real(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        n_out = resample(make_clip(np.ones(7), rate=44101)).samples.size
        assert computed and sum(computed) <= 16 * design.repeats * -(-n_out // 16)

    def test_same_bits_at_one_and_two_blas_threads(self, run_with_blas_threads):
        one, two = (run_with_blas_threads(_RESAMPLE_AND_HASH, t) for t in (1, 2))
        assert one == two

    @pytest.mark.parametrize("seconds", [2.7, 12.7], ids=["short", "long"])
    @pytest.mark.parametrize("rate", [4000, 44100])
    def test_pads_do_not_read_freed_memory(self, rate, seconds):
        # the padded input starts from np.empty and only its pads are zeroed:
        # NaN left in a freed buffer of the same size must not reach the output
        x = np.random.default_rng(rate).uniform(-1, 1, int(rate * seconds))
        fresh = resample(make_clip(x, rate=rate)).samples.copy()
        # the padded input's size, as `_Polyphase.apply` computes it
        design = audio._polyphase(*up_down(rate))
        rows = -(-fresh.size // (design.repeats * design.taps.shape[0] * 16))
        size = max(design.lead + x.size, design.reach + (rows - 1) * design.repeats * design.advance)
        for _ in range(3):
            dirty = np.full(size, np.nan)
            del dirty
            got = resample(make_clip(x, rate=rate)).samples
            assert got.tobytes() == fresh.tobytes()

    def test_cached_filter_is_read_only(self):
        taps = audio._polyphase(160, 441).taps
        assert taps.shape == (160 // 16, 100, 16)
        with pytest.raises(ValueError):
            taps[0, 0, 0] = 1.0


class TestFixLength:
    def test_half_length_clip_doubles(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, TARGET_SAMPLES // 2)
        out = fix_length(make_clip(x))
        np.testing.assert_array_equal(out.samples, np.concatenate([x, x]))

    def test_long_clip_truncated_to_first_8s(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, int(16.2 * 16000))
        out = fix_length(make_clip(x))
        np.testing.assert_array_equal(out.samples, x[:TARGET_SAMPLES])

    def test_exact_length_unchanged(self):
        x = np.random.default_rng(3).uniform(-1, 1, TARGET_SAMPLES)
        out = fix_length(make_clip(x))
        np.testing.assert_array_equal(out.samples, x)

    def test_partial_final_repeat_truncated(self):
        # at 1 Hz the 8 s target is 8 samples: two whole repeats and 2 of 3
        x = np.arange(3, dtype=np.float64) / 10.0
        out = fix_length(make_clip(x, rate=1))
        np.testing.assert_array_equal(out.samples, [0.0, 0.1, 0.2, 0.0, 0.1, 0.2, 0.0, 0.1])

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        clip = make_clip(rng.uniform(-1, 1, 30000))
        once = fix_length(clip)
        twice = fix_length(once)
        np.testing.assert_array_equal(once.samples, twice.samples)

    def test_empty_clip_rejected(self):
        with pytest.raises(ValueError):
            make_clip(np.array([]))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(n=st.integers(1, TARGET_SAMPLES), seed=st.integers(0, 2**32 - 1))
    def test_equals_tiled_clip(self, n, seed):
        x = np.random.default_rng(seed).uniform(-1, 1, n)
        want = np.tile(x, -(-TARGET_SAMPLES // n))[:TARGET_SAMPLES]
        assert fix_length(make_clip(x)).samples.tobytes() == want.tobytes()


class TestNormalizeAmplitude:
    def test_peak_becomes_one(self):
        out = normalize_amplitude(make_clip([0.25, -0.5, 0.1]))
        assert np.abs(out.samples).max() == 1.0
        np.testing.assert_allclose(out.samples, [0.5, -1.0, 0.2])

    def test_all_zero_unchanged(self):
        out = normalize_amplitude(make_clip(np.zeros(100)))
        np.testing.assert_array_equal(out.samples, 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        clip = make_clip(rng.uniform(-1, 1, 500))
        once = normalize_amplitude(clip)
        twice = normalize_amplitude(once)
        np.testing.assert_allclose(once.samples, twice.samples, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-0.3, 0.3, 500)
        a = normalize_amplitude(make_clip(x)).samples
        b = normalize_amplitude(make_clip(2.5 * x)).samples
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("x", [
        np.random.default_rng(9).uniform(-1, 1, 500),
        np.random.default_rng(10).uniform(-1, 0.5, 500),
        np.zeros(100),
        np.full(100, -0.0),
        np.array([0.25, np.nan, -0.5]),
    ], ids=["random", "negative-peak", "zeros", "negative-zeros", "nan"])
    def test_bit_equal_to_abs_peak_form(self, x):
        got = normalize_amplitude(make_clip(x)).samples
        assert got.tobytes() == normalize_by_abs_peak(x).tobytes()


class TestMelSpectrogram:
    def test_output_shape_is_249x64(self):
        rng = np.random.default_rng(7)
        spec = mel_spectrogram(make_clip(rng.uniform(-1, 1, TARGET_SAMPLES)))
        assert spec.shape == (249, 64)
        assert spec.frame_rate == 16000 / 512

    def test_all_zero_clip_hits_log_floor(self):
        spec = mel_spectrogram(make_clip(np.zeros(TARGET_SAMPLES)))
        np.testing.assert_allclose(spec.values, np.log(1e-6), atol=1e-12)

    def test_1khz_sine_peaks_at_nearest_band(self):
        x = 0.8 * np.sin(2 * np.pi * 1000.0 * np.arange(TARGET_SAMPLES) / 16000.0)
        spec = mel_spectrogram(make_clip(x))
        centers = band_centers_hz()
        nearest = int(np.argmin(np.abs(centers - 1000.0)))
        assert int(np.argmax(spec.values.mean(axis=0))) == nearest

    def test_against_direct_dft_filterbank_oracle(self):
        # one frame, direct O(N^2) DFT, triangles rebuilt from the mel formula
        cfg = DEFAULT_SPEC_CONFIG
        x = 0.8 * np.sin(2 * np.pi * 1000.0 * np.arange(TARGET_SAMPLES) / 16000.0)
        frame = x[: cfg.n_fft] * (0.5 - 0.5 * np.cos(2 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft))
        power = np.abs(dft_frame_direct(frame)) ** 2
        freqs = np.arange(cfg.n_fft // 2 + 1) * cfg.sample_rate / cfg.n_fft
        pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), cfg.n_mels + 2))
        energies = np.zeros(cfg.n_mels)
        for i in range(cfg.n_mels):
            lo, ctr, hi = pts[i], pts[i + 1], pts[i + 2]
            tri = np.maximum(0.0, np.minimum((freqs - lo) / (ctr - lo), (hi - freqs) / (hi - ctr)))
            energies[i] = (tri * 2.0 / (hi - lo) * power).sum()
        oracle_band = int(np.argmax(energies))

        spec = mel_spectrogram(make_clip(x))
        assert int(np.argmax(spec.values[0])) == oracle_band
        centers = band_centers_hz()
        assert oracle_band == int(np.argmin(np.abs(centers - 1000.0)))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_equal_to_per_call_oracle(self, seed):
        x = np.random.default_rng(seed).uniform(-1, 1, TARGET_SAMPLES)
        np.testing.assert_array_equal(mel_spectrogram(make_clip(x)).values,
                                      mel_spectrogram_per_call(x))

    @pytest.mark.parametrize("view", [np.s_[::2], np.s_[TARGET_SAMPLES - 1::-1]],
                             ids=["every-second", "reversed"])
    def test_bit_equal_to_per_call_oracle_on_strided_views(self, view):
        # the frames of a strided view cross 7 full STFT blocks and a ragged one
        x = np.random.default_rng(11).uniform(-1, 1, 2 * TARGET_SAMPLES)[view]
        assert x.size == TARGET_SAMPLES and not x.flags.c_contiguous
        np.testing.assert_array_equal(mel_spectrogram(make_clip(x)).values,
                                      mel_spectrogram_per_call(x))

    @pytest.mark.parametrize("x", [
        np.random.default_rng(0).uniform(-1, 1, TARGET_SAMPLES),
        np.random.default_rng(1).uniform(-1, 1, TARGET_SAMPLES),
        np.random.default_rng(11).uniform(-1, 1, 2 * TARGET_SAMPLES)[::2],
        np.random.default_rng(11).uniform(-1, 1, 2 * TARGET_SAMPLES)[TARGET_SAMPLES - 1::-1],
    ], ids=["seed-0", "seed-1", "every-second", "reversed"])
    def test_within_4e_15_of_hypot_squared_power(self, x):
        # re^2 + im^2 rounds differently from hypot(re, im)^2; the features
        # moved by at most 8.9e-16 on ICBHI-shaped cycles and 1.8e-15 on the
        # synth corpus
        np.testing.assert_allclose(mel_spectrogram(make_clip(x)).values,
                                   mel_spectrogram_per_call(x, power_of=power_hypot_squared),
                                   rtol=0, atol=4e-15)

    def test_peak_traced_heap_of_one_call(self):
        # blocks of 32 frames measured 783 KB, most of it the two block
        # buffers (power reuses the windowed frames') and the output; a
        # separate power buffer took 912 KB, whole-clip temporaries 3990 KB
        clip = make_clip(np.random.default_rng(12).uniform(-1, 1, TARGET_SAMPLES))
        assert traced_peak_kb(mel_spectrogram, clip) <= 850

    @pytest.mark.parametrize("name", ["_WINDOW"])
    def test_analysis_constants_are_read_only(self, name):
        with pytest.raises(ValueError):
            getattr(audio, name)[0] = 1.0

    @pytest.mark.parametrize("part", ["data", "indices", "indptr"])
    def test_sparse_mel_bank_is_read_only(self, part):
        with pytest.raises(ValueError):
            getattr(audio._MEL_BANK, part)[0] = 1

    def test_sparse_mel_bank_equals_dense_design(self):
        np.testing.assert_array_equal(audio._MEL_BANK.toarray(), mel_filterbank())

    def test_default_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_SPEC_CONFIG.n_fft = 512

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            mel_spectrogram(make_clip(np.zeros(1000)))

    def test_wrong_rate_rejected(self):
        with pytest.raises(ShapeError):
            mel_spectrogram(make_clip(np.zeros(TARGET_SAMPLES), rate=8000))


class TestFullPipeline:
    @pytest.mark.parametrize("rate,seconds", [(4000, 2.3), (10000, 8.0), (44100, 12.7), (16000, 0.2)])
    def test_every_clip_yields_identical_shape(self, rate, seconds):
        rng = np.random.default_rng(8)
        clip = make_clip(rng.uniform(-1, 1, int(rate * seconds)), rate=rate)
        assert preprocess(clip).shape == (249, 64)

    @pytest.mark.parametrize("rate,seconds", [(44100, 2.7), (16000, 8.0)], ids=["cycle", "exact"])
    def test_peak_traced_heap(self, rate, seconds):
        # 1784 KB for both: the 8 s tile, the STFT's block buffers and the
        # output; normalizing after tiling kept one more clip-sized array
        # alive (2014 and 1912 KB)
        x = np.random.default_rng(13).uniform(-1, 1, int(rate * seconds))
        assert traced_peak_kb(preprocess, make_clip(x, rate=rate)) <= 1850

    @pytest.mark.parametrize("rate", [0, -16000])
    def test_clip_rate_must_be_positive(self, rate):
        with pytest.raises(ValueError, match="sample rate must be positive"):
            AudioClip(np.ones(10), rate, Label.NORMAL, "p1")

    @pytest.mark.parametrize("shape", [(249,), (249, 63)])
    def test_spectrogram_must_be_t_by_64(self, shape):
        with pytest.raises(ShapeError, match="T x 64"):
            Spectrogram(np.zeros(shape))

    def test_label_and_subject_survive_stages(self):
        clip = AudioClip(np.ones(1000) * 0.5, 32000, Label.WHEEZE, "p42")
        staged = normalize_amplitude(fix_length(resample(clip)))
        assert staged.label == Label.WHEEZE and staged.subject_id == "p42"


def _spike(x, at, value):
    x = x.copy()
    x[at] = value
    return x


_rng = np.random.default_rng(14)
#: (samples, rate) of clips whose features must not depend on the stage order
ORDER_CASES = {
    "4k-cycle": (_rng.uniform(-1, 1, int(2.7 * 4000)), 4000),
    "10k-cycle": (_rng.uniform(-1, 1, int(2.7 * 10000)), 10000),
    "44k-cycle": (_rng.uniform(-1, 1, int(2.7 * 44100)), 44100),
    "16k-exact": (_rng.uniform(-1, 1, TARGET_SAMPLES), 16000),
    "one-sample": (np.array([0.37]), 16000),
    "all-zero": (np.zeros(int(2.7 * 44100)), 44100),
    "negative-peak": (_spike(_rng.uniform(-0.3, 0.3, int(2.7 * 16000)), 1000, -0.9), 16000),
    "16k-peak-after-8s": (_spike(_rng.uniform(-0.3, 0.3, 12 * 16000), 10 * 16000, 0.95), 16000),
    "44k-peak-after-8s": (_spike(_rng.uniform(-0.3, 0.3, int(12.7 * 44100)), 10 * 44100, -0.95), 44100),
}

STAGES = ("resample", "normalize_amplitude", "fix_length", "mel_spectrogram")


class TestStageOrder:
    @pytest.mark.parametrize("case", ORDER_CASES)
    def test_bit_equal_to_normalizing_after_tiling(self, case):
        x, rate = ORDER_CASES[case]
        clip = make_clip(x, rate=rate)
        assert np.array_equal(preprocess(clip).values, preprocess_composed(clip).values)

    def test_long_cycle_peak_lies_after_8s(self):
        # the case that fails if the peak is taken before truncation
        x, rate = ORDER_CASES["44k-peak-after-8s"]
        samples = resample(make_clip(x, rate=rate)).samples
        assert np.abs(samples).max() > np.abs(samples[:TARGET_SAMPLES]).max()

    @pytest.mark.parametrize("rate,seconds", [(44100, 2.7), (16000, 8.0), (44100, 12.7)],
                             ids=["short", "exact", "long"])
    def test_each_stage_runs_once_through_its_module_attribute(self, rate, seconds, monkeypatch):
        # perfbench's tracer times these stages by swapping the same attributes
        calls = []
        for name in STAGES:
            def spy(clip, _real=getattr(audio, name), _name=name):
                calls.append(_name)
                return _real(clip)
            monkeypatch.setattr(audio, name, spy)
        x = np.random.default_rng(15).uniform(-1, 1, int(rate * seconds))
        assert preprocess(make_clip(x, rate=rate)).shape == (249, 64)
        assert calls == list(STAGES)
