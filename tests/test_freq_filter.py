"""Learnable frequency filter: mask behaviour, oracle agreement, gradients."""

import tracemalloc

import numpy as np
import pytest

import respden.freq_filter as freq_filter_module
from respden.audio import AudioClip, Label, preprocess
from respden.checkpoint import load_checkpoint, model_from_checkpoint
from respden.cli import main
from respden.config import RunConfig
from respden.datasets import TARGET_RATE, synth_clip
from respden.errors import NumericError, ShapeError
from respden.freq_filter import MASK_BLOCK, FilterParams, filter_forward
from respden.gradcheck import check_loss_gradients
from respden.model import Model
from respden.tensor import Tensor, no_grad

from oracles import (
    fft2, filter_direct, ifft2, mask_net, pointwise_mask_mlp, pointwise_mask_mlp_grads,
    reference_filter, scale_complex, soft_shrink, symmetrize,
)
from test_golden import RUN as GOLDEN_RUN


def random_params(rng, hidden=6, alpha=0.02, scale=0.05, requires_grad=False):
    return FilterParams(
        Tensor(rng.standard_normal((2, hidden)) * scale, requires_grad=requires_grad),
        Tensor(np.full(hidden, 0.1), requires_grad=requires_grad),
        Tensor(rng.standard_normal((hidden, 1)) * scale, requires_grad=requires_grad),
        Tensor(np.ones(1), requires_grad=requires_grad),
        alpha=alpha,
    )


def rigged_params(bias_out: float, hidden=4, alpha=0.02) -> FilterParams:
    """Zero weights: the raw mask is the constant `bias_out` everywhere."""
    return FilterParams(
        Tensor(np.zeros((2, hidden))), Tensor(np.zeros(hidden)),
        Tensor(np.zeros((hidden, 1))), Tensor(np.full(1, bias_out)), alpha=alpha,
    )


class TestMaskNet:
    def test_zero_spectrum_zero_biases_gives_zero_mask(self):
        params = FilterParams(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)),
                              Tensor(np.zeros((3, 1))), Tensor(np.zeros(1)))
        spec = fft2(Tensor(np.zeros((4, 4))))
        np.testing.assert_array_equal(mask_net(spec, params).data, np.zeros((4, 4)))

    def test_zero_hidden_width_rejected(self):
        with pytest.raises(ValueError, match="hidden width"):
            FilterParams(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)),
                         Tensor(np.zeros((0, 1))), Tensor(np.zeros(1)))

    def test_mask_shape_matches_spectrum(self):
        rng = np.random.default_rng(0)
        spec = fft2(Tensor(rng.standard_normal((4, 4))))
        assert mask_net(spec, random_params(rng)).shape == (4, 4)

    def test_instance_adaptivity(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, scale=0.5)
        m1 = mask_net(fft2(Tensor(rng.standard_normal((5, 6)))), params).data
        m2 = mask_net(fft2(Tensor(rng.standard_normal((5, 6)))), params).data
        assert not np.array_equal(m1, m2)


def normwise_rel_err(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestFusedMaskNet:
    """The reference chain's single-node mask MLP against the per-bin loop oracle."""

    SHAPE = (33, 40)

    def spectrum_and_params(self):
        rng = np.random.default_rng(20)
        spec = Tensor(rng.standard_normal((2, *self.SHAPE)))
        hidden = 7
        params = FilterParams(
            Tensor(rng.standard_normal((2, hidden)), requires_grad=True),
            Tensor(rng.standard_normal(hidden) * 0.5, requires_grad=True),
            Tensor(rng.standard_normal((hidden, 1)), requires_grad=True),
            Tensor(np.full(1, 0.3), requires_grad=True),
        )
        return spec, params

    def test_forward_and_four_gradients_match_loop_oracle(self):
        spec, params = self.spectrum_and_params()
        w1, b1, w2, b2 = (p.data for p in (params.w1, params.b1, params.w2, params.b2))
        z = spec.data[0, ..., None] * w1[0] + spec.data[1, ..., None] * w1[1] + b1
        # every unit is off at some bins and on at others, and no
        # pre-activation sits on the kink, so both backward branches count
        assert (z > 0).any(axis=(0, 1)).all() and (z < 0).any(axis=(0, 1)).all()
        assert np.abs(z).min() > 1e-6
        g = np.random.default_rng(21).standard_normal(self.SHAPE)

        out = mask_net(spec, params)
        out.backward(g)

        complex_spec = spec.data[0] + 1j * spec.data[1]
        want = pointwise_mask_mlp(complex_spec, w1, b1, w2.reshape(-1), b2[0])
        assert normwise_rel_err(out.data, want) <= 1e-12
        want_grads = pointwise_mask_mlp_grads(complex_spec, w1, b1, w2.reshape(-1), b2[0], g)
        got_grads = (params.w1.grad, params.b1.grad, params.w2.grad.reshape(-1), params.b2.grad[0])
        for name, got, want in zip(("w1", "b1", "w2", "b2"), got_grads, want_grads):
            assert normwise_rel_err(np.asarray(got), np.asarray(want)) <= 1e-12, name

    @pytest.mark.parametrize("weight", ["w1", "w2"])
    def test_overflow_raises_numeric_error(self, weight):
        # a huge finite weight overflows the hidden pre-activation (w1) or
        # the mask itself (w2) to +/-inf
        spec, params = self.spectrum_and_params()
        getattr(params, weight).data[...] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            mask_net(spec, params)


class TestSymmetrization:
    def test_symmetrize_is_idempotent(self):
        rng = np.random.default_rng(2)
        sym = symmetrize(Tensor(rng.standard_normal((5, 6)))).data
        np.testing.assert_array_equal(symmetrize(Tensor(sym)).data, sym)

    def test_symmetrized_mask_is_even(self):
        rng = np.random.default_rng(3)
        sym = symmetrize(Tensor(rng.standard_normal((6, 7)))).data
        t_n, f_n = sym.shape
        for u in range(t_n):
            for v in range(f_n):
                assert sym[u, v] == sym[(-u) % t_n, (-v) % f_n]

    def test_gradient_is_the_symmetrized_cotangent(self):
        rng = np.random.default_rng(14)
        m = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
        weights = rng.standard_normal((5, 6))
        symmetrize(m).backward(weights)
        np.testing.assert_array_equal(m.grad, symmetrize(Tensor(weights)).data)
        rows = check_loss_gradients(lambda: symmetrize(m), {"m": m}, cotangent=weights)
        assert rows[0].max_rel_err < 1e-4


class TestFilterForward:
    def test_identity_when_post_shrink_mask_is_one(self):
        # raw mask 1 + alpha shrinks to exactly 1 everywhere
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 8))
        out = filter_forward(Tensor(x), rigged_params(bias_out=1.02, alpha=0.02))
        assert np.abs(out.data - x).max() < 1e-9

    def test_annihilation_when_mask_in_dead_zone(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 8))
        out = filter_forward(Tensor(x), rigged_params(bias_out=0.01, alpha=0.02))
        np.testing.assert_array_equal(out.data, np.zeros((6, 8)))

    def test_matches_direct_double_sum_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((6, 8))
        params = random_params(rng, hidden=5, scale=0.3)
        got = filter_forward(Tensor(x), params).data
        want = filter_direct(
            x, params.w1.data, params.b1.data, params.w2.data.reshape(-1),
            params.b2.data[0], params.alpha,
        )
        assert np.abs(got - want).max() < 1e-8

    def test_real_output_residue_below_tolerance(self):
        # the reference chain's ifft2 raises NumericError if the masked
        # full-plane spectrum is not Hermitian; the fused node's irfft2 is
        # real by construction and must give the same signal
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 5)) * 10
        params = random_params(rng, scale=0.4)
        want = reference_filter(Tensor(x), params).data
        got = filter_forward(Tensor(x), params).data
        assert normwise_rel_err(got, want) <= 1e-12

    def test_frozen_mask_linearity(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, scale=0.3)
        x = rng.standard_normal((5, 6))
        base = fft2(Tensor(x))
        frozen = soft_shrink(symmetrize(mask_net(base, params)), params.alpha).data

        def apply_frozen(v):
            return ifft2(scale_complex(fft2(Tensor(v)), Tensor(frozen))).data

        y = rng.standard_normal((5, 6))
        a, b = 2.3, -1.7
        combined = apply_frozen(a * x + b * y)
        separate = a * apply_frozen(x) + b * apply_frozen(y)
        assert np.abs(combined - separate).max() < 1e-9

    def test_zero_count_monotone_in_alpha(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 8))
        params = random_params(rng, scale=0.5)
        raw = symmetrize(mask_net(fft2(Tensor(x)), params))
        counts = []
        for alpha in (0.0, 0.05, 0.2, 0.5, 1.0, 2.0):
            shrunk = soft_shrink(raw, alpha).data
            counts.append(int((shrunk == 0.0).sum()))
        assert counts == sorted(counts)

    def test_effective_mask_zero_where_raw_magnitude_below_alpha(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 8))
        params = random_params(rng, scale=0.5, alpha=0.3)
        raw = symmetrize(mask_net(fft2(Tensor(x)), params)).data
        shrunk = soft_shrink(Tensor(raw), params.alpha).data
        assert (shrunk[np.abs(raw) <= params.alpha] == 0.0).all()

    def test_gradients_through_full_chain(self):
        rng = np.random.default_rng(12)
        params = random_params(rng, hidden=4, scale=0.2, requires_grad=True)
        x = Tensor(rng.standard_normal((5, 6)))
        weights = rng.standard_normal((5, 6))
        rows = check_loss_gradients(
            lambda: filter_forward(x, params),
            {"w1": params.w1, "b1": params.b1, "w2": params.w2, "b2": params.b2},
            cotangent=weights,
        )
        assert max(r.max_rel_err for r in rows) < 1e-3

    def test_differentiable_input_rejected(self):
        # the node has no pullback onto x: a caller would get a silent zero gradient
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
        with pytest.raises(ValueError, match="must not require grad"):
            filter_forward(x, random_params(rng, requires_grad=True))

    def test_negative_alpha_rejected(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            random_params(rng, alpha=-0.1)


def outputs_and_gradients(fn, x, params, weights):
    """fn's output and the gradients of sum(weights * output) w.r.t. w1, b1, w2, b2."""
    leaves = [Tensor(p.data.copy(), requires_grad=True)
              for p in (params.w1, params.b1, params.w2, params.b2)]
    out = fn(Tensor(x), FilterParams(*leaves, alpha=params.alpha))
    out.backward(weights)
    return [out.data] + [p.grad for p in leaves]


NAMES = ("out", "w1", "b1", "w2", "b2")


def assert_matches_reference(x, params, weights):
    """The filter's output and four gradients agree with `reference_filter`'s to 1e-10."""
    got = outputs_and_gradients(filter_forward, x, params, weights)
    want = outputs_and_gradients(reference_filter, x, params, weights)
    for name, g, w in zip(NAMES, got, want):
        # an all-zero reference gradient must be matched exactly
        assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), name


def synth_log_mel(seed: int = 80, label: Label = Label.BOTH) -> np.ndarray:
    """The log-mel spectrogram of a synth cycle at 5-10 dB."""
    clip = synth_clip(np.random.default_rng(seed), label, (5.0, 10.0))
    return preprocess(AudioClip(clip, TARGET_RATE, label, "s")).values


def mixed_case():
    """A synth log-mel clip and default-init AFF parameters with w1 scaled by 30, so
    that the bound certifies the bins of |re|, |im| below about 60 and leaves the rest
    kinked, and unit 0 has b1 = -0.5, so it is off on every certified bin."""
    params = Model(RunConfig()).filter_params()
    params.w1.data[...] *= 30
    params.b1.data[0] = -0.5
    return synth_log_mel(), params


def certified_by_bound(spec: np.ndarray, params) -> np.ndarray:
    """|re| r0 + |im| r1 < 1 per bin, with r_i = max_j |w1[i, j]| / |b1_j|."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r0, r1 = (np.abs(params.w1.data) / np.abs(params.b1.data)).max(1)
        return np.abs(spec.real) * r0 + np.abs(spec.imag) * r1 < 1


class TestFusedMatchesReference:
    """The one-node half-spectrum filter against the six-node full-plane chain."""

    def generic_params(self, rng, x, hidden=6):
        """Random MLP weights; alpha halfway between the two middle |mask| values.

        The shrink then passes about half the bins and zeroes the rest, and
        no bin sits on its kink.
        """
        params = FilterParams(
            Tensor(rng.standard_normal((2, hidden)) * 0.3),
            Tensor(rng.standard_normal(hidden) * 0.3),
            Tensor(rng.standard_normal((hidden, 1)) * 0.3),
            Tensor(np.full(1, 0.3)),
        )
        mags = np.unique(np.abs(symmetrize(mask_net(fft2(Tensor(x)), params)).data))
        params.alpha = float(0.5 * (mags[len(mags) // 2 - 1] + mags[len(mags) // 2]))
        return params

    @pytest.mark.parametrize("shape", [(249, 64), (249, 63), (6, 8), (9, 5), (5, 6), (7, 7)])
    def test_output_and_five_gradients(self, shape):
        # compares the output and the four parameter gradients (NAMES)
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        assert_matches_reference(x, self.generic_params(rng, x), rng.standard_normal(shape))

    @pytest.mark.parametrize("shape", [(8, 6), (9, 6), (9, 7)])
    def test_self_conjugate_lines_alone(self, shape):
        # input and cotangent live only on the lines that conjugation maps
        # onto themselves: row u = 0, column v = 0 and, for even F, column
        # v = F/2; on those columns the half plane holds both partners
        t, f = shape
        rng = np.random.default_rng(t * f)
        support = np.zeros(shape, dtype=bool)
        support[0, :] = support[:, 0] = True
        if f % 2 == 0:
            support[:, f // 2] = True

        def on_support():
            return np.fft.ifft2(np.fft.fft2(rng.standard_normal(shape)) * support).real

        x, weights = on_support(), on_support()
        assert np.allclose(np.fft.fft2(x)[~support], 0.0, atol=1e-12)
        assert_matches_reference(x, self.generic_params(rng, x), weights)

    def test_dead_zone_mask(self):
        # the raw mask 0.01 lies inside |m| <= alpha everywhere: the output
        # is zero and no parameter gets gradient
        rng = np.random.default_rng(30)
        x, weights = rng.standard_normal((9, 8)), rng.standard_normal((9, 8))
        params = rigged_params(bias_out=0.01, alpha=0.02)
        got = outputs_and_gradients(filter_forward, x, params, weights)
        want = outputs_and_gradients(reference_filter, x, params, weights)
        np.testing.assert_array_equal(got[0], 0.0)
        for name, g, w in zip(NAMES[1:], got[1:], want[1:]):
            np.testing.assert_array_equal(g, w, err_msg=name)
            np.testing.assert_array_equal(g, 0.0, err_msg=name)

    @pytest.mark.parametrize("shape", [(249, 64), (7, 7)])
    def test_identity_mask(self, shape):
        # the raw mask 1 + alpha shrinks to exactly 1: the filter passes x
        rng = np.random.default_rng(31)
        x, weights = rng.standard_normal(shape), rng.standard_normal(shape)
        params = rigged_params(bias_out=1.02, alpha=0.02)
        got = outputs_and_gradients(filter_forward, x, params, weights)
        assert np.abs(got[0] - x).max() <= 1e-12
        assert_matches_reference(x, params, weights)

    def test_hidden_overflow_raises_numeric_error(self):
        rng = np.random.default_rng(33)
        params = random_params(rng)
        params.w1.data[...] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="hidden layer"):
            filter_forward(Tensor(rng.standard_normal((6, 8))), params)

    def test_nan_mask_raises_numeric_error(self):
        # every hidden unit is 2, so the products with w2 = +-1e308 are
        # +-inf and sum to NaN, which the shrink would silently zero
        params = rigged_params(bias_out=0.0)
        params.b1.data[...] = 2.0
        params.w2.data[...] = 1e308 * np.array([[1.0], [-1.0], [1.0], [-1.0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="mask_net output"):
            filter_forward(Tensor(np.ones((6, 8))), params)

    def test_non_2d_input_rejected(self):
        with pytest.raises(ShapeError):
            filter_forward(Tensor(np.zeros(8)), rigged_params(bias_out=1.0))


class TestHiddenLayerScan:
    """The mask MLP scans every hidden block of the kinked rows for NaN/Inf."""

    @staticmethod
    def count_hidden_checks(monkeypatch) -> list[int]:
        """Rows of every hidden-layer block scanned for NaN/Inf, one entry per scan."""
        rows, check = [], freq_filter_module._check_finite

        def counting(arr, what):
            if what == "mask_net hidden layer":
                rows.append(len(arr))
            check(arr, what)

        monkeypatch.setattr(freq_filter_module, "_check_finite", counting)
        return rows

    @staticmethod
    def default_case():
        """Default-init AFF parameters and the log-mel spectrogram of a synth cycle."""
        return Tensor(synth_log_mel()), Model(RunConfig()).filter_params()

    def test_default_model_scans_exactly_its_kinked_rows(self, monkeypatch):
        x, params = self.default_case()
        seen = spy_mask_net(monkeypatch)
        rows = self.count_hidden_checks(monkeypatch)
        filter_forward(x, params)
        [(_, kinked, _, _)] = seen
        assert len(kinked) > 0
        assert sum(rows) == 2 * len(kinked)  # a row and its partner per kinked bin

    def test_all_kinked_clip_scans_every_block_and_keeps_the_bits(self, monkeypatch):
        x, params = self.default_case()
        # w2[0] = 0 takes unit 0 out of the mask, 0 * relu(h) = +0, whatever its w1
        params.w2.data[0, 0] = 0.0
        # the bits of a run that sends every bin down the MLP path
        monkeypatch.setattr(freq_filter_module, "_certified",
                            lambda re, im, w1b: np.zeros(re.shape, bool))
        want = filter_forward(x, params).data
        monkeypatch.undo()
        # max|re| is about 7e4, so every pre-activation stays finite,
        # and |re| w1[0, 0] / b1[0] >= 1 certifies no bin
        params.w1.data[0, 0] = 1e300
        rows = self.count_hidden_checks(monkeypatch)
        got = filter_forward(x, params).data
        n = 2 * x.shape[0] * (x.shape[1] // 2 + 1)
        assert len(rows) == -(-n // MASK_BLOCK) and sum(rows) == n
        assert np.array_equal(got, want)

    def test_minus_inf_preactivation_that_relu_would_zero_raises(self):
        # only the DC rows' first unit, 48 * -1e308, is -inf, and relu maps it to 0
        params = random_params(np.random.default_rng(81))
        params.w1.data[0, 0] = -1e308
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="hidden layer"):
            filter_forward(Tensor(np.ones((6, 8))), params)

    def test_nan_first_layer_weight_raises(self):
        params = random_params(np.random.default_rng(82))
        params.w1.data[1, 2] = np.nan
        with pytest.raises(NumericError, match="hidden layer"):
            filter_forward(Tensor(np.random.default_rng(83).standard_normal((6, 8))), params)


def count_mlp_rows(monkeypatch) -> list[int]:
    """Rows of every table that the mask MLP runs, one entry per table."""
    rows, table = [], freq_filter_module._mask_table

    def counting(feats, *args):
        rows.append(len(feats))
        return table(feats, *args)

    monkeypatch.setattr(freq_filter_module, "_mask_table", counting)
    return rows


def spy_mask_net(monkeypatch) -> list[tuple]:
    """The (lin, kinked, raw, on) that each `mask_net` call returns."""
    seen, net = [], freq_filter_module.mask_net

    def spying(*args, **kwargs):
        seen.append(net(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(freq_filter_module, "mask_net", spying)
    return seen


class TestCertifiedBins:
    """A bin whose bound |re| r0 + |im| r1 < 1 fixes every rectifier gets its mask
    in closed form; only the other, kinked, bins and their partners run the MLP."""

    def test_default_init_certifies_nearly_every_bin(self, monkeypatch):
        x, params = synth_log_mel(), Model(RunConfig()).filter_params()
        n = x.shape[0] * (x.shape[1] // 2 + 1)
        kinked = int((~certified_by_bound(np.fft.rfft2(x), params)).sum())
        assert 0 < kinked < 0.01 * n
        rows = count_mlp_rows(monkeypatch)
        filter_forward(Tensor(x), params)
        assert rows == [2 * kinked]  # a row and its partner per kinked bin
        monkeypatch.undo()
        assert_matches_reference(x, params, np.random.default_rng(92).standard_normal(x.shape))

    def test_mixed_certified_and_kinked_bins(self):
        x, params = mixed_case()
        spec = np.fft.rfft2(x)
        cert = certified_by_bound(spec, params)
        assert 0.2 < cert.mean() < 0.8
        # the kinked bins' units are on at some rows and off at others, none on the kink
        z = spec[~cert].reshape(-1, 1)
        pre = np.vstack((z.real * params.w1.data[0] + z.imag * params.w1.data[1],
                         z.real * params.w1.data[0] - z.imag * params.w1.data[1])) + params.b1.data
        assert (pre[:, 1:] > 0).any() and (pre[:, 1:] < 0).any() and np.abs(pre).min() > 1e-9
        assert_matches_reference(x, params, np.random.default_rng(93).standard_normal(x.shape))

    def test_zero_bias_certifies_no_bin(self, monkeypatch):
        x, params = mixed_case()
        params.b1.data[1] = 0.0
        n = x.shape[0] * (x.shape[1] // 2 + 1)
        # the MLP's table spans more than one block, the last one ragged
        assert 2 * n > MASK_BLOCK and 2 * n % MASK_BLOCK != 0
        assert not certified_by_bound(np.fft.rfft2(x), params).any()
        rows = count_mlp_rows(monkeypatch)
        filter_forward(Tensor(x), params)
        assert rows == [2 * n]
        monkeypatch.undo()
        assert_matches_reference(x, params, np.random.default_rng(94).standard_normal(x.shape))

    def test_stack_with_different_certified_sets_is_bit_equal_per_clip(self):
        _, params = mixed_case()
        x = np.stack([synth_log_mel(81 + i, label) for i, label in enumerate(Label)])
        counts = certified_by_bound(np.fft.rfft2(x), params).sum(axis=(1, 2))
        assert len(set(counts.tolist())) == 4
        with no_grad():
            stacked = filter_forward(Tensor(x), params).data
            for i in range(4):
                assert np.array_equal(stacked[i], filter_forward(Tensor(x[i]), params).data), i

    @pytest.mark.parametrize("weight, index, value, message", [
        ("w1", (1, 0), np.nan, "mask_net hidden layer"), ("b1", 3, np.inf, "mask_net hidden layer"),
        ("w2", ..., 1e308, "mask_net output")])
    def test_non_finite_weights_raise(self, weight, index, value, message):
        # default-init parameters certify every bin of this faint clip; a NaN w1 or an
        # infinite b1 certifies none, and w2 = 1e308 overflows the closed form
        x, params = 1e-3 * synth_log_mel(), Model(RunConfig()).filter_params()
        assert certified_by_bound(np.fft.rfft2(x), params).all()
        getattr(params, weight).data[index] = value
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=message):
            filter_forward(Tensor(x), params)


class TestCertifiedShare:
    """A count-based guard on the closed form: the share of a synth clip's bins
    that never reach the mask MLP, for the default model at init and trained."""

    @staticmethod
    def certified_share(model, monkeypatch) -> float:
        x = synth_log_mel()
        rows = count_mlp_rows(monkeypatch)
        filter_forward(Tensor(x), model.filter_params())
        return 1 - sum(rows) / (2 * x.shape[0] * (x.shape[1] // 2 + 1))

    def test_default_model_at_init(self, monkeypatch):
        # measured 8201 of 8217 bins
        assert self.certified_share(Model(RunConfig()), monkeypatch) >= 0.99

    def test_golden_full_checkpoint(self, monkeypatch, tmp_path):
        # measured 8198 of 8217 bins (0.9977)
        assert main(["train", *GOLDEN_RUN, "--out-dir", str(tmp_path)]) == 0
        model = model_from_checkpoint(load_checkpoint(str(tmp_path / "checkpoint.bin")))
        assert self.certified_share(model, monkeypatch) >= 0.997


class TestRectifierPattern:
    """The forward keeps the mask MLP's rectifier pattern, one bool per kinked row
    and hidden unit, only for a node that goes on the tape."""

    @pytest.mark.parametrize("shape", [(9, 8), (3, 9, 8)])
    def test_no_grad_forward_passes_no_pattern(self, shape, monkeypatch):
        rng = np.random.default_rng(84)
        params = random_params(rng, requires_grad=True)
        seen = spy_mask_net(monkeypatch)
        with no_grad():
            filter_forward(Tensor(rng.standard_normal(shape)), params)
        assert [on for *_, on in seen] == [None]

    def test_constant_parameters_pass_no_pattern(self, monkeypatch):
        rng = np.random.default_rng(85)
        seen = spy_mask_net(monkeypatch)
        filter_forward(Tensor(rng.standard_normal((9, 8))), random_params(rng))
        assert [on for *_, on in seen] == [None]

    def test_node_on_the_tape_holds_a_bool_pattern_of_the_kinked_rows_and_no_features(self):
        x, params = mixed_case()
        hidden = params.w1.shape[1]
        for p in (params.w1, params.b1, params.w2, params.b2):
            p.requires_grad = True
        out = filter_forward(Tensor(x), params)
        spec = np.fft.rfft2(x).reshape(-1)
        kinked = ~certified_by_bound(spec, params)
        k = int(kinked.sum())
        assert 0 < k < len(spec)
        held = [c.cell_contents for c in out._backward_fn.__closure__]
        # bool tables besides the shrink's (T, F//2 + 1) subgradient mask
        patterns = [a for a in held if isinstance(a, np.ndarray) and a.dtype == bool
                    and a.ndim == 2 and a.shape != (x.shape[0], x.shape[1] // 2 + 1)]
        assert len(patterns) == 1 and patterns[0].shape == (2 * k, hidden)
        # the backward rebuilds the feature rows from the spectrum instead
        assert not any(isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[1] == 3 for a in held)
        # rows: every kinked half-plane bin (re, im), then its partner (re, -im)
        spec = spec[kinked, None]
        w1, b1 = params.w1.data, params.b1.data
        pre = np.vstack((spec.real * w1[0] + spec.imag * w1[1],
                         spec.real * w1[0] - spec.imag * w1[1])) + b1
        assert np.abs(pre).min() > 1e-9 and (pre < 0).any()
        np.testing.assert_array_equal(patterns[0], pre > 0)


class TestStackedFilterMemory:
    def test_no_grad_four_clip_traced_peak(self):
        # measured 2.5 MB at the default dims; a row table for the whole
        # stack (1.6 MB) instead of one clip's at a time took it to 4.6 MB
        params = Model(RunConfig()).filter_params()
        x = Tensor(np.random.default_rng(87).standard_normal((4, 249, 64)))
        with no_grad():
            filter_forward(x, params)  # fill any lazy caches
            tracemalloc.start()
            try:
                filter_forward(x, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 3.5 * 2**20, peak
