"""Learnable frequency filter: mask behaviour, oracle agreement, gradients."""

import numpy as np
import pytest

import respden.freq_filter as freq_filter_module
from respden.audio import AudioClip, Label, preprocess
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
    """The blocked single-node MLP against the per-bin loop oracle."""

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
        # more than one block, the last one ragged
        n = self.SHAPE[0] * self.SHAPE[1]
        assert n > MASK_BLOCK and n % MASK_BLOCK != 0
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

    def assert_match(self, x, params, weights):
        got = outputs_and_gradients(filter_forward, x, params, weights)
        want = outputs_and_gradients(reference_filter, x, params, weights)
        for name, g, w in zip(NAMES, got, want):
            # an all-zero reference gradient must be matched exactly
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), name

    @pytest.mark.parametrize("shape", [(249, 64), (249, 63), (6, 8), (9, 5), (5, 6), (7, 7)])
    def test_output_and_five_gradients(self, shape):
        # compares the output and the four parameter gradients (NAMES)
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        self.assert_match(x, self.generic_params(rng, x), rng.standard_normal(shape))

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
        self.assert_match(x, self.generic_params(rng, x), weights)

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
        self.assert_match(x, params, weights)

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


class TestHiddenLayerBound:
    """The mask MLP scans its hidden layer per block only when the magnitude
    bound max|re| max|w1[0]| + max|im| max|w1[1]| + max|b1| is not below 1e300."""

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
        clip = synth_clip(np.random.default_rng(80), Label.BOTH, (5.0, 10.0))
        spec = preprocess(AudioClip(clip, TARGET_RATE, Label.BOTH, "s")).values
        return Tensor(spec), Model(RunConfig()).filter_params()

    def test_default_model_scans_no_block(self, monkeypatch):
        x, params = self.default_case()
        rows = self.count_hidden_checks(monkeypatch)
        filter_forward(x, params)
        assert rows == []

    def test_failed_bound_scans_every_block_and_keeps_the_bits(self, monkeypatch):
        x, params = self.default_case()
        # w2[0] = 0 takes unit 0 out of the mask, 0 * relu(h) = +0, whatever its w1
        params.w2.data[0, 0] = 0.0
        want = filter_forward(x, params).data
        # max|re| is about 7e4: the bound is about 7e304, every pre-activation finite
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


class TestRectifierPattern:
    """The forward keeps the mask MLP's rectifier pattern, one bool per row and
    hidden unit, only for a node that goes on the tape."""

    @staticmethod
    def spy_patterns(monkeypatch) -> list:
        """The pattern array handed to each `mask_net` call (None for none)."""
        seen, net = [], freq_filter_module.mask_net

        def spying(*args, **kwargs):
            seen.append(kwargs.get("on"))
            return net(*args, **kwargs)

        monkeypatch.setattr(freq_filter_module, "mask_net", spying)
        return seen

    @pytest.mark.parametrize("shape", [(9, 8), (3, 9, 8)])
    def test_no_grad_forward_passes_no_pattern(self, shape, monkeypatch):
        rng = np.random.default_rng(84)
        params = random_params(rng, requires_grad=True)
        seen = self.spy_patterns(monkeypatch)
        with no_grad():
            filter_forward(Tensor(rng.standard_normal(shape)), params)
        assert seen == [None]

    def test_constant_parameters_pass_no_pattern(self, monkeypatch):
        rng = np.random.default_rng(85)
        seen = self.spy_patterns(monkeypatch)
        filter_forward(Tensor(rng.standard_normal((9, 8))), random_params(rng))
        assert seen == [None]

    def test_node_on_the_tape_holds_a_bool_pattern_of_2n_hidden_entries_and_no_features(self):
        rng = np.random.default_rng(86)
        hidden, (t, f) = 6, (9, 8)
        params = random_params(rng, hidden=hidden, scale=0.5, requires_grad=True)
        x = rng.standard_normal((t, f))
        out = filter_forward(Tensor(x), params)
        n = t * (f // 2 + 1)
        held = [c.cell_contents for c in out._backward_fn.__closure__]
        patterns = [a for a in held if isinstance(a, np.ndarray) and a.size == 2 * n * hidden]
        assert len(patterns) == 1 and patterns[0].dtype == bool
        # the backward rebuilds the feature rows from the spectrum instead
        assert not any(isinstance(a, np.ndarray) and a.shape == (2 * n, 3) for a in held)
        # rows: every half-plane bin (re, im), then its partner (re, -im)
        spec = np.fft.rfft2(x).reshape(-1, 1)
        w1, b1 = params.w1.data, params.b1.data
        pre = np.vstack((spec.real * w1[0] + spec.imag * w1[1],
                         spec.real * w1[0] - spec.imag * w1[1])) + b1
        assert np.abs(pre).min() > 1e-9
        np.testing.assert_array_equal(patterns[0], pre > 0)
