"""Hybrid loss: smoothing arithmetic, limiting cases, gradients."""

import numpy as np
import pytest

from respden.gradcheck import check_loss_gradients
from respden.losses import (
    HeadParams,
    bias_denoise_loss,
    ce_loss,
    cls_logits,
    smoothed_target,
    total_loss,
)
from respden.tensor import Tensor


def make_head(rng, d, zero_phi=False):
    scale = 0.0 if zero_phi else 1.0
    return HeadParams(
        Tensor(np.ones(d)), Tensor(np.zeros(d)),
        Tensor(rng.standard_normal((d, 4)) * scale), Tensor(np.zeros(4)),
        Tensor(rng.standard_normal((d, 4))), Tensor(np.zeros(4)),
    )


class TestSmoothedTarget:
    def test_reference_vector(self):
        np.testing.assert_allclose(smoothed_target(0, 0.2), [0.85, 0.05, 0.05, 0.05], atol=1e-15)

    def test_sums_to_one_for_all_eps(self):
        for eps in (0.0, 0.1, 0.2, 0.5, 0.99):
            for label in range(4):
                assert abs(smoothed_target(label, eps).sum() - 1.0) < 1e-12

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            smoothed_target(4, 0.2)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            smoothed_target(0, 1.0)


class TestCeLoss:
    def test_saturated_correct_prediction(self):
        loss = ce_loss(Tensor([100.0, 0.0, 0.0, 0.0]), 0)
        assert loss.item() < 1e-10

    def test_uniform_logits_give_ln4(self):
        loss = ce_loss(Tensor(np.zeros(4)), 2)
        np.testing.assert_allclose(loss.item(), np.log(4.0), atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal(4), requires_grad=True)
        rows = check_loss_gradients(lambda: ce_loss(logits, 1), {"logits": logits}, step=1e-4)
        assert rows[0].max_rel_err < 1e-6

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            ce_loss(Tensor(np.zeros(4)), -1)


class TestBiasDenoiseLoss:
    def test_uniform_prediction_gives_ln4_for_any_eps(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.standard_normal((6, 8)))
        head = make_head(rng, 8, zero_phi=True)  # phi weights 0 -> uniform output
        for eps in (0.0, 0.2, 0.7):
            loss = bias_denoise_loss(p, 3, head, eps)
            np.testing.assert_allclose(loss.item(), np.log(4.0), atol=1e-12)

    def test_eps_zero_equals_plain_cross_entropy(self):
        rng = np.random.default_rng(2)
        p = Tensor(rng.standard_normal((6, 8)))
        head = make_head(rng, 8)
        from respden.losses import HEAD_GAIN, pooled_features
        from respden.tensor import add, layer_norm, matmul, mul, reshape

        logits = reshape(mul(HEAD_GAIN, add(
            matmul(layer_norm(pooled_features(p), head.norm_g, head.norm_b), head.phi_w),
            head.phi_b)), (4,))
        for label in range(4):
            bd = bias_denoise_loss(p, label, head, 0.0).item()
            ce = ce_loss(logits, label).item()
            assert abs(bd - ce) < 1e-12

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        p = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        head = make_head(rng, 8)
        head.phi_w.requires_grad = True
        head.phi_w.grad = np.zeros_like(head.phi_w.data)
        rows = check_loss_gradients(lambda: bias_denoise_loss(p, 2, head, 0.2),
                                    {"p": p, "phi.w": head.phi_w})
        assert max(r.max_rel_err for r in rows) < 1e-4


class TestTotalLoss:
    def _setup(self, seed=5):
        rng = np.random.default_rng(seed)
        p = Tensor(rng.standard_normal((6, 8)))
        head = make_head(rng, 8)
        logits = cls_logits(p, head)
        return p, head, logits

    def test_beta_half_is_arithmetic_mean(self):
        p, head, logits = self._setup()
        bd = bias_denoise_loss(p, 1, head, 0.2).item()
        ce = ce_loss(logits, 1).item()
        tot = total_loss(p, logits, 1, 0.5, 0.2, head).item()
        np.testing.assert_allclose(tot, 0.5 * (bd + ce), atol=1e-12)

    def test_beta_one_is_bias_loss(self):
        p, head, logits = self._setup()
        assert total_loss(p, logits, 2, 1.0, 0.2, head).item() == \
            bias_denoise_loss(p, 2, head, 0.2).item()

    def test_beta_zero_is_ce(self):
        p, head, logits = self._setup()
        assert total_loss(p, logits, 2, 0.0, 0.2, head).item() == ce_loss(logits, 2).item()

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            p = Tensor(rng.standard_normal((4, 8)))
            head = make_head(rng, 8)
            logits = cls_logits(p, head)
            label = int(rng.integers(0, 4))
            bd = bias_denoise_loss(p, label, head, 0.2).item()
            ce = ce_loss(logits, label).item()
            for beta in (0.0, 0.3, 0.5, 0.9, 1.0):
                tot = total_loss(p, logits, label, beta, 0.2, head).item()
                assert min(bd, ce) - 1e-12 <= tot <= max(bd, ce) + 1e-12

    def test_invalid_beta(self):
        p, head, logits = self._setup()
        with pytest.raises(ValueError):
            total_loss(p, logits, 0, 1.5, 0.2, head)
