"""Heads and hybrid loss: smoothing arithmetic, limiting cases, the direct
oracle, gradients."""

import numpy as np
import pytest

from respden.gradcheck import check_loss_gradients
from respden.losses import (
    HEAD_GAIN,
    HeadParams,
    cls_logits,
    pooled_features,
    smoothed_target,
    total_loss,
)
from respden.tensor import Tensor, _ln_forward

from oracles import hybrid_loss_direct


def make_head(rng, d, zero_phi=False, zero_cls=False, scale=1.0, requires_grad=False):
    def param(data):
        return Tensor(data, requires_grad=requires_grad)

    return HeadParams(
        param(np.ones(d)), param(np.zeros(d)),
        param(rng.standard_normal((d, 4)) * (0.0 if zero_phi else scale)), param(np.zeros(4)),
        param(rng.standard_normal((d, 4)) * (0.0 if zero_cls else scale)), param(np.zeros(4)),
    )


def head_tensors(head):
    return {"norm.g": head.norm_g, "norm.b": head.norm_b, "phi.w": head.phi_w,
            "phi.b": head.phi_b, "cls.w": head.cls_w, "cls.b": head.cls_b}


def loss_of(p, label, beta, eps, head) -> float:
    return total_loss(p, label, beta, eps, head).item()


def smoothed_ce(logits, target):
    """-sum(target * log_softmax(logits)) in the node's float operation order."""
    z = logits - logits.max()
    return float(-(target * (z - np.log(np.exp(z).sum()))).sum())


def bias_logits(p, head):
    normed = _ln_forward(pooled_features(p).data, head.norm_g.data, head.norm_b.data)[0]
    return HEAD_GAIN * (normed @ head.phi_w.data + head.phi_b.data)[0]


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
    """beta = 0: the plain cross-entropy of the prediction head."""

    def test_saturated_correct_prediction(self):
        head = make_head(np.random.default_rng(0), 8, zero_cls=True)
        head.cls_b.data[...] = np.array([100.0, 0.0, 0.0, 0.0]) / HEAD_GAIN
        assert loss_of(Tensor(np.ones((3, 8))), 0, 0.0, 0.2, head) < 1e-10

    def test_uniform_logits_give_ln4(self):
        rng = np.random.default_rng(1)
        head = make_head(rng, 8, zero_cls=True)
        p = Tensor(rng.standard_normal((6, 8)))
        np.testing.assert_allclose(loss_of(p, 2, 0.0, 0.2, head), np.log(4.0), atol=1e-12)

    def test_zero_logits_give_uniform_softmax(self):
        # the cls bias gradient is HEAD_GAIN * (softmax - onehot)
        rng = np.random.default_rng(5)
        head = make_head(rng, 8, zero_cls=True, requires_grad=True)
        total_loss(Tensor(rng.standard_normal((6, 8))), 2, 0.0, 0.2, head).backward()
        softmax = head.cls_b.grad / HEAD_GAIN + np.eye(4)[2]
        np.testing.assert_allclose(softmax, [0.25] * 4, atol=1e-15)

    def test_analytic_logits(self):
        # logits (0, 0, 0, ln 3): softmax (1/6, 1/6, 1/6, 1/2)
        head = make_head(np.random.default_rng(2), 8, zero_cls=True)
        head.cls_b.data[...] = np.array([0.0, 0.0, 0.0, np.log(3.0)]) / HEAD_GAIN
        p = Tensor(np.ones((3, 8)))
        np.testing.assert_allclose(loss_of(p, 3, 0.0, 0.2, head), np.log(2.0), atol=1e-15)
        np.testing.assert_allclose(loss_of(p, 0, 0.0, 0.2, head), np.log(6.0), atol=1e-15)

    def test_shift_of_every_logit_leaves_loss_unchanged(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.standard_normal((6, 8)))
        head = make_head(rng, 8, scale=0.1)
        base = [loss_of(p, label, 0.0, 0.2, head) for label in range(4)]
        head.cls_b.data += 13.7
        shifted = [loss_of(p, label, 0.0, 0.2, head) for label in range(4)]
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        head = make_head(rng, 8, scale=0.02, requires_grad=True)
        rows = check_loss_gradients(lambda: total_loss(p, 1, 0.0, 0.2, head),
                                    {"p": p, "cls.w": head.cls_w, "cls.b": head.cls_b}, step=1e-4)
        assert max(r.max_rel_err for r in rows) < 1e-6

    def test_invalid_label(self):
        head = make_head(np.random.default_rng(4), 8)
        with pytest.raises(ValueError):
            total_loss(Tensor(np.zeros((3, 8))), -1, 0.0, 0.2, head)


class TestBiasDenoiseLoss:
    """beta = 1: the smoothed cross-entropy of the layer-normed head."""

    def test_uniform_prediction_gives_ln4_for_any_eps(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.standard_normal((6, 8)))
        head = make_head(rng, 8, zero_phi=True)  # phi weights 0 -> uniform output
        for eps in (0.0, 0.2, 0.7):
            np.testing.assert_allclose(loss_of(p, 3, 1.0, eps, head), np.log(4.0), atol=1e-12)

    def test_eps_zero_equals_plain_cross_entropy(self):
        rng = np.random.default_rng(2)
        p = Tensor(rng.standard_normal((6, 8)))
        head = make_head(rng, 8)
        z = bias_logits(p, head)
        z = z - z.max()
        for label in range(4):
            ce = np.log(np.exp(z).sum()) - z[label]
            assert abs(loss_of(p, label, 1.0, 0.0, head) - ce) < 1e-12

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        p = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        head = make_head(rng, 8, requires_grad=True)
        rows = check_loss_gradients(lambda: total_loss(p, 2, 1.0, 0.2, head),
                                    {"p": p, "norm.g": head.norm_g, "norm.b": head.norm_b,
                                     "phi.w": head.phi_w, "phi.b": head.phi_b})
        assert max(r.max_rel_err for r in rows) < 1e-4


class TestTotalLoss:
    def _setup(self, seed=5):
        rng = np.random.default_rng(seed)
        p = Tensor(rng.standard_normal((6, 8)), requires_grad=True)
        return p, make_head(rng, 8, scale=0.1, requires_grad=True)

    def test_beta_half_is_arithmetic_mean(self):
        p, head = self._setup()
        bd, ce = loss_of(p, 1, 1.0, 0.2, head), loss_of(p, 1, 0.0, 0.2, head)
        np.testing.assert_allclose(loss_of(p, 1, 0.5, 0.2, head), 0.5 * (bd + ce), atol=1e-12)

    @pytest.mark.parametrize("beta, idle", [(0.0, ("norm.g", "norm.b", "phi.w", "phi.b")),
                                            (1.0, ("cls.w", "cls.b"))])
    def test_one_sided_beta_leaves_the_other_head_exactly_zero(self, beta, idle):
        p, head = self._setup()
        total_loss(p, 2, beta, 0.2, head).backward()
        params = head_tensors(head)
        for name in idle:
            assert not params[name].grad.any(), name
        for name in set(params) - set(idle):
            assert params[name].grad.any(), name

    def test_beta_one_is_bias_loss(self):
        p, head = self._setup()
        for label in range(4):
            want = smoothed_ce(bias_logits(p, head), smoothed_target(label, 0.2))
            assert loss_of(p, label, 1.0, 0.2, head) == want

    def test_beta_zero_is_ce(self):
        p, head = self._setup()
        for label in range(4):
            want = smoothed_ce(cls_logits(p, head), smoothed_target(label, 0.0))
            assert loss_of(p, label, 0.0, 0.2, head) == want

    def test_matches_direct_oracle(self):
        # moderate logits: a nearly saturated loss is the cancellation lse - z[y],
        # whose relative rounding error grows as the loss shrinks
        rng = np.random.default_rng(7)
        p = Tensor(rng.standard_normal((6, 8)))
        head = make_head(rng, 8, scale=0.005)
        head.norm_g.data[...] = 1.0 + 0.3 * rng.standard_normal(8)
        head.phi_b.data[...] = 0.05 * np.arange(4)
        arrays = [t.data for t in head_tensors(head).values()]
        for beta in (0.0, 0.3, 0.5, 1.0):
            for eps in (0.0, 0.2):
                for label in range(4):
                    want = hybrid_loss_direct(p.data, label, beta, eps, *arrays)
                    got = loss_of(p, label, beta, eps, head)
                    assert abs(got - want) <= 1e-12 * abs(want), (beta, eps, label)

    def test_gradient_vs_finite_differences(self):
        p, head = self._setup()
        rows = check_loss_gradients(lambda: total_loss(p, 3, 0.3, 0.2, head),
                                    {"p": p, **head_tensors(head)})
        assert max(r.max_rel_err for r in rows) < 1e-4

    def test_head_bias_gradients_sum_to_zero(self):
        # each softmax sums to one, so softmax - target sums to zero per head
        p, head = self._setup()
        total_loss(p, 1, 0.5, 0.2, head).backward()
        for bias in (head.cls_b.grad, head.phi_b.grad):
            assert abs(bias.sum()) < 1e-12 * np.abs(bias).max()
        # and each softmax entry lies in (0, 1): only the label pulls its logit up
        assert head.cls_b.grad[1] < 0 and (np.delete(head.cls_b.grad, 1) > 0).all()

    def test_pooled_gradient_is_spread_evenly_over_tokens(self):
        p, head = self._setup()
        total_loss(p, 0, 0.5, 0.2, head).backward()
        np.testing.assert_array_equal(p.grad, np.broadcast_to(p.grad[0], p.shape))
        assert p.grad.any()

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            p = Tensor(rng.standard_normal((4, 8)))
            head = make_head(rng, 8)
            label = int(rng.integers(0, 4))
            bd, ce = loss_of(p, label, 1.0, 0.2, head), loss_of(p, label, 0.0, 0.2, head)
            for beta in (0.0, 0.3, 0.5, 0.9, 1.0):
                tot = loss_of(p, label, beta, 0.2, head)
                assert min(bd, ce) - 1e-12 <= tot <= max(bd, ce) + 1e-12

    def test_invalid_beta(self):
        p, head = self._setup()
        with pytest.raises(ValueError):
            total_loss(p, 0, 1.5, 0.2, head)
