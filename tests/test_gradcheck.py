"""The finite-difference harness itself: coverage, pass/fail plumbing."""

import numpy as np
import pytest

from respden.gradcheck import (
    OP_TOL,
    CheckRow,
    check_loss_gradients,
    composed_model_suite,
    per_op_suite,
    rel_err,
    run_gradcheck,
)
from respden.tensor import Tensor

from oracles import mul


def square(x: Tensor, rule_scale: float) -> Tensor:
    """x**2 as a tape node whose pullback is `rule_scale` times the true one, 2 x g."""
    return Tensor._from_op(x.data ** 2, (x,), lambda g: (rule_scale * 2.0 * x.data * g,),
                           "square")


class TestHarness:
    def test_detects_a_wrong_gradient_rule(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        right, wrong = (check_loss_gradients(lambda: square(x, scale), {"x": x},
                                             cotangent=np.ones(2))[0]
                        for scale in (1.0, 1.01))
        assert right.tol == wrong.tol == OP_TOL
        assert right.passed and right.max_rel_err < 1e-8
        assert not wrong.passed  # off by 1 %, about a hundred times the tolerance

    def test_rel_err_guards_small_denominators(self):
        assert rel_err(0.0, 0.0) == 0.0
        assert rel_err(1e-3, 0.0) == pytest.approx(1.0)

    def test_sampling_caps_entries(self):
        x = Tensor(np.random.default_rng(0).standard_normal(100), requires_grad=True)
        rows = check_loss_gradients(lambda: mul(x, x), {"x": x}, cotangent=np.ones(100),
                                    max_entries=7, rng=np.random.default_rng(1))
        assert rows[0].n_checked == 7


class TestSuites:
    def test_per_op_suite_all_pass(self):
        rows = per_op_suite(seed=0)
        failing = [r for r in rows if not r.passed]
        assert not failing, f"failing op checks: {[(r.name, r.max_rel_err) for r in failing]}"

    def test_per_op_suite_covers_all_operations(self):
        prefixes = {r.name.split(".")[0] for r in per_op_suite(seed=0)}
        assert {"patch_embed", "layer_norm", "swish_glu", "mhda", "block", "freq_filter",
                "total_loss"} <= prefixes

    def test_composed_model_all_pass_and_cover_groups(self):
        rows = composed_model_suite(seed=0, max_entries=3)
        failing = [r for r in rows if not r.passed]
        assert not failing, f"failing model checks: {[(r.name, r.max_rel_err) for r in failing]}"
        names = [r.name for r in rows]
        for group in ("aff.w1", "aff.b2", "patch.w", "pos", "block0.wq", "block0.lam",
                      "block0.ffn.w1", "final.g", "head.phi.w", "head.cls.w", "head.norm.g"):
            assert any(n == group for n in names), f"missing parameter group {group}"

    def test_corrupt_hook_fails_named_row(self, corrupt_model_row):
        corrupt_model_row("head.cls.w")
        rows, ok = run_gradcheck(seed=0, max_entries=2)
        assert not ok
        bad = [r for r in rows if not r.passed]
        assert [r.name for r in bad] == ["model.head.cls.w"]
