"""Model assembly and the training loop: determinism, ablations, logging."""

import json
import sys

import numpy as np
import pytest

import respden.train  # noqa: F401  (module object; the package exports a same-named function)
from respden.config import RunConfig, validate_config

train_mod = sys.modules["respden.train"]
from respden.datasets import SynthConfig, build_synth
from respden.errors import ShapeError, TrainingError, UndefinedMetricError
from respden.model import Model, seed_stream
from respden.tensor import Tensor
from respden.train import evaluate_indices, evaluate_split, prepare_data, train


def tiny_cfg(**kw):
    base = dict(
        dim=32, heads=4, layers=1, mask_hidden=4, epochs=2, batch=4,
        dataset="synth", train_per_class=2, test_per_class=1,
        train_subjects=2, test_subjects=1, seed=7,
    )
    base.update(kw)
    return validate_config(RunConfig(**base))


@pytest.fixture(scope="module")
def tiny_data():
    cfg = tiny_cfg()
    return prepare_data(cfg)


class TestModel:
    def test_predict_tie_breaks_to_lower_index(self):
        model = Model(tiny_cfg())
        # zero-initialized heads give exactly uniform logits
        spec = np.random.default_rng(0).standard_normal((249, 64))
        assert model.predict(spec) == 0

    def test_prediction_shift_invariant(self):
        model = Model(tiny_cfg())
        rng = np.random.default_rng(1)
        model.params["head.cls.w"].data[...] = rng.standard_normal((32, 4)) * 0.1
        spec = rng.standard_normal((249, 64))
        from respden.losses import HEAD_GAIN

        logits = model.logits(spec)
        model.params["head.cls.b"].data[...] += 5.0
        shifted = model.logits(spec)
        np.testing.assert_allclose(shifted - logits, HEAD_GAIN * 5.0, atol=1e-10)
        assert int(np.argmax(logits)) == int(np.argmax(shifted))

    def test_no_ddl_freezes_lambda_at_zero(self):
        model = Model(tiny_cfg(no_ddl=True))
        lam = model.params["block0.lam"]
        np.testing.assert_array_equal(lam.data, 0.0)
        assert not lam.requires_grad
        assert "block0.lam" not in model.trainable()

    def test_no_bias_loss_reduces_to_ce(self):
        cfg_on = tiny_cfg()
        cfg_off = tiny_cfg(no_bias_loss=True)
        m_on = Model(cfg_on, rng=seed_stream(0, "init"))
        m_off = Model(cfg_off, rng=seed_stream(0, "init"))
        spec = np.random.default_rng(2).standard_normal((249, 64))
        from respden.losses import ce_loss, cls_logits
        from respden.tensor import no_grad

        with no_grad():
            want = ce_loss(cls_logits(m_off.features(spec), m_off.head_params()), 1).item()
            got = m_off.sample_loss(spec, 1).item()
        assert got == want
        with no_grad():
            assert m_on.sample_loss(spec, 1).item() != got

    def test_no_aff_bypasses_filter(self):
        cfg = tiny_cfg(no_aff=True)
        model = Model(cfg, rng=seed_stream(0, "init"))
        spec = np.random.default_rng(3).standard_normal((249, 64))
        # corrupting the filter parameters must not change the output
        before = model.logits(spec)
        model.params["aff.b2"].data[...] = 123.0
        np.testing.assert_array_equal(model.logits(spec), before)


    @pytest.mark.parametrize("fault", ["missing", "misshaped"])
    @pytest.mark.parametrize("name", ["pos", "block0.lam", "head.cls.b"])
    def test_bad_parameter_map_names_the_parameter(self, fault, name):
        cfg = tiny_cfg()
        params = Model(cfg).params
        if fault == "missing":
            del params[name]
        else:
            params[name] = Tensor(np.zeros(params[name].shape + (1,)), requires_grad=True)
        with pytest.raises(ShapeError, match=name):
            Model(cfg, params)


class TestTraining:
    def test_deterministic_same_seed(self):
        cfg = tiny_cfg(epochs=2)
        r1 = train(cfg)
        r2 = train(cfg)
        assert r1.step_losses == r2.step_losses
        assert r1.log_lines == r2.log_lines
        for name, p in r1.model.params.items():
            np.testing.assert_array_equal(p.data, r2.model.params[name].data)

    def test_loss_decreases_on_easy_overfit(self):
        cfg = tiny_cfg(epochs=10, lr=3e-3, weight_decay=0.0, test_per_class=0)
        synth = SynthConfig(train_per_class=2, test_per_class=0,
                            train_subjects=2, test_subjects=1, snr_db=(15.0, 20.0))
        manifest, clips = build_synth(synth, cfg.seed)
        result = train(cfg, manifest=manifest, clips=clips)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_epoch_records_and_log_grammar(self, tmp_path):
        cfg = tiny_cfg(epochs=2)
        log_path = tmp_path / "m.jsonl"
        result = train(cfg, log_path=str(log_path))
        lines = log_path.read_text().strip().split("\n")
        header = json.loads(lines[0])
        assert header["type"] == "header" and header["config"]["no_aff"] is False
        epochs = [json.loads(line) for line in lines[1:]]
        assert [e["epoch"] for e in epochs] == [0, 1]
        for e in epochs:
            assert set(e) == {"type", "epoch", "train_loss", "se", "sp", "score"}
        assert len(result.history) == 2

    def test_non_finite_loss_aborts_with_step_diagnostic(self, monkeypatch):
        real_model = Model

        def poisoned(cfg, params=None, rng=None):
            model = real_model(cfg, params=params, rng=rng)
            model.params["patch.w"].data[...] = 1e308
            return model

        monkeypatch.setattr(train_mod, "Model", poisoned)
        with pytest.raises(TrainingError, match="epoch 0 step 0"):
            train(tiny_cfg())

    def test_zero_epochs_equals_initialization(self):
        cfg = tiny_cfg(epochs=0)
        result = train(cfg)
        fresh = Model(cfg, rng=seed_stream(cfg.seed, "init"))
        for name, p in result.model.params.items():
            np.testing.assert_array_equal(p.data, fresh.params[name].data)
        assert result.history == []


#: trains the default model in a fresh interpreter and prints the last
#: epoch's loss and a hash of every parameter's bytes
_TRAIN_AND_HASH = """
import hashlib, json
from respden.config import RunConfig, validate_config
from respden.train import train
result = train(validate_config(RunConfig(seed=3, epochs=2, train_per_class=4, test_per_class=2)))
digest = hashlib.sha256()
for name, p in sorted(result.model.params.items()):
    digest.update(name.encode())
    digest.update(p.data.tobytes())
print(json.dumps([repr(result.history[-1].train_loss), digest.hexdigest()]))
"""


class TestThreadInvariance:
    def test_same_seed_same_bits_at_one_and_two_blas_threads(self, run_with_blas_threads):
        one, two = (run_with_blas_threads(_TRAIN_AND_HASH, t) for t in (1, 2))
        assert one == two


class TestEvaluate:
    def test_order_invariance(self, tiny_data):
        model = Model(tiny_cfg(), rng=seed_stream(1, "init"))
        model.params["head.cls.w"].data[...] = \
            np.random.default_rng(5).standard_normal((32, 4)) * 0.2
        idx = tiny_data.train_idx + tiny_data.test_idx
        a = evaluate_indices(model, tiny_data, idx)
        b = evaluate_indices(model, tiny_data, idx[::-1])
        np.testing.assert_array_equal(a.confusion, b.confusion)
        assert (a.se, a.sp, a.score) == (b.se, b.sp, b.score)

    def test_empty_split_rejected(self, tiny_data):
        model = Model(tiny_cfg())
        with pytest.raises(UndefinedMetricError):
            evaluate_indices(model, tiny_data, [])

    def test_split_selection(self, tiny_data):
        model = Model(tiny_cfg())
        report = evaluate_split(model, tiny_data, "test")
        assert report.confusion.sum() == len(tiny_data.test_idx)
