"""Model assembly and the training loop: determinism, ablations, logging."""

import json
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import respden.train  # noqa: F401  (module object; the package exports a same-named function)
from respden.config import RunConfig, validate_config

train_mod = sys.modules["respden.train"]
from respden.datasets import SynthConfig, build_synth
from respden.errors import NumericError, ShapeError, TrainingError, UndefinedMetricError
from respden.metrics import compute_metrics, confusion_matrix
from respden.model import Model, seed_stream
from respden.tensor import Tensor, no_grad
from respden.train import (
    EVAL_CHUNK, _batch_loss, evaluate_indices, evaluate_split, header_line, prepare_data, train,
)

from oracles import summed_batch_loss


def tiny_cfg(**kw):
    base = dict(
        dim=32, heads=4, layers=1, mask_hidden=4, epochs=2, batch=4,
        dataset="synth", train_per_class=2, test_per_class=1,
        train_subjects=2, test_subjects=1, seed=7,
    )
    base.update(kw)
    return validate_config(RunConfig(**base))


def log_text(cfg, records) -> str:
    """The metrics log a run of `cfg` writes when it has finished `records`."""
    return "".join(line + "\n" for line in [header_line(cfg)] + [r.to_json() for r in records])


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
        from respden.tensor import no_grad

        z = m_off.logits(spec)
        z = z - z.max()
        want = np.log(np.exp(z).sum()) - z[1]
        with no_grad():
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
        assert log_text(cfg, r1.history) == log_text(cfg, r2.history)
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

    def test_aborted_run_keeps_its_header_and_finished_epochs(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(epochs=3)
        whole = tmp_path / "whole.jsonl"
        result = train(cfg, log_path=str(whole))
        assert whole.read_text() == log_text(cfg, result.history)
        evaluate, calls = train_mod.evaluate_indices, []

        def fails_in_epoch_2(*args):
            calls.append(args)
            if len(calls) == 3:
                raise NumericError("injected")
            return evaluate(*args)

        monkeypatch.setattr(train_mod, "evaluate_indices", fails_in_epoch_2)
        aborted = tmp_path / "aborted.jsonl"
        with pytest.raises(TrainingError, match="epoch 2"):
            train(cfg, log_path=str(aborted))
        assert aborted.read_text() == log_text(cfg, result.history[:2])

    def test_non_finite_loss_aborts_with_step_diagnostic(self, monkeypatch):
        real_model = Model

        def poisoned(cfg, params=None, rng=None):
            model = real_model(cfg, params=params, rng=rng)
            model.params["patch.w"].data[...] = 1e308
            return model

        monkeypatch.setattr(train_mod, "Model", poisoned)
        with np.errstate(over="ignore"), pytest.raises(TrainingError, match="epoch 0 step 0"):
            train(tiny_cfg())

    @pytest.mark.parametrize("variant", [{}, {"no_aff": True}], ids=["full", "no_aff"])
    def test_trained_model_holds_no_gradients(self, variant):
        model = train(tiny_cfg(epochs=1, **variant)).model
        assert all(p.grad is None for p in model.params.values())
        model.zero_grads()  # a caller that trains on gets fresh zero buffers
        for name, p in model.trainable().items():
            assert p.grad.shape == p.shape and not p.grad.any(), name

    def test_zero_epochs_equals_initialization(self):
        cfg = tiny_cfg(epochs=0)
        result = train(cfg)
        fresh = Model(cfg, rng=seed_stream(cfg.seed, "init"))
        for name, p in result.model.params.items():
            np.testing.assert_array_equal(p.data, fresh.params[name].data)
        assert result.history == []


def random_heads_model(cfg):
    """A seeded model whose heads are not zero, so every parameter gets a gradient."""
    model = Model(cfg, rng=seed_stream(cfg.seed, "init"))
    rng = np.random.default_rng(11)
    for name in ("head.phi.w", "head.cls.w"):
        model.params[name].data[...] = rng.standard_normal(model.params[name].shape) * 0.01
    return model


def summed_step(model, data, batch):
    """One step through the summed-batch oracle: its loss value, backward done."""
    loss = summed_batch_loss(model, data, batch)
    loss.backward()
    return loss.item()


class TestStreamedBatch:
    """Each sample's graph is backpropagated before the next forward; the
    step loss and every gradient keep the bits of the one summed graph."""

    @pytest.mark.parametrize("variant", [{}, {"no_ddl": True}, {"no_aff": True}],
                             ids=["full", "no_ddl", "no_aff"])
    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_step_is_bit_equal_to_summed_graph(self, tiny_data, size, variant):
        model = random_heads_model(tiny_cfg(**variant))
        batch = tiny_data.train_idx[:size]
        assert len(batch) == size
        model.zero_grads()
        got = _batch_loss(model, tiny_data, batch)
        got_grads = {n: p.grad.copy() for n, p in model.trainable().items()}
        model.zero_grads()
        want = summed_step(model, tiny_data, batch)
        assert got == want
        for name, p in model.trainable().items():
            assert np.array_equal(got_grads[name], p.grad), name
        # every gradient the variant does not bypass is nonzero
        assert all(np.any(g) for name, g in got_grads.items()
                   if not (variant.get("no_aff") and name.startswith("aff.")))
        assert ("block0.lam" in got_grads) is not variant.get("no_ddl", False)

    def test_training_run_is_bit_equal_to_summed_graph(self, monkeypatch):
        # 8 training clips in batches of 3: the last batch of each epoch is ragged
        cfg = tiny_cfg(batch=3, epochs=2)
        streamed = train(cfg)
        monkeypatch.setattr(train_mod, "_batch_loss", summed_step)
        summed = train(cfg)
        assert len(streamed.step_losses) == 6
        assert streamed.step_losses == summed.step_losses
        for name, p in streamed.model.params.items():
            assert p.data.tobytes() == summed.model.params[name].data.tobytes(), name

    def test_step_memory_does_not_grow_with_batch_size(self, tiny_data):
        model = Model(tiny_cfg(dim=16))  # 1 layer, mask_hidden 4
        _batch_loss(model, tiny_data, tiny_data.train_idx[:1])  # fill any lazy caches

        def peak(batch):
            model.zero_grads()
            tracemalloc.start()
            try:
                _batch_loss(model, tiny_data, batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, eight = peak(tiny_data.train_idx[:1]), peak(tiny_data.train_idx[:8])
        assert eight <= 1.25 * one, (one, eight)

    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_step_builds_twelve_nodes_per_sample(self, tiny_data, size, monkeypatch):
        # at the default depth of 4 blocks: filter, patch embed, two sublayer
        # nodes per block, final layer norm, heads + loss; 1/B is the seed
        model = random_heads_model(tiny_cfg(layers=4))
        made = Counter()
        from_op = Tensor._from_op

        def counted(data, parents, backward_fn, what):
            made[what] += 1
            return from_op(data, parents, backward_fn, what)

        monkeypatch.setattr(Tensor, "_from_op", staticmethod(counted))
        _batch_loss(model, tiny_data, tiny_data.train_idx[:size])
        assert sum(made.values()) == 12 * size, made


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


#: the smallest model: one block of one head, 8 wide, one hidden mask unit
MINIMAL_DIMS = dict(dim=8, heads=1, layers=1, mask_hidden=1)
VARIANTS = {"full": {}, "no_aff": {"no_aff": True}, "no_ddl": {"no_ddl": True}}


def perturbed_model(cfg):
    """A model whose every trainable parameter is moved off its initial value."""
    model = Model(cfg, rng=seed_stream(cfg.seed, "init"))
    rng = np.random.default_rng(19)
    for p in model.trainable().values():
        p.data += rng.standard_normal(p.shape) * 0.01 * (1.0 + np.abs(p.data))
    return model


class TestChunkedEvaluation:
    """`evaluate_indices` scores EVAL_CHUNK clips per no-grad forward over their stack."""

    @pytest.mark.parametrize("dims", [{}, MINIMAL_DIMS], ids=["default_dims", "minimal_dims"])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_stacked_logits_equal_per_clip_logits(self, tiny_data, variant, dims):
        model = perturbed_model(validate_config(RunConfig(seed=7, **dims, **VARIANTS[variant])))
        clips = tiny_data.features[:EVAL_CHUNK + 2]  # a ragged last chunk
        want = np.stack([model.logits(x) for x in clips])
        got = np.concatenate([model.logits(np.stack(clips[lo:lo + EVAL_CHUNK]))
                              for lo in range(0, len(clips), EVAL_CHUNK)])
        assert np.array_equal(got, want)
        assert len(np.unique(want.round(6), axis=0)) == len(clips)  # the clips are told apart

    def test_confusion_is_per_clip_and_predict_runs_once_per_chunk(self, tiny_data, monkeypatch):
        model = perturbed_model(tiny_cfg())
        idx = tiny_data.train_idx + tiny_data.test_idx[:-1]
        assert len(idx) % EVAL_CHUNK
        want = confusion_matrix([tiny_data.labels[i] for i in idx],
                                [model.predict(tiny_data.features[i]) for i in idx])
        calls = []
        predict = Model.predict

        def counted(self, spec):
            calls.append(spec.shape)
            return predict(self, spec)

        monkeypatch.setattr(Model, "predict", counted)
        report = evaluate_indices(model, tiny_data, idx)
        np.testing.assert_array_equal(report.confusion, want)
        ref = compute_metrics(want)
        assert (report.se, report.sp, report.score) == (ref.se, ref.sp, ref.score)
        assert len(calls) == -(-len(idx) // EVAL_CHUNK)
        assert [shape[0] for shape in calls] == [EVAL_CHUNK] * (len(idx) // EVAL_CHUNK) + \
            [len(idx) % EVAL_CHUNK]

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_stack_under_grad_raises_shape_error(self, tiny_data, variant):
        model = Model(tiny_cfg(**VARIANTS[variant]))
        stack = np.stack(tiny_data.features[:2])
        with pytest.raises(ShapeError, match="no_grad"):
            model.features(stack)
        with pytest.raises(ShapeError, match="no_grad"):
            model.sample_loss(stack, 0)
        with no_grad():
            assert model.features(stack).shape == (2, 64, model.cfg.dim)

    def test_chunk_memory(self, tiny_data):
        # measured 4.2 MB at a chunk of 4 clips (5.0 MB when the mask MLP built one
        # row table for the whole chunk instead of one clip's at a time)
        model = Model(validate_config(RunConfig()))
        idx = list(range(8))
        evaluate_indices(model, tiny_data, idx)  # fill any lazy caches
        tracemalloc.start()
        try:
            evaluate_indices(model, tiny_data, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.75 * 2**20, peak
