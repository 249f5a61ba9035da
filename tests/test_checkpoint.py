"""Checkpoint container: bitwise roundtrips and distinct corruption errors."""

import numpy as np
import pytest

from respden.checkpoint import (
    Checkpoint,
    adam_from_checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from respden.config import RunConfig, validate_config
from respden.errors import BadMagicError, CheckpointError, ShapeError, TruncatedError, VersionError
from respden.model import Model
from respden.optim import AdamState


def small_cfg(**kw):
    base = dict(dim=32, heads=4, layers=1, mask_hidden=4, epochs=1)
    base.update(kw)
    return validate_config(RunConfig(**base))


@pytest.fixture
def saved(tmp_path):
    model = Model(small_cfg())
    adam = AdamState()
    adam.ensure(model.trainable())
    adam.step = 17
    for k in adam.m:
        adam.m[k] += 0.25
    path = tmp_path / "ck.bin"
    save_checkpoint(checkpoint_from_model(model, epoch=3, adam=adam), str(path))
    return model, adam, str(path)


class TestRoundtrip:
    def test_every_tensor_bitwise_equal(self, saved):
        model, adam, path = saved
        ckpt = load_checkpoint(path)
        assert set(ckpt.params) == set(model.params)
        for name, p in model.params.items():
            np.testing.assert_array_equal(ckpt.params[name], p.data)
        assert ckpt.epoch == 3 and ckpt.adam_step == 17
        state = adam_from_checkpoint(ckpt)
        for name in adam.m:
            np.testing.assert_array_equal(state.m[name], adam.m[name])
            np.testing.assert_array_equal(state.v[name], adam.v[name])

    def test_file_bytes_deterministic(self, saved, tmp_path):
        model, adam, path = saved
        other = tmp_path / "ck2.bin"
        save_checkpoint(checkpoint_from_model(model, epoch=3, adam=adam), str(other))
        assert other.read_bytes() == open(path, "rb").read()

    def test_model_rebuilt_from_checkpoint(self, saved):
        model, _, path = saved
        rebuilt = model_from_checkpoint(load_checkpoint(path))
        assert rebuilt.cfg.dim == model.cfg.dim
        for name, p in model.params.items():
            np.testing.assert_array_equal(rebuilt.params[name].data, p.data)

    def test_checkpoint_without_adam_state(self, tmp_path):
        model = Model(small_cfg())
        path = tmp_path / "bare.bin"
        save_checkpoint(checkpoint_from_model(model, epoch=0), str(path))
        ckpt = load_checkpoint(str(path))
        assert ckpt.adam_step is None and adam_from_checkpoint(ckpt) is None


class TestCorruption:
    def test_bad_magic(self, saved, tmp_path):
        _, _, path = saved
        raw = bytearray(open(path, "rb").read())
        raw[:4] = b"NOPE"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw)
        with pytest.raises(BadMagicError, match="bad magic"):
            load_checkpoint(str(bad))

    def test_version_mismatch(self, saved, tmp_path):
        _, _, path = saved
        raw = bytearray(open(path, "rb").read())
        raw[4:8] = (99).to_bytes(4, "little")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw)
        with pytest.raises(VersionError):
            load_checkpoint(str(bad))

    def test_truncated_block(self, saved, tmp_path):
        _, _, path = saved
        raw = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw[: len(raw) - 37])
        with pytest.raises(TruncatedError):
            load_checkpoint(str(bad))

    def test_trailing_garbage(self, saved, tmp_path):
        _, _, path = saved
        bad = tmp_path / "bad.bin"
        bad.write_bytes(open(path, "rb").read() + b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(str(bad))

    def test_errors_are_distinct_types(self):
        assert BadMagicError is not VersionError is not TruncatedError
        for exc in (BadMagicError, VersionError, TruncatedError):
            assert issubclass(exc, CheckpointError)


class TestBinding:
    def test_dim_mismatch_names_first_offending_tensor(self, tmp_path):
        # dim-96 tensors stored under a dim-32 config
        big = Model(small_cfg(dim=96, heads=4))
        path = tmp_path / "big.bin"
        save_checkpoint(checkpoint_from_model(big, epoch=0), str(path))
        ckpt = load_checkpoint(str(path))
        ckpt.config = small_cfg(dim=32).snapshot()
        with pytest.raises(ShapeError, match="patch.w"):
            model_from_checkpoint(ckpt)

    def test_missing_parameter(self, saved):
        _, _, path = saved
        ckpt = load_checkpoint(path)
        del ckpt.params["pos"]
        with pytest.raises(CheckpointError, match="pos"):
            model_from_checkpoint(ckpt)

    def test_unknown_parameter(self, saved):
        _, _, path = saved
        ckpt = load_checkpoint(path)
        ckpt.params["rogue"] = np.zeros(3)
        with pytest.raises(CheckpointError, match="rogue"):
            model_from_checkpoint(ckpt)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter(self, saved, value):
        _, _, path = saved
        ckpt = load_checkpoint(path)
        ckpt.params["block0.lam"][0] = value
        with pytest.raises(CheckpointError, match="block0.lam"):
            model_from_checkpoint(ckpt)
