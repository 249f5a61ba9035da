"""Checkpoint container: bitwise roundtrips and distinct corruption errors."""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import respden.checkpoint as checkpoint_module
from respden.checkpoint import (
    Checkpoint,
    adam_from_checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from respden.config import RunConfig, validate_config
from respden.errors import (
    BadMagicError, CheckpointError, NumericError, ShapeError, TruncatedError, VersionError,
)
from respden.model import Model
from respden.optim import AdamState

from crafted_checkpoints import MALFORMED


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


class TestAtomicSave:
    def test_failed_save_keeps_previous_file(self, saved, monkeypatch):
        model, _, path = saved
        before = open(path, "rb").read()
        write_block = checkpoint_module._write_block
        written = []

        def failing_write_block(fh, name, arr):
            if len(written) == 3:  # fail part-way, after three blocks are on disk
                raise OSError("disk full")
            written.append(name)
            write_block(fh, name, arr)

        monkeypatch.setattr(checkpoint_module, "_write_block", failing_write_block)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(checkpoint_from_model(model, epoch=9), path)
        assert open(path, "rb").read() == before
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]


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

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_malformed_file_is_a_checkpoint_error(self, kind, tmp_path):
        path = tmp_path / "bad.bin"
        raw, names = MALFORMED[kind]
        path.write_bytes(raw)
        expected = TruncatedError if kind.startswith("extents") else CheckpointError
        with pytest.raises(expected, match=re.escape(names)):
            model_from_checkpoint(load_checkpoint(str(path)))

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


@pytest.fixture(scope="module")
def minimal_file(tmp_path_factory):
    """A checkpoint of the minimal benchmark model with Adam state, and a path for mutants."""
    model = Model(small_cfg(dim=16, heads=2))
    adam = AdamState()
    adam.ensure(model.trainable())
    adam.step = 2
    workdir = tmp_path_factory.mktemp("fuzz")
    path = workdir / "ck.bin"
    save_checkpoint(checkpoint_from_model(model, epoch=1, adam=adam), str(path))
    return path.read_bytes(), workdir / "mutant.bin"


def _load_mutant(raw: bytes, path) -> None:
    """Load and bind `raw`; any failure must be one of the typed errors."""
    path.write_bytes(raw)
    try:
        model_from_checkpoint(load_checkpoint(str(path)))
    except (CheckpointError, ShapeError, NumericError):
        pass


class TestFuzz:
    """Damaged containers: the reader succeeds or raises a typed error, never another."""

    # offsets are drawn from the first 4 KiB (header, block heads, first
    # tensors) as often as from the whole file, which is mostly float data
    @staticmethod
    def offsets(size: int):
        return st.one_of(st.integers(0, min(size, 4096) - 1), st.integers(0, size - 1))

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_at_any_offset(self, minimal_file, data):
        raw, path = minimal_file
        _load_mutant(raw[: data.draw(self.offsets(len(raw)))], path)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data(), flip=st.integers(1, 255))
    def test_any_byte_flipped(self, minimal_file, data, flip):
        raw, path = minimal_file
        mutant = bytearray(raw)
        mutant[data.draw(self.offsets(len(raw)))] ^= flip
        _load_mutant(bytes(mutant), path)
