"""Checkpoint container: bitwise roundtrips and distinct corruption errors."""

import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import respden.checkpoint as checkpoint_module
from respden.checkpoint import (
    Checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from respden.cli import main
from respden.config import RunConfig
from respden.errors import (
    BadMagicError, CheckpointError, NumericError, ShapeError, TruncatedError, VersionError,
)
from respden.model import Model
from respden.optim import AdamState

from crafted_checkpoints import MALFORMED, block, container, header


def small_cfg(**kw):
    base = dict(dim=32, heads=4, layers=1, mask_hidden=4, epochs=1)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture
def saved(tmp_path):
    model = Model(small_cfg())
    adam = AdamState(step=17)
    path = tmp_path / "ck.bin"
    save_checkpoint(checkpoint_from_model(model, epoch=3, adam=adam), str(path))
    return model, adam, str(path)


class TestRoundtrip:
    def test_every_tensor_bitwise_equal(self, saved):
        model, _, path = saved
        ckpt = load_checkpoint(path)
        # the file's blocks are the model's parameters, in order, and nothing else
        assert list(ckpt.params) == list(model.params)
        for name, p in model.params.items():
            np.testing.assert_array_equal(ckpt.params[name], p.data)
        assert ckpt.epoch == 3 and ckpt.adam_step == 17

    def test_file_is_header_plus_parameter_blocks(self, saved):
        model, _, path = saved
        raw = Path(path).read_bytes()
        hlen = struct.unpack("<I", raw[8:12])[0]
        blocks = b"".join(block(name, p.data) for name, p in model.params.items())
        assert len(raw) == 12 + hlen + 4 + len(blocks)
        assert raw[12 + hlen:] == struct.pack("<I", len(model.params)) + blocks

    def test_file_bytes_deterministic(self, saved, tmp_path):
        model, adam, path = saved
        other = tmp_path / "ck2.bin"
        save_checkpoint(checkpoint_from_model(model, epoch=3, adam=adam), str(other))
        assert other.read_bytes() == Path(path).read_bytes()

    def test_model_rebuilt_from_checkpoint(self, saved):
        model, _, path = saved
        rebuilt = model_from_checkpoint(load_checkpoint(path))
        assert rebuilt.cfg.dim == model.cfg.dim
        for name, p in model.params.items():
            np.testing.assert_array_equal(rebuilt.params[name].data, p.data)

    def test_model_takes_the_read_arrays_with_one_scan_each(self, saved, monkeypatch):
        _, _, path = saved
        ckpt = load_checkpoint(path)
        scans = []
        isfinite = np.isfinite

        def counted(x, *args, **kwargs):
            scans.append(x)
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        model = model_from_checkpoint(ckpt)
        for name, arr in ckpt.params.items():
            assert model.params[name].data is arr, name  # read once, never copied
        assert len(scans) == len(ckpt.params)
        assert all(any(x is arr for x in scans) for arr in ckpt.params.values())

    def test_checkpoint_without_adam_state(self, tmp_path):
        model = Model(small_cfg())
        path = tmp_path / "bare.bin"
        save_checkpoint(checkpoint_from_model(model, epoch=0), str(path))
        ckpt = load_checkpoint(str(path))
        assert ckpt.adam_step is None


class TestAtomicSave:
    def test_failed_save_keeps_previous_file(self, saved, monkeypatch):
        model, _, path = saved
        before = Path(path).read_bytes()
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
        assert Path(path).read_bytes() == before
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]


class TestCorruption:
    def test_bad_magic(self, saved, tmp_path):
        _, _, path = saved
        raw = bytearray(Path(path).read_bytes())
        raw[:4] = b"NOPE"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw)
        with pytest.raises(BadMagicError, match="bad magic"):
            load_checkpoint(str(bad))

    def test_version_mismatch(self, saved, tmp_path):
        _, _, path = saved
        raw = bytearray(Path(path).read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw)
        with pytest.raises(VersionError):
            load_checkpoint(str(bad))

    def test_truncated_block(self, saved, tmp_path):
        _, _, path = saved
        raw = Path(path).read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw[: len(raw) - 37])
        with pytest.raises(TruncatedError):
            load_checkpoint(str(bad))

    def test_trailing_garbage(self, saved, tmp_path):
        _, _, path = saved
        bad = tmp_path / "bad.bin"
        bad.write_bytes(Path(path).read_bytes() + b"x")
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

    def test_file_with_adam_moments_is_rejected(self, tmp_path, capsys):
        # the earlier format stored both Adam moments after the parameters
        model = Model(small_cfg())
        params = [(name, p.data) for name, p in model.params.items()]
        blocks = params + [(f"adam.{kind}:{name}", np.zeros_like(arr))
                           for kind in "mv" for name, arr in params]
        head = json.dumps({"config": model.cfg.snapshot(), "epoch": 3, "adam_step": 17})
        path = tmp_path / "with-adam.bin"
        path.write_bytes(container(head.encode("utf-8"),
                                   b"".join(block(n, a) for n, a in blocks), len(blocks)))
        assert main(["eval", "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        # one line naming the count and the first few names, not all 2 * len(params)
        assert err.startswith("error:") and f"has {2 * len(params)} unknown parameters" in err
        assert "'adam.m:aff.b1'" in err and len(err) < 300

    def test_errors_are_distinct_types(self):
        assert BadMagicError is not VersionError is not TruncatedError
        for exc in (BadMagicError, VersionError, TruncatedError):
            assert issubclass(exc, CheckpointError)


class TestRetiredBiasLossKey:
    """Files written while `no_bias_loss` was a config field load as the run they hold."""

    @pytest.mark.parametrize("stored, beta", [(True, 0.0), (False, 0.5)])
    def test_stored_flag_loads_as_beta(self, stored, beta, tmp_path):
        path = tmp_path / "old.bin"
        path.write_bytes(container(header({"beta": 0.5, "no_bias_loss": stored})))
        assert load_checkpoint(str(path)).run_config() == RunConfig(beta=beta)

    def test_stored_flag_keeps_the_stored_beta_checked(self, tmp_path):
        path = tmp_path / "old.bin"
        path.write_bytes(container(header({"beta": 2.0, "no_bias_loss": True})))
        with pytest.raises(CheckpointError, match="beta must be in"):
            load_checkpoint(str(path)).run_config()


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
    """A checkpoint of the minimal benchmark model with an Adam step count, and a path for mutants."""
    model = Model(small_cfg(dim=16, heads=2))
    adam = AdamState(step=2)
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
