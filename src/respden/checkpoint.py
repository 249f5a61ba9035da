"""Self-describing binary checkpoint container.

Layout (all integers little-endian):

    magic    4 bytes  b"ADDN"
    version  u32      currently 1
    hlen     u32      header length
    header   hlen bytes of UTF-8 JSON: {"config", "epoch", "adam_step"}
    nblocks  u32
    blocks   nblocks of:
        nlen u32, name (nlen bytes UTF-8)
        ndim u32, extents (ndim x u32)
        data (prod(extents) float64 little-endian)

The blocks are the model's parameters, one each, under their model names;
``adam_step`` counts the optimizer steps taken, or is null for a model that
was never trained. Roundtrips are bitwise. The writer
fills ``<path>.tmp`` and renames it over the target, so a save that fails
part-way leaves the previous file intact.

The reader checks every declared length against the bytes left in the
file before reading, so a damaged file allocates no more than its size,
and every malformed field raises a `CheckpointError`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct

import numpy as np

from .config import RunConfig
from .errors import (
    BadMagicError, CheckpointError, NumericError, TruncatedError, UsageError, VersionError,
)
from .model import Model, param_shapes
from .optim import AdamState
from .tensor import Tensor

MAGIC = b"ADDN"
VERSION = 1


@dataclasses.dataclass
class Checkpoint:
    config: dict
    epoch: int
    params: dict[str, np.ndarray]
    adam_step: int | None = None

    def run_config(self) -> RunConfig:
        """The stored config; one that `RunConfig` rejects marks a corrupt file. An older
        file may store `no_bias_loss`: true loads as beta = 0, the loss its run trained with."""
        no_bias_loss = self.config.get("no_bias_loss", False)
        try:
            if not isinstance(no_bias_loss, bool):
                raise UsageError(f"config key 'no_bias_loss' must be of type bool, got {no_bias_loss!r}")
            cfg = RunConfig(**{k: v for k, v in self.config.items() if k != "no_bias_loss"})
        except (TypeError, UsageError) as exc:
            raise CheckpointError(f"checkpoint holds an invalid config: {exc}") from exc
        return dataclasses.replace(cfg, beta=0.0) if no_bias_loss else cfg


def checkpoint_from_model(model: Model, epoch: int, adam: AdamState | None = None) -> Checkpoint:
    """The model's parameters; of the optimizer state only its step count is kept."""
    params = {name: p.data.copy() for name, p in model.params.items()}
    return Checkpoint(model.cfg.snapshot(), epoch, params, None if adam is None else adam.step)


def _write_block(fh, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    header = json.dumps(
        {"config": ckpt.config, "epoch": ckpt.epoch, "adam_step": ckpt.adam_step},
        sort_keys=True,
    ).encode("utf-8")
    tmp = f"{path}.tmp"  # same directory, so the rename cannot cross file systems
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            fh.write(struct.pack("<I", len(ckpt.params)))
            for name, arr in ckpt.params.items():
                _write_block(fh, name, arr)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_exact(fh, size: int, n: int, what: str) -> bytes:
    """Exactly `n` bytes of a `size`-byte file, or `TruncatedError`.

    The length is checked against the bytes left before anything is read,
    so a corrupt length field cannot ask for more memory than the file holds.
    """
    data = fh.read(n) if n <= size - fh.tell() else b""
    if len(data) != n:
        raise TruncatedError(f"checkpoint truncated while reading {what}")
    return data


def _read_array(fh, size: int, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A float64 block of `shape` read straight into its array, after the
    length check of `_read_exact`."""
    what = f"data of '{name}'"
    n = 8 * math.prod(shape)  # a Python int: cannot overflow
    if n > size - fh.tell():
        raise TruncatedError(f"checkpoint truncated while reading {what}")
    try:
        arr = np.empty(shape, dtype="<f8")
    except ValueError as exc:  # too many dimensions, or a zero among huge extents
        raise CheckpointError(f"checkpoint block '{name}' has an unusable shape: {exc}") from exc
    if fh.readinto(arr) != n:
        raise TruncatedError(f"checkpoint truncated while reading {what}")
    return arr


def _read_u32(fh, size: int, what: str) -> int:
    return struct.unpack("<I", _read_exact(fh, size, 4, what))[0]


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version = _read_u32(fh, size, "version")
        if version != VERSION:
            raise VersionError(f"unsupported checkpoint version {version}, expected {VERSION}")
        hlen = _read_u32(fh, size, "header length")
        try:
            header = json.loads(_read_exact(fh, size, hlen, "header"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"checkpoint header is a JSON {type(header).__name__}, not an object")
        nblocks = _read_u32(fh, size, "block count")
        params: dict[str, np.ndarray] = {}
        for _ in range(nblocks):
            raw_name = _read_exact(fh, size, _read_u32(fh, size, "name length"), "block name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"checkpoint block name is not UTF-8: {raw_name!r}") from exc
            ndim = _read_u32(fh, size, f"ndim of '{name}'")
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, size, 4 * ndim, f"shape of '{name}'"))
            arr = _read_array(fh, size, shape, name)
            if name in params:
                raise CheckpointError(f"checkpoint block '{name}' appears more than once")
            params[name] = arr
        if fh.read(1):
            raise CheckpointError("trailing bytes after the declared blocks")
    config, epoch, adam_step = header.get("config", {}), header.get("epoch", 0), header.get("adam_step")
    if not (isinstance(config, dict) and type(epoch) is int
            and (adam_step is None or type(adam_step) is int)):
        raise CheckpointError("checkpoint header needs an object config, an int epoch "
                              "and an int or null adam_step")
    return Checkpoint(config, epoch, params, adam_step)


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    """Rebuild a model from the stored config and the stored parameters.

    The stored arrays become the model's parameters directly, without a
    copy, so the model and `ckpt` share them; no fresh initialisation is
    drawn first.
    """
    cfg = ckpt.run_config()
    return Model(cfg, _stored_params(param_shapes(cfg), ckpt))


def _stored_params(shapes: dict[str, tuple[int, ...]], ckpt: Checkpoint) -> dict[str, Tensor]:
    """Exactly the checkpoint tensors named in `shapes`, all finite, as trainable Tensors.

    Their shapes are checked by `Model`, which names a misshaped one in a `ShapeError`.
    """
    params: dict[str, Tensor] = {}
    for name in shapes:
        if name not in ckpt.params:
            raise CheckpointError(f"checkpoint is missing parameter '{name}'")
        try:  # the Tensor's own finiteness scan is the only one
            params[name] = Tensor(ckpt.params[name], requires_grad=True)
        except NumericError as exc:
            raise CheckpointError(f"checkpoint tensor '{name}' holds non-finite values") from exc
    extra = sorted(set(ckpt.params) - set(shapes))
    if extra:
        names = ", ".join(map(repr, extra[:3])) + (", ..." if len(extra) > 3 else "")
        raise CheckpointError(f"checkpoint has {len(extra)} unknown parameters: {names}")
    return params
