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

Parameters are stored under their model names; Adam moments, when present,
under ``adam.m:<name>`` / ``adam.v:<name>``. Roundtrips are bitwise. The writer
fills ``<path>.tmp`` and renames it over the target, so a save that fails
part-way leaves the previous file intact.

The reader checks every declared length against the bytes left in the
file before reading, so a damaged file allocates no more than its size,
and every malformed field raises a `CheckpointError`.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, validate_config
from .errors import (
    BadMagicError, CheckpointError, ShapeError, TruncatedError, UsageError, VersionError,
)
from .model import Model, param_shapes
from .optim import AdamState
from .tensor import Tensor

MAGIC = b"ADDN"
VERSION = 1


@dataclass
class Checkpoint:
    config: dict
    epoch: int
    params: dict[str, np.ndarray]
    adam_step: int | None = None
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)

    def run_config(self) -> RunConfig:
        """The stored config, validated; a stored config that is not valid is a corrupt file."""
        try:
            return validate_config(RunConfig(**self.config))
        except (TypeError, UsageError) as exc:
            raise CheckpointError(f"checkpoint holds an invalid config: {exc}") from exc


def checkpoint_from_model(model: Model, epoch: int, adam: AdamState | None = None) -> Checkpoint:
    params = {name: p.data.copy() for name, p in model.params.items()}
    if adam is None:
        return Checkpoint(model.cfg.snapshot(), epoch, params)
    return Checkpoint(
        model.cfg.snapshot(), epoch, params,
        adam_step=adam.step,
        adam_m={k: v.copy() for k, v in adam.m.items()},
        adam_v={k: v.copy() for k, v in adam.v.items()},
    )


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
    blocks: list[tuple[str, np.ndarray]] = list(ckpt.params.items())
    if ckpt.adam_step is not None:
        blocks += [(f"adam.m:{k}", v) for k, v in ckpt.adam_m.items()]
        blocks += [(f"adam.v:{k}", v) for k, v in ckpt.adam_v.items()]
    tmp = f"{path}.tmp"  # same directory, so the rename cannot cross file systems
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            fh.write(struct.pack("<I", len(blocks)))
            for name, arr in blocks:
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
        adam_m: dict[str, np.ndarray] = {}
        adam_v: dict[str, np.ndarray] = {}
        for _ in range(nblocks):
            raw_name = _read_exact(fh, size, _read_u32(fh, size, "name length"), "block name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"checkpoint block name is not UTF-8: {raw_name!r}") from exc
            ndim = _read_u32(fh, size, f"ndim of '{name}'")
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, size, 4 * ndim, f"shape of '{name}'"))
            count = math.prod(shape)  # a Python int: cannot overflow
            raw = _read_exact(fh, size, 8 * count, f"data of '{name}'")
            try:
                arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            except ValueError as exc:  # too many dimensions, or a zero among huge extents
                raise CheckpointError(f"checkpoint block '{name}' has an unusable shape: {exc}") from exc
            if name.startswith("adam.m:"):
                adam_m[name[len("adam.m:"):]] = arr
            elif name.startswith("adam.v:"):
                adam_v[name[len("adam.v:"):]] = arr
            else:
                params[name] = arr
        if fh.read(1):
            raise CheckpointError("trailing bytes after the declared blocks")
    config, epoch, adam_step = header.get("config", {}), header.get("epoch", 0), header.get("adam_step")
    if not (isinstance(config, dict) and type(epoch) is int
            and (adam_step is None or type(adam_step) is int)):
        raise CheckpointError("checkpoint header needs an object config, an int epoch "
                              "and an int or null adam_step")
    return Checkpoint(config, epoch, params, adam_step, adam_m, adam_v)


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    """Rebuild a model from the stored config and the stored parameters.

    The stored tensors become the model's parameters directly; no fresh
    initialisation is drawn first.
    """
    cfg = ckpt.run_config()
    stored = _stored_params(param_shapes(cfg), ckpt)
    return Model(cfg, {name: Tensor(arr, requires_grad=True) for name, arr in stored.items()})


def _stored_params(shapes: dict[str, tuple[int, ...]], ckpt: Checkpoint) -> dict[str, np.ndarray]:
    """Float64 copies of exactly the checkpoint tensors named in `shapes`, all finite."""
    for name, shape in shapes.items():
        if name not in ckpt.params:
            raise CheckpointError(f"checkpoint is missing parameter '{name}'")
        stored = ckpt.params[name]
        if stored.shape != shape:
            raise ShapeError(
                f"checkpoint tensor '{name}' has shape {stored.shape}, model expects {shape}"
            )
        if not np.isfinite(stored).all():
            raise CheckpointError(f"checkpoint tensor '{name}' holds non-finite values")
    extra = set(ckpt.params) - set(shapes)
    if extra:
        raise CheckpointError(f"checkpoint has unknown parameters: {sorted(extra)}")
    return {name: ckpt.params[name].astype(np.float64) for name in shapes}


def adam_from_checkpoint(ckpt: Checkpoint) -> AdamState | None:
    if ckpt.adam_step is None:
        return None
    return AdamState(step=int(ckpt.adam_step),
                     m={k: v.copy() for k, v in ckpt.adam_m.items()},
                     v={k: v.copy() for k, v in ckpt.adam_v.items()})
