"""Hand-built checkpoint files, each malformed in one way the reader must reject.

Every file is a complete container up to its one fault, so the reader gets
as far as that fault and no further.
"""

from __future__ import annotations

import json
import struct

from respden.checkpoint import MAGIC, VERSION


def container(header: bytes, blocks: bytes = b"", nblocks: int = 0) -> bytes:
    return (MAGIC + struct.pack("<II", VERSION, len(header)) + header
            + struct.pack("<I", nblocks) + blocks)


def block_head(name: bytes, extents: list[int]) -> bytes:
    """A block up to, not including, its data."""
    return (struct.pack("<I", len(name)) + name
            + struct.pack(f"<I{len(extents)}I", len(extents), *extents))


def header(config: dict) -> bytes:
    return json.dumps({"config": config, "epoch": 0, "adam_step": None}).encode("utf-8")


#: name -> (the bytes of a container with that one fault, text its error must contain)
MALFORMED = {
    # the element count overflows int64
    "extents_overflow": (container(header({}), block_head(b"pos", [2**32 - 1] * 3), 1),
                         "data of 'pos'"),
    # the element count is 2**64, which wraps to 0 in int64
    "extents_wrap_to_zero": (
        container(header({}), block_head(b"pos", [2**21, 2**21, 2**22]), 1), "data of 'pos'"),
    "block_name_not_utf8": (container(header({}), block_head(b"\xff\xfe", [1]) + bytes(8), 1),
                            "not UTF-8"),
    "header_not_object": (container(b"[1, 2]"), "not an object"),
    # deeper than the JSON decoder recurses
    "header_nested_too_deep": (container(b"[" * 100_000), "unreadable checkpoint header"),
    "unknown_config_key": (container(header({"warp_speed": 9})), "warp_speed"),
    # a key of a run-config field that no longer exists
    "retired_config_key": (container(header({"aff_residual": False})), "aff_residual"),
}
