"""Byte sizes of an index container's sections, read from outside.

Walks the layout ``save_index`` documents: a 4-byte magic, then a
length-prefixed JSON header and one length-prefixed section per name the
header lists (4-byte big-endian lengths), then a CRC-32 of everything
before it. Only that documented layout is used, no engine helper.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

MAGIC = b"HRIX"


class ContainerError(ValueError):
    pass


def section_sizes(path: str | Path) -> dict[str, int]:
    """Bytes per part: ``header`` (magic, header, CRC), ``inverted``, ``forward``, ``vectors``.

    Every length prefix is charged to the part it introduces, so the
    parts sum to the file size.
    """
    blob = Path(path).read_bytes()
    if blob[: len(MAGIC)] != MAGIC:
        raise ContainerError(f"{path}: bad magic")
    if zlib.crc32(blob[:-4]) != int.from_bytes(blob[-4:], "big"):
        raise ContainerError(f"{path}: CRC mismatch")
    offset = len(MAGIC)

    def take() -> bytes:
        nonlocal offset
        length = int.from_bytes(blob[offset : offset + 4], "big")
        start = offset + 4
        offset = start + length
        if offset > len(blob) - 4:
            raise ContainerError(f"{path}: section overruns file")
        return blob[start:offset]

    header = take()
    sizes = {"header": len(MAGIC) + 4 + len(header) + 4, "inverted": 0, "forward": 0, "vectors": 0}
    for name in json.loads(header)["sections"]:
        part = name.split(":", 1)[0]
        if part not in sizes or part == "header":
            raise ContainerError(f"{path}: unknown section {name!r}")
        sizes[part] += 4 + len(take())
    if offset != len(blob) - 4:
        raise ContainerError(f"{path}: {len(blob) - 4 - offset} trailing bytes before the CRC")
    return sizes
