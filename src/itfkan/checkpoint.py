"""Binary checkpoint format.

Layout (all integers little-endian):

    magic   4 bytes  b"ITFK"
    version u32
    config  u64 byte length, then UTF-8 "key=value" lines (LF separated)
    tensors repeated until EOF:
        u64 name length, name bytes (UTF-8)
        u64 rank, rank * u64 dims
        raw float64 data, row-major

Round-trips are bit-exact; writes go to a temp file and are renamed into
place.
"""

import math
import os
import struct

import numpy as np

MAGIC = b"ITFK"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, config, tensors):
    """config: list of (key, value-str) pairs; tensors: list of (name, array)."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        block = "".join(f"{k}={v}\n" for k, v in config).encode("utf-8")
        fh.write(struct.pack("<Q", len(block)))
        fh.write(block)
        for name, arr in tensors:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes())
    os.replace(tmp, path)


class _Reader:
    """Bounds-checked cursor over a checkpoint's bytes."""

    def __init__(self, path, buf):
        self.path = path
        self.buf = buf
        self.pos = 0

    def take(self, n, what):
        if n > len(self.buf) - self.pos:
            raise CheckpointError(
                f"{self.path}: truncated {what} at byte {self.pos}: need {n} "
                f"bytes, {len(self.buf) - self.pos} left"
            )
        start = self.pos
        self.pos += n
        return start

    def u64(self, what):
        return struct.unpack_from("<Q", self.buf, self.take(8, what))[0]

    def text(self, n, what):
        start = self.take(n, what)
        try:
            return self.buf[start:start + n].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"{self.path}: {what} at byte {start} is not UTF-8"
            ) from None

    def at_end(self):
        return self.pos == len(self.buf)


def load_checkpoint(path):
    """Returns (config dict, ordered dict name -> float64 array).

    Every length is checked against the bytes left: a truncated file, or
    trailing bytes that do not form a whole tensor record, raise
    CheckpointError naming the tensor and the byte offset.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    reader = _Reader(path, buf)
    reader.take(4, "magic")
    (version,) = struct.unpack_from("<I", buf, reader.take(4, "version"))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    block_len = reader.u64("config length")
    config = {}
    for line in reader.text(block_len, "config block").splitlines():
        if not line:
            continue
        key, _, value = line.partition("=")
        config[key] = value
    tensors = {}
    while not reader.at_end():
        record = reader.pos
        name_len = reader.u64(f"tensor name length (record at byte {record})")
        name = reader.text(name_len, f"tensor name (record at byte {record})")
        what = f"tensor {name!r}"
        if not name or name in tensors:
            raise CheckpointError(f"{path}: empty or duplicate {what} at byte {record}")
        rank = reader.u64(f"{what} rank")
        dims = struct.unpack_from(
            f"<{rank}Q", buf, reader.take(8 * rank, f"{what} dims")
        ) if rank else ()
        count = math.prod(dims)
        start = reader.take(8 * count, f"{what} data")
        data = np.frombuffer(buf, dtype="<f8", count=count, offset=start)
        tensors[name] = data.reshape(dims).astype(np.float64)
    return config, tensors
