"""Binary cache files for precomputed banks.

Both bank kinds share one little-endian layout so repeated CLI invocations
skip the N^3-scale precomputation:

    magic      4 bytes  b"EMKB" (kernel bank) or b"EMRB" (reconstruction bank)
    version    u32
    order      u32      N
    block_len  u32      L
    tag        u32      scheme tag (EMKB) or strategy tag (EMRB)
    max_blocks u32
    mem_length u32      0 for EMKB
    decay      f64      0.0 for EMKB; the strategy's decay for EMRB
    checksum   u32      crc32 of the fields above, then the payload
    payload    row-major f64 arrays in index order
               EMKB: each P_i's row panels, as `BlockKernelBank.panels`
                     holds them (W floats per block, 9216 at N = 128),
                     then all K_i
               EMRB: the one reconstruction matrix R, which every
                     history length shares

A corrupt or mismatched file is rebuilt, never trusted. The checksum covers
the header fields too, so a damaged field reads as a CacheError. Bump
`version` whenever the layout or the output bits of any bank builder change,
so that files written by older code are rebuilt rather than read (version 9:
ZOH transitions by the Legendre dilation recurrence; version 10: P_i as row
panels, so a 256-block N = 128 ZOH file holds 35.7 MB, not 50.3 MB). A
writer streams each array's own buffer into the file and its checksum, and
a read bank's arrays are read-only views into the file's bytes, so neither
copies the payload; the 40-byte header keeps it 8-byte aligned.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib

import numpy as np

from .block_kernel import BlockKernelBank, _panel_width, build_bank
from .discretization import Scheme
from .operators import HippoOperator
from .reconstruction import (
    ReconstructionBank,
    SamplingKind,
    SamplingStrategy,
    _require_strategy,
    build_reconstruction_bank,
)

__all__ = [
    "CacheError",
    "write_kernel_bank",
    "read_kernel_bank",
    "write_reconstruction_bank",
    "read_reconstruction_bank",
    "load_or_build_kernel_bank",
    "load_or_build_reconstruction_bank",
]

_MAGIC_KERNEL = b"EMKB"
_MAGIC_RECON = b"EMRB"
_VERSION = 10
_FIELDS = struct.Struct("<4sIIIIIId")
_CHECKSUM = struct.Struct("<I")

_SCHEME_TAGS = {
    Scheme.ZOH: 0,
    Scheme.FORWARD_EULER: 1,
    Scheme.BACKWARD_EULER: 2,
    Scheme.BILINEAR: 3,
}
_SCHEME_FROM_TAG = {v: k for k, v in _SCHEME_TAGS.items()}
_STRATEGY_TAGS = {SamplingKind.UNIFORM: 0, SamplingKind.EXPONENTIAL: 1}
_STRATEGY_FROM_TAG = {v: k for k, v in _STRATEGY_TAGS.items()}


class CacheError(ValueError):
    """Cache file is missing, corrupt, or describes different parameters."""


def _write(path: str, magic: bytes, order: int, block_length: int, tag: int,
           max_blocks: int, mem_length: int, decay: float,
           payload_arrays: list[np.ndarray]) -> int:
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in payload_arrays]
    fields = _FIELDS.pack(magic, _VERSION, order, block_length, tag,
                          max_blocks, mem_length, decay)
    checksum = zlib.crc32(fields)
    for arr in arrays:
        checksum = zlib.crc32(arr, checksum)
    # a private temp file per writer, so concurrent builders of one bank
    # never replace each other's half-written file
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(fields + _CHECKSUM.pack(checksum))
            for arr in arrays:
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return len(fields) + _CHECKSUM.size + sum(arr.nbytes for arr in arrays)


def _read(path: str, magic: bytes) -> tuple[tuple, np.ndarray]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    start = _FIELDS.size + _CHECKSUM.size
    if len(data) < start:
        raise CacheError(f"cache file {path} truncated")
    fields = _FIELDS.unpack_from(data)
    if fields[0] != magic:
        raise CacheError(f"cache file {path} has wrong magic {fields[0]!r}")
    if fields[1] != _VERSION:
        raise CacheError(f"cache file {path} has unsupported version {fields[1]}")
    (checksum,) = _CHECKSUM.unpack_from(data, _FIELDS.size)
    if zlib.crc32(memoryview(data)[start:], zlib.crc32(data[:_FIELDS.size])) != checksum:
        raise CacheError(f"cache file {path} failed its checksum")
    return fields, np.frombuffer(data, dtype="<f8", offset=start)


def _from_header(path: str, build):
    """build(), with a ValueError or TypeError from values that an intact
    file cannot hold (a decay of 1.5, a transition entry above the diagonal)
    a CacheError: it is rebuilt."""
    try:
        return build()
    except (ValueError, TypeError) as exc:
        raise CacheError(f"cache file {path} holds invalid values: {exc}") from exc


def write_kernel_bank(path: str, bank: BlockKernelBank) -> int:
    """Serialize a kernel bank; returns bytes written."""
    return _write(path, _MAGIC_KERNEL, bank.order, bank.block_length,
                  _SCHEME_TAGS[bank.scheme], bank.max_blocks, 0, 0.0,
                  [bank.panels, bank.kernels])


def read_kernel_bank(path: str) -> BlockKernelBank:
    fields, flat = _read(path, _MAGIC_KERNEL)
    _, _, order, block_length, tag, max_blocks, _, _ = fields
    if tag not in _SCHEME_FROM_TAG:
        raise CacheError(f"cache file {path} has unknown scheme tag {tag}")
    width = _panel_width(order)
    n_trans = max_blocks * width
    n_kern = max_blocks * order * block_length
    if flat.size != n_trans + n_kern:
        raise CacheError(f"cache file {path} payload size mismatch")
    return _from_header(path, lambda: BlockKernelBank(
        scheme=_SCHEME_FROM_TAG[tag],
        panels=flat[:n_trans].reshape(max_blocks, width),
        kernels=flat[n_trans:].reshape(max_blocks, order, block_length),
    ))


def write_reconstruction_bank(path: str, bank: ReconstructionBank) -> int:
    """Serialize a reconstruction bank; returns bytes written."""
    return _write(path, _MAGIC_RECON, bank.order, bank.block_length,
                  _STRATEGY_TAGS[bank.strategy.kind], bank.max_blocks,
                  bank.mem_length, bank.strategy.decay, [bank.matrices[0]])


def read_reconstruction_bank(path: str) -> ReconstructionBank:
    fields, flat = _read(path, _MAGIC_RECON)
    _, _, order, block_length, tag, max_blocks, mem_length, decay = fields
    if tag not in _STRATEGY_FROM_TAG:
        raise CacheError(f"cache file {path} has unknown strategy tag {tag}")
    if flat.size != mem_length * order:
        raise CacheError(f"cache file {path} payload size mismatch")
    return _from_header(path, lambda: ReconstructionBank(
        block_length=block_length,
        strategy=SamplingStrategy(_STRATEGY_FROM_TAG[tag], decay),
        matrices=np.broadcast_to(flat.reshape(mem_length, order),
                                 (max_blocks, mem_length, order)),
    ))


def _load_or_build(path: str, read, write, build, **expected):
    """(bank, path, cache_hit): the bank in path if it reads and has the
    expected attribute values, else a fresh build, written to path; an
    OSError from that write carries the built bank as `exc.bank`. Callers
    pass read_* and write_* as looked up at their own call time, so wrappers
    patched over those module attributes see every file access."""
    if os.path.exists(path):
        try:
            bank = read(path)
            if all(getattr(bank, name) == value for name, value in expected.items()):
                return bank, path, True
        except CacheError:
            pass
    bank = build()
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write(path, bank)
    except OSError as exc:
        exc.bank = bank
        raise
    return bank, path, False


def load_or_build_kernel_bank(
    cache_dir: str, op: HippoOperator, block_length: int, scheme: Scheme,
    max_blocks: int,
) -> tuple[BlockKernelBank, str, bool]:
    """Return (bank, path, cache_hit); rebuilds and rewrites on any mismatch."""
    scheme = Scheme(scheme)
    name = f"kernel_N{op.order}_L{block_length}_{scheme.value}_B{max_blocks}.emkb"
    return _load_or_build(
        os.path.join(cache_dir, name),
        read_kernel_bank, write_kernel_bank,
        lambda: build_bank(op, block_length, scheme, max_blocks),
        order=op.order, block_length=block_length, scheme=scheme, max_blocks=max_blocks)


def load_or_build_reconstruction_bank(
    cache_dir: str, op: HippoOperator, strategy: SamplingStrategy,
    mem_length: int, block_length: int, max_blocks: int,
) -> tuple[ReconstructionBank, str, bool]:
    """Return (bank, path, cache_hit); rebuilds and rewrites on any mismatch."""
    _require_strategy(strategy)
    name = (f"recon_N{op.order}_L{block_length}_{strategy.label()}"
            f"_M{mem_length}_B{max_blocks}.emrb")
    return _load_or_build(
        os.path.join(cache_dir, name),
        read_reconstruction_bank, write_reconstruction_bank,
        lambda: build_reconstruction_bank(op, strategy, mem_length, block_length, max_blocks),
        order=op.order, block_length=block_length, strategy=strategy,
        mem_length=mem_length, max_blocks=max_blocks)
