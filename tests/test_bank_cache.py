"""Binary bank cache files: roundtrip, checksums, rebuild on damage."""

import math
import os
import struct
import zlib

import numpy as np
import pytest

from hippomem import (
    SamplingKind,
    SamplingStrategy,
    Scheme,
    build_bank,
    build_operator,
    build_reconstruction_bank,
)
from hippomem.bank_cache import (
    CacheError,
    load_or_build_kernel_bank,
    load_or_build_reconstruction_bank,
    read_kernel_bank,
    read_reconstruction_bank,
    write_kernel_bank,
    write_reconstruction_bank,
)

EXP = SamplingStrategy(SamplingKind.EXPONENTIAL, 0.875)
UNIFORM = SamplingStrategy(SamplingKind.UNIFORM)
# byte offsets of header fields (see the bank_cache layout)
_VERSION_AT, _TAG_AT, _DECAY_AT, _CHECKSUM_AT = 4, 16, 28, 36


def test_kernel_bank_roundtrip(tmp_path):
    op = build_operator(6)
    bank = build_bank(op, 5, Scheme.BILINEAR, 3)
    path = tmp_path / "bank.emkb"
    write_kernel_bank(str(path), bank)
    loaded = read_kernel_bank(str(path))
    assert loaded.scheme is Scheme.BILINEAR
    assert (loaded.order, loaded.block_length, loaded.max_blocks) == (6, 5, 3)
    np.testing.assert_array_equal(loaded.transitions, bank.transitions)
    np.testing.assert_array_equal(loaded.kernels, bank.kernels)


def test_reconstruction_bank_roundtrip(tmp_path):
    op = build_operator(4)
    bank = build_reconstruction_bank(op, EXP, 6, 8, 2)
    path = tmp_path / "bank.emrb"
    write_reconstruction_bank(str(path), bank)
    loaded = read_reconstruction_bank(str(path))
    assert loaded.strategy == EXP
    assert (loaded.order, loaded.block_length, loaded.mem_length, loaded.max_blocks) == (
        4, 8, 6, 2)
    np.testing.assert_array_equal(loaded.matrices, bank.matrices)
    # one R serves every history length, on disk as in memory
    assert path.stat().st_size == _CHECKSUM_AT + 4 + 8 * 6 * 4
    assert loaded.matrices.strides[0] == 0 and not loaded.matrices.flags.writeable


def test_write_is_deterministic(tmp_path):
    op = build_operator(5)
    bank = build_bank(op, 3, Scheme.ZOH, 2)
    p1, p2 = tmp_path / "a.emkb", tmp_path / "b.emkb"
    write_kernel_bank(str(p1), bank)
    write_kernel_bank(str(p2), bank)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_mismatch_rejected(tmp_path):
    op = build_operator(4)
    bank = build_bank(op, 3, Scheme.ZOH, 1)
    path = tmp_path / "bank.emkb"
    write_kernel_bank(str(path), bank)
    with pytest.raises(CacheError):
        read_reconstruction_bank(str(path))


def _load_or_build(cache_dir, strategy):
    """(bank arrays, path, hit): a kernel bank, or a reconstruction bank for a strategy."""
    op = build_operator(4)
    if strategy is None:
        bank, path, hit = load_or_build_kernel_bank(str(cache_dir), op, 3, Scheme.ZOH, 2)
        return bank.kernels, path, hit
    bank, path, hit = load_or_build_reconstruction_bank(str(cache_dir), op, strategy, 4, 8, 2)
    return bank.matrices, path, hit


def _flip_last_byte(blob):
    blob[-1] ^= 0xFF


@pytest.mark.parametrize("strategy, damage", [
    pytest.param(None, _flip_last_byte, id="payload"),
    pytest.param(EXP, lambda b: struct.pack_into("<d", b, _DECAY_AT, 1.5), id="decay-1.5"),
    pytest.param(EXP, lambda b: struct.pack_into("<d", b, _DECAY_AT, math.nan), id="decay-nan"),
    pytest.param(UNIFORM, lambda b: struct.pack_into("<I", b, _TAG_AT, 1),
                 id="uniform-tag-to-exponential"),
])
def test_corruption_detected_and_rebuilt(tmp_path, strategy, damage):
    built, path, hit = _load_or_build(tmp_path, strategy)
    assert not hit
    _, _, hit = _load_or_build(tmp_path, strategy)
    assert hit
    # damage one field or byte: the checksum must catch it and trigger a rebuild
    blob = bytearray(open(path, "rb").read())
    damage(blob)
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(CacheError):
        (read_kernel_bank if strategy is None else read_reconstruction_bank)(path)
    rebuilt, _, hit = _load_or_build(tmp_path, strategy)
    assert not hit
    np.testing.assert_array_equal(rebuilt, built)
    # the rebuilt file is valid again
    _, _, hit = _load_or_build(tmp_path, strategy)
    assert hit


def test_older_version_is_rebuilt(tmp_path):
    for strategy in (None, EXP):    # a kernel bank, then a reconstruction bank
        _, path, _ = _load_or_build(tmp_path, strategy)
        for version in (1, 2, 3):
            # an intact file of an older version: only the version check can reject it
            blob = bytearray(open(path, "rb").read())
            struct.pack_into("<I", blob, _VERSION_AT, version)
            payload_at = _CHECKSUM_AT + 4
            struct.pack_into("<I", blob, _CHECKSUM_AT,
                             zlib.crc32(blob[payload_at:], zlib.crc32(blob[:_CHECKSUM_AT])))
            with open(path, "wb") as fh:
                fh.write(blob)
            _, _, hit = _load_or_build(tmp_path, strategy)
            assert not hit
            _, _, hit = _load_or_build(tmp_path, strategy)
            assert hit


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.emkb"
    path.write_bytes(b"EMKB\x01")
    with pytest.raises(CacheError):
        read_kernel_bank(str(path))


def test_reconstruction_cache_hit_cycle(tmp_path):
    op = build_operator(4)
    bank1, _, hit1 = load_or_build_reconstruction_bank(str(tmp_path), op, EXP, 4, 8, 2)
    bank2, _, hit2 = load_or_build_reconstruction_bank(str(tmp_path), op, EXP, 4, 8, 2)
    assert (hit1, hit2) == (False, True)
    np.testing.assert_array_equal(bank1.matrices, bank2.matrices)
    # different parameters get a different file, not a clash
    _, _, hit3 = load_or_build_reconstruction_bank(str(tmp_path), op, EXP, 5, 8, 2)
    assert not hit3


def test_interleaved_writers_of_one_bank_both_succeed(tmp_path, monkeypatch):
    # force A writes, B writes and replaces, then A replaces
    bank = build_bank(build_operator(4), 4, Scheme.ZOH, 2)
    path = str(tmp_path / "bank.emkb")
    real_replace = os.replace

    def other_writer_first(src, dst):
        monkeypatch.setattr(os, "replace", real_replace)
        write_kernel_bank(path, bank)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", other_writer_first)
    write_kernel_bank(path, bank)
    np.testing.assert_array_equal(read_kernel_bank(path).kernels, bank.kernels)
    assert os.listdir(tmp_path) == ["bank.emkb"]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    bank = build_bank(build_operator(4), 4, Scheme.ZOH, 2)

    def refuse(src, dst):
        raise PermissionError(dst)

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        write_kernel_bank(str(tmp_path / "bank.emkb"), bank)
    assert os.listdir(tmp_path) == []
