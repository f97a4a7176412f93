"""Binary bank cache files: roundtrip, checksums, rebuild on damage."""

import os

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
    np.testing.assert_array_equal(loaded.matrices, bank.matrices)
    np.testing.assert_array_equal(loaded.points, bank.points)


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


def test_corruption_detected_and_rebuilt(tmp_path):
    op = build_operator(4)
    _, path, hit = load_or_build_kernel_bank(str(tmp_path), op, 3, Scheme.ZOH, 2)
    assert not hit
    _, _, hit = load_or_build_kernel_bank(str(tmp_path), op, 3, Scheme.ZOH, 2)
    assert hit
    # flip one payload byte: checksum must catch it and trigger a rebuild
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(CacheError):
        read_kernel_bank(path)
    bank, _, hit = load_or_build_kernel_bank(str(tmp_path), op, 3, Scheme.ZOH, 2)
    assert not hit
    reference = build_bank(op, 3, Scheme.ZOH, 2)
    np.testing.assert_array_equal(bank.kernels, reference.kernels)
    # the rebuilt file is valid again
    _, _, hit = load_or_build_kernel_bank(str(tmp_path), op, 3, Scheme.ZOH, 2)
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
