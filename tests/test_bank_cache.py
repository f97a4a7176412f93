"""Binary bank cache files: roundtrip, checksums, rebuild on damage."""

import math
import os
import struct
import zlib

import numpy as np
import pytest

from hippomem import (
    AttentionConfig,
    BlockIO,
    SamplingKind,
    SamplingStrategy,
    Scheme,
    build_bank,
    build_operator,
    build_reconstruction_bank,
    forward_block,
    zero_state,
)
from hippomem.attention import init_weights
from hippomem.block_kernel import BlockKernelBank
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


@pytest.mark.parametrize("strategy", [None, EXP], ids=["kernel", "recon"])
def test_read_bank_arrays_are_views_of_the_file_bytes(tmp_path, strategy):
    op = build_operator(6)
    if strategy is None:
        bank = build_bank(op, 5, Scheme.ZOH, 3)
        write_kernel_bank(str(tmp_path / "bank"), bank)
        loaded = read_kernel_bank(str(tmp_path / "bank"))
        pairs = [(loaded.transitions, bank.transitions), (loaded.kernels, bank.kernels)]
    else:
        bank = build_reconstruction_bank(op, strategy, 7, 5, 3)
        write_reconstruction_bank(str(tmp_path / "bank"), bank)
        loaded = read_reconstruction_bank(str(tmp_path / "bank"))
        pairs = [(loaded.matrices[0], bank.matrices[0])]
    for arr, built in pairs:
        assert arr.flags.aligned and arr.flags.c_contiguous and not arr.flags.writeable
        np.testing.assert_array_equal(arr, built)
        base = arr
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, bytes)   # no copy of the payload was made


def test_write_is_deterministic(tmp_path):
    op = build_operator(5)
    bank = build_bank(op, 3, Scheme.ZOH, 2)
    p1, p2 = tmp_path / "a.emkb", tmp_path / "b.emkb"
    write_kernel_bank(str(p1), bank)
    write_kernel_bank(str(p2), bank)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_streams_the_layout_from_any_array_order(tmp_path):
    bank = build_bank(build_operator(5), 3, Scheme.BILINEAR, 2)
    fortran = BlockKernelBank(bank.block_length, bank.order, bank.scheme,
                              np.asfortranarray(bank.transitions),
                              np.asfortranarray(bank.kernels))
    assert not fortran.transitions.flags.c_contiguous
    payload = bank.transitions.tobytes() + bank.kernels.tobytes()
    for name, written in (("c", bank), ("f", fortran)):
        path = tmp_path / name
        size = write_kernel_bank(str(path), written)
        data = path.read_bytes()
        assert size == len(data) == _CHECKSUM_AT + 4 + len(payload)
        assert data[_CHECKSUM_AT + 4:] == payload
        (checksum,) = struct.unpack_from("<I", data, _CHECKSUM_AT)
        assert checksum == zlib.crc32(payload, zlib.crc32(data[:_CHECKSUM_AT]))


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
    # re-sealed: the checksum passes, and only building the strategy can object
    pytest.param(EXP, lambda b: _set_header(b, "<d", _DECAY_AT, 1.5), id="resealed-decay-1.5"),
    pytest.param(EXP, lambda b: _set_header(b, "<d", _DECAY_AT, 0.0), id="resealed-decay-0"),
    # P_1[0, 1], the first payload entry above a diagonal: only the bank's
    # lower-triangle check can object
    pytest.param(None, lambda b: _set_header(b, "<d", _CHECKSUM_AT + 4 + 8, 0.5),
                 id="resealed-transition-above-diagonal"),
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


def _set_header(blob, fmt, offset, value):
    """Set one header field (or payload entry) of an intact file's bytes and
    re-seal its checksum."""
    struct.pack_into(fmt, blob, offset, value)
    payload_at = _CHECKSUM_AT + 4
    struct.pack_into("<I", blob, _CHECKSUM_AT,
                     zlib.crc32(blob[payload_at:], zlib.crc32(blob[:_CHECKSUM_AT])))


def _rewrite_header(path, fmt, offset, value):
    """Set one header field of an intact file and re-seal its checksum."""
    blob = bytearray(open(path, "rb").read())
    _set_header(blob, fmt, offset, value)
    with open(path, "wb") as fh:
        fh.write(blob)


def test_older_version_is_rebuilt(tmp_path):
    for strategy in (None, EXP):    # a kernel bank, then a reconstruction bank
        _, path, _ = _load_or_build(tmp_path, strategy)
        for version in (1, 2, 3, 4, 5, 6):
            # an intact file of an older version: only the version check can reject it
            _rewrite_header(path, "<I", _VERSION_AT, version)
            _, _, hit = _load_or_build(tmp_path, strategy)
            assert not hit
            _, _, hit = _load_or_build(tmp_path, strategy)
            assert hit


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.emkb"
    path.write_bytes(b"EMKB\x01")
    with pytest.raises(CacheError):
        read_kernel_bank(str(path))


def test_kernel_cache_takes_a_scheme_name(tmp_path):
    # the name used to raise AttributeError, while build_bank took it
    op = build_operator(4)
    bank, path, hit = load_or_build_kernel_bank(str(tmp_path), op, 4, "ZOH", 2)
    assert bank.scheme is Scheme.ZOH and not hit
    again, again_path, hit = load_or_build_kernel_bank(str(tmp_path), op, 4, Scheme.ZOH, 2)
    assert hit and again_path == path


def test_reconstruction_cache_rejects_a_kind_name(tmp_path):
    with pytest.raises(TypeError, match="strategy must be a SamplingStrategy, got 'uniform'"):
        load_or_build_reconstruction_bank(str(tmp_path), build_operator(4), "uniform", 2, 4, 2)
    assert list(tmp_path.iterdir()) == []


def test_reconstruction_cache_hit_cycle(tmp_path):
    op = build_operator(4)
    bank1, _, hit1 = load_or_build_reconstruction_bank(str(tmp_path), op, EXP, 4, 8, 2)
    bank2, _, hit2 = load_or_build_reconstruction_bank(str(tmp_path), op, EXP, 4, 8, 2)
    assert (hit1, hit2) == (False, True)
    np.testing.assert_array_equal(bank1.matrices, bank2.matrices)
    # different parameters get a different file, not a clash
    _, _, hit3 = load_or_build_reconstruction_bank(str(tmp_path), op, EXP, 5, 8, 2)
    assert not hit3


def test_strategy_identity_decides_equality_cache_hits_and_forward(tmp_path):
    # a uniform strategy ignores its decay: one strategy, one label, one file
    uniform_half = SamplingStrategy(SamplingKind.UNIFORM, 0.5)
    assert uniform_half == UNIFORM and hash(uniform_half) == hash(UNIFORM)
    assert uniform_half.label() == "uniform"
    op = build_operator(4)

    def hits(strategies):
        return [load_or_build_reconstruction_bank(str(tmp_path), op, s, 4, 8, 2)[2]
                for s in strategies]

    assert hits([uniform_half] * 3) == [False, True, True]
    # a uniform file from before decay was stored for UNIFORM (field 0.0) still hits
    path = load_or_build_reconstruction_bank(str(tmp_path), op, UNIFORM, 4, 8, 2)[1]
    _rewrite_header(path, "<d", _DECAY_AT, 0.0)
    assert hits([UNIFORM]) == [True]
    # decays that print alike at 6 digits are two strategies with two files
    near = [SamplingStrategy(SamplingKind.EXPONENTIAL, d) for d in (0.95, 0.9500001)]
    assert near[0] != near[1] and near[0].label() != near[1].label()
    assert hits(near * 2) == [False, False, True, True]
    # forward_block takes a uniform bank built with another decay
    cfg = AttentionConfig(model_dim=4, head_count=1, head_dim=4, block_length=2,
                          mem_length=2, hippo_order=4, scheme=Scheme.ZOH, strategy=UNIFORM)
    kernel = build_bank(op, 2, Scheme.ZOH, 2)
    recon = build_reconstruction_bank(op, uniform_half, 2, 2, 2)
    weights = init_weights(cfg, 0)
    key_state = value_state = zero_state(4, 4)
    for index in (1, 2):    # block 2 reads the memory through the bank
        io = BlockIO(np.ones((2, 4)), key_state, value_state, index)
        res = forward_block(io, weights, cfg, kernel, recon)
        key_state, value_state = res.key_state, res.value_state
    assert res.memory_keys.shape == (2, 4)


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
