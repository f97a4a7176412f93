"""Attention block: mask, rotary encoding, forward pass, memory interaction."""

import dataclasses
import inspect

import numpy as np
import pytest

import hippomem.attention as attention_mod
from hippomem import (
    AttentionConfig,
    AttentionWeights,
    BlockIO,
    MemoryState,
    SamplingKind,
    SamplingStrategy,
    Scheme,
    build_bank,
    build_operator,
    build_reconstruction_bank,
    forward_block,
    retrieve,
    zero_state,
)
from hippomem.attention import (
    MASK_NEG,
    BlockResult,
    apply_rotary,
    build_trapezoidal_mask,
    init_weights,
)
from hippomem.rng import derive, normals

UNIFORM = SamplingStrategy(SamplingKind.UNIFORM)


def make_config(**overrides):
    params = dict(
        model_dim=32, head_count=2, head_dim=16, block_length=8, mem_length=4,
        hippo_order=16, scheme=Scheme.ZOH, strategy=UNIFORM,
    )
    params.update(overrides)
    return AttentionConfig(**params)


def make_banks(cfg, max_blocks=4):
    op = build_operator(cfg.hippo_order)
    kernel = build_bank(op, cfg.block_length, cfg.scheme, max_blocks)
    recon = None
    if cfg.mem_length > 0:
        recon = build_reconstruction_bank(
            op, cfg.strategy, cfg.mem_length, cfg.block_length, max_blocks)
    return kernel, recon


def fresh_io(cfg, hidden, block_index=1, key_state=None, value_state=None):
    return BlockIO(
        hidden=hidden,
        key_state=key_state or zero_state(cfg.hippo_order, cfg.model_dim),
        value_state=value_state or zero_state(cfg.hippo_order, cfg.model_dim),
        block_index=block_index,
    )


def reference_causal_attention(hidden, weights, cfg):
    """Plain multi-head causal attention, written independently of the module."""
    length = hidden.shape[0]
    q = hidden @ weights.w_query
    k = hidden @ weights.w_key
    v = hidden @ weights.w_value
    out = np.zeros_like(hidden)
    for h in range(cfg.head_count):
        sl = slice(h * cfg.head_dim, (h + 1) * cfg.head_dim)
        qh = apply_rotary(q[:, sl], 0)
        kh = apply_rotary(k[:, sl], 0)
        scores = qh @ kh.T / np.sqrt(cfg.head_dim)
        for p in range(length):
            row = scores[p, :p + 1]
            e = np.exp(row - row.max())
            out[p, sl] = (e / e.sum()) @ v[:p + 1, sl]
    return out @ weights.w_output


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(model_dim=33)
    with pytest.raises(ValueError):
        make_config(head_dim=15, model_dim=30)  # odd head_dim
    with pytest.raises(ValueError):
        make_config(mem_length=-1)
    make_config(mem_length=0)  # retrieval disabled is legal


def test_config_takes_a_scheme_name():
    cfg = make_config(scheme="ZOH")
    assert cfg.scheme is Scheme.ZOH and cfg == make_config()
    with pytest.raises(ValueError, match="unknown scheme 'euler'"):
        make_config(scheme="euler")


def test_config_rejects_a_strategy_name():
    # forward_block used to fail on it later, with an AttributeError
    with pytest.raises(TypeError, match="strategy must be a SamplingStrategy, got 'uniform'"):
        make_config(strategy="uniform")


def test_block_result_fields():
    assert [f.name for f in dataclasses.fields(BlockResult)] == [
        "output", "key_state", "value_state", "probabilities", "memory_keys"]


def test_mask_plain_causal():
    mask = build_trapezoidal_mask(2, 0)
    np.testing.assert_array_equal(mask, [[0.0, MASK_NEG], [0.0, 0.0]])


def test_mask_memory_columns_fully_visible():
    mask = build_trapezoidal_mask(2, 3)
    np.testing.assert_array_equal(
        mask, [[0.0, 0.0, 0.0, 0.0, MASK_NEG], [0.0, 0.0, 0.0, 0.0, 0.0]])


def test_mask_single_query_sees_everything():
    for mem in (0, 1, 5):
        np.testing.assert_array_equal(build_trapezoidal_mask(1, mem),
                                      np.zeros((1, mem + 1)))


def test_rotary_identity_at_position_zero():
    mat = normals(derive(3, 0), 6 * 8).reshape(6, 8)
    np.testing.assert_array_equal(apply_rotary(mat, 0)[0], mat[0])


def test_rotary_preserves_pair_norms():
    mat = normals(derive(3, 1), 5 * 8).reshape(5, 8)
    rotated = apply_rotary(mat, 1234)
    for i in range(0, 8, 2):
        orig = np.hypot(mat[:, i], mat[:, i + 1])
        new = np.hypot(rotated[:, i], rotated[:, i + 1])
        np.testing.assert_allclose(new, orig, atol=1e-12)


def test_rotary_base_is_the_config_constant():
    assert list(inspect.signature(apply_rotary).parameters) == ["mat", "start_position"]
    # the second pair of D = 4 turns by rope_base ** (-1/2) per position
    rotated = apply_rotary(np.array([[0.0, 0.0, 1.0, 0.0]]), 1)
    angle = AttentionConfig.rope_base ** -0.5
    np.testing.assert_array_equal(rotated[0, 2:], [np.cos(angle), np.sin(angle)])


def test_rotary_two_dims_is_one_radian_per_position():
    # oracle: explicit 2x2 rotation matrix at angle 1
    vec = np.array([[0.8, -0.6]])
    rotated = apply_rotary(vec, 1)
    c, s = np.cos(1.0), np.sin(1.0)
    expected = np.array([[0.8 * c - (-0.6) * s, 0.8 * s + (-0.6) * c]])
    np.testing.assert_allclose(rotated, expected, atol=1e-15)


def test_rotary_rejects_odd_dimension():
    with pytest.raises(ValueError):
        apply_rotary(np.zeros((2, 3)), 0)
    with pytest.raises(ValueError):
        apply_rotary(np.zeros((4, 2, 3)), 0)


def test_rotary_over_heads_equals_per_head_calls():
    # (L, H*D) -> (H, L, D) head-major view, as forward_block passes it
    heads = normals(derive(3, 2), 6 * 4 * 8).reshape(6, 4, 8).transpose(1, 0, 2)
    rotated = apply_rotary(heads, 37)
    assert rotated.flags.c_contiguous
    np.testing.assert_array_equal(
        rotated, np.stack([apply_rotary(part, 37) for part in heads]))


def test_first_block_equals_reference_causal_attention():
    cfg = make_config()
    weights = init_weights(cfg, seed=9)
    hidden = normals(derive(9, 5), cfg.block_length * cfg.model_dim).reshape(
        cfg.block_length, cfg.model_dim)
    kernel, recon = make_banks(cfg)
    res = forward_block(fresh_io(cfg, hidden), weights, cfg, kernel, recon)
    np.testing.assert_allclose(
        res.output, reference_causal_attention(hidden, weights, cfg), atol=1e-12)


def test_mem_length_zero_reduces_to_causal_attention_every_block():
    cfg = make_config(mem_length=0)
    weights = init_weights(cfg, seed=2)
    kernel, recon = make_banks(cfg)
    key_state = zero_state(cfg.hippo_order, cfg.model_dim)
    value_state = zero_state(cfg.hippo_order, cfg.model_dim)
    for i in (1, 2, 3):
        hidden = normals(derive(2, i), cfg.block_length * cfg.model_dim).reshape(
            cfg.block_length, cfg.model_dim)
        io = fresh_io(cfg, hidden, i, key_state, value_state)
        res = forward_block(io, weights, cfg, kernel, recon)
        # reference ignores absolute position; compare per-block with start offset
        ref_weights = weights
        ref_cfg = cfg
        q = hidden @ ref_weights.w_query
        k = hidden @ ref_weights.w_key
        v = hidden @ ref_weights.w_value
        out = np.zeros_like(hidden)
        start = (i - 1) * cfg.block_length
        for h in range(ref_cfg.head_count):
            sl = slice(h * ref_cfg.head_dim, (h + 1) * ref_cfg.head_dim)
            qh = apply_rotary(q[:, sl], start)
            kh = apply_rotary(k[:, sl], start)
            scores = qh @ kh.T / np.sqrt(ref_cfg.head_dim)
            for p in range(cfg.block_length):
                row = scores[p, :p + 1]
                e = np.exp(row - row.max())
                out[p, sl] = (e / e.sum()) @ v[:p + 1, sl]
        np.testing.assert_allclose(res.output, out @ ref_weights.w_output, atol=1e-12)
        key_state, value_state = res.key_state, res.value_state


def test_single_token_block_outputs_value_row():
    cfg = make_config(block_length=1, mem_length=0)
    weights = init_weights(cfg, seed=4)
    hidden = normals(derive(4, 0), cfg.model_dim).reshape(1, cfg.model_dim)
    kernel, recon = make_banks(cfg)
    res = forward_block(fresh_io(cfg, hidden), weights, cfg, kernel, recon)
    np.testing.assert_allclose(
        res.output, hidden @ weights.w_value @ weights.w_output, atol=1e-12)


def test_probabilities_normalized_and_causal():
    cfg = make_config()
    weights = init_weights(cfg, seed=6)
    kernel, recon = make_banks(cfg)
    key_state = zero_state(cfg.hippo_order, cfg.model_dim)
    value_state = zero_state(cfg.hippo_order, cfg.model_dim)
    for i in (1, 2):
        hidden = normals(derive(6, i), cfg.block_length * cfg.model_dim).reshape(
            cfg.block_length, cfg.model_dim)
        res = forward_block(fresh_io(cfg, hidden, i, key_state, value_state),
                            weights, cfg, kernel, recon)
        probs = res.probabilities
        assert np.abs(probs.sum(axis=2) - 1.0).max() < 1e-12
        mem_rows = probs.shape[2] - cfg.block_length
        for p in range(cfg.block_length):
            for q in range(p + 1, cfg.block_length):
                assert (probs[:, p, mem_rows + q] == 0.0).all()
        if i == 2:
            assert mem_rows == cfg.mem_length
            assert probs[:, :, :mem_rows].sum() > 0.0
        key_state, value_state = res.key_state, res.value_state


def test_memory_is_fed_raw_keys(monkeypatch):
    # log every block_update input; the K channel must be the pre-rotary keys
    cfg = make_config()
    weights = init_weights(cfg, seed=8)
    kernel, recon = make_banks(cfg)
    hidden = normals(derive(8, 1), cfg.block_length * cfg.model_dim).reshape(
        cfg.block_length, cfg.model_dim)
    logged = []
    real = attention_mod.block_update

    def spy(state, inputs, bank):
        logged.append(np.array(inputs))
        return real(state, inputs, bank)

    monkeypatch.setattr(attention_mod, "block_update", spy)
    forward_block(fresh_io(cfg, hidden), weights, cfg, kernel, recon)
    assert len(logged) == 2
    np.testing.assert_array_equal(logged[0], hidden @ weights.w_key)
    np.testing.assert_array_equal(logged[1], hidden @ weights.w_value)
    rotated = np.concatenate([
        apply_rotary((hidden @ weights.w_key)[:, sl * cfg.head_dim:(sl + 1) * cfg.head_dim], 0)
        for sl in range(cfg.head_count)], axis=1)
    assert np.abs(logged[0] - rotated).max() > 0.0  # rotary really does change keys


@pytest.mark.parametrize("mem_length, block_index", [(0, 1), (0, 2), (4, 1)])
def test_no_memory_rows_is_plain_attention_to_the_bit(mem_length, block_index):
    # the scores and probs @ V of current rows alone, as computed before an
    # empty memory was concatenated in front of them
    cfg = make_config(mem_length=mem_length)
    weights = init_weights(cfg, seed=77)
    kernel, recon = make_banks(cfg)
    hidden = normals(derive(77, 1), cfg.block_length * cfg.model_dim).reshape(
        cfg.block_length, cfg.model_dim)
    state = MemoryState(np.zeros((cfg.hippo_order, cfg.model_dim)), block_index - 1)
    res = forward_block(fresh_io(cfg, hidden, block_index, state, state),
                        weights, cfg, kernel, recon)

    h, dh, start = cfg.head_count, cfg.head_dim, (block_index - 1) * cfg.block_length
    q = apply_rotary(attention_mod._heads(hidden @ weights.w_query, h, dh), start)
    k = apply_rotary(attention_mod._heads(hidden @ weights.w_key, h, dh), start)
    v = attention_mod._heads(hidden @ weights.w_value, h, dh)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dh) + build_trapezoidal_mask(
        cfg.block_length, 0)[None]
    probs = attention_mod._softmax_rows(scores)
    output = (probs @ v).transpose(1, 0, 2).reshape(hidden.shape) @ weights.w_output
    np.testing.assert_array_equal(res.probabilities, probs)
    np.testing.assert_array_equal(res.output, output)
    assert res.memory_keys.shape == (0, cfg.model_dim)


def test_memory_rows_are_out_of_place_attention_to_the_bit():
    # forward_block scales, masks and normalises its scores in place; every
    # value must keep the bits of the same arithmetic on fresh arrays.
    # sqrt(12) is not a power of two, so a scaling by its reciprocal would show
    cfg = make_config(model_dim=36, head_count=3, head_dim=12)
    weights = init_weights(cfg, seed=78)
    kernel, recon = make_banks(cfg)
    h, dh = cfg.head_count, cfg.head_dim
    key_state = value_state = zero_state(cfg.hippo_order, cfg.model_dim)
    for block_index in (1, 2, 3, 4):
        hidden = normals(derive(78, block_index), cfg.block_length * cfg.model_dim).reshape(
            cfg.block_length, cfg.model_dim)
        res = forward_block(fresh_io(cfg, hidden, block_index, key_state, value_state),
                            weights, cfg, kernel, recon)
        if block_index == 1:
            key_state, value_state = res.key_state, res.value_state
            continue
        start = (block_index - 1) * cfg.block_length
        k_mem, v_mem = retrieve(key_state, recon), retrieve(value_state, recon)
        q = apply_rotary(attention_mod._heads(hidden @ weights.w_query, h, dh), start)
        k = np.concatenate([attention_mod._heads(k_mem, h, dh), apply_rotary(
            attention_mod._heads(hidden @ weights.w_key, h, dh), start)], axis=1)
        v = np.concatenate([attention_mod._heads(v_mem, h, dh),
                            attention_mod._heads(hidden @ weights.w_value, h, dh)], axis=1)
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(dh) + build_trapezoidal_mask(
            cfg.block_length, cfg.mem_length)[None]
        ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = ex / ex.sum(axis=-1, keepdims=True)
        output = (probs @ v).transpose(1, 0, 2).reshape(hidden.shape) @ weights.w_output
        np.testing.assert_array_equal(res.probabilities, probs)
        np.testing.assert_array_equal(res.output, output)
        np.testing.assert_array_equal(res.memory_keys, k_mem)
        for state, inputs, got in ((key_state, hidden @ weights.w_key, res.key_state),
                                   (value_state, hidden @ weights.w_value, res.value_state)):
            want = (kernel.transitions[block_index - 1] @ state.coefficients
                    + kernel.kernels[block_index - 1] @ inputs)
            np.testing.assert_array_equal(got.coefficients, want)
        key_state, value_state = res.key_state, res.value_state


def direct_rotary(mat, start):
    """apply_rotary's formula on fresh arrays, with no table kept."""
    length, dim = mat.shape[-2:]
    freqs = AttentionConfig.rope_base ** (-np.arange(0, dim, 2, dtype=float) / dim)
    angles = (start + np.arange(length, dtype=float))[:, None] * freqs[None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    out = np.empty(mat.shape)
    out[..., 0::2] = mat[..., 0::2] * cos - mat[..., 1::2] * sin
    out[..., 1::2] = mat[..., 0::2] * sin + mat[..., 1::2] * cos
    return out


def test_rotary_table_from_the_cache_is_the_direct_formula():
    # 8128 is the last block start of 128 blocks of 64, where angles reach 8191 rad
    q, k = normals(derive(79, 1), 2 * 4 * 64 * 64).reshape(2, 4, 64, 64)
    table = attention_mod._rotary_table
    table.cache_clear()
    np.testing.assert_array_equal(apply_rotary(q, 8128), direct_rotary(q, 8128))
    np.testing.assert_array_equal(apply_rotary(k, 8128), direct_rotary(k, 8128))
    assert (table.cache_info().misses, table.cache_info().hits) == (1, 1)
    np.testing.assert_array_equal(apply_rotary(k, 8192), direct_rotary(k, 8192))
    assert (table.cache_info().misses, table.cache_info().hits) == (2, 1)
    # the key holds the length and the dimension as well as the start
    for part in (k[:, :63], k[..., :62]):
        np.testing.assert_array_equal(apply_rotary(part, 8192), direct_rotary(part, 8192))
    assert table.cache_info().misses == 4
    cos, sin = table(8192, 64, 62)
    assert not cos.flags.writeable and not sin.flags.writeable
    # the result is the caller's own; writing to it leaves the table as it was
    apply_rotary(k, 8192)[:] = 0.0
    np.testing.assert_array_equal(apply_rotary(k, 8192), direct_rotary(k, 8192))


def test_mask_sizes_are_checked_before_the_cache():
    # lru_cache takes True for 1 and 3.0 for 3, so these must raise first
    build_trapezoidal_mask(1, 2)
    build_trapezoidal_mask(3, 2)
    for bad in ((True, 2), (3.0, 2), (3, True), (1, 2.0)):
        with pytest.raises(TypeError, match="must be an integer"):
            build_trapezoidal_mask(*bad)
    with pytest.raises(ValueError, match="block_length must be >= 1"):
        build_trapezoidal_mask(0, 2)


def test_mask_is_shared_and_read_only():
    mask = build_trapezoidal_mask(4, 3)
    assert build_trapezoidal_mask(4, 3) is mask
    assert build_trapezoidal_mask(np.int64(4), np.int64(3)) is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 0] = 1.0
    np.testing.assert_array_equal(mask[:, :3], 0.0)


def test_forward_is_deterministic():
    cfg = make_config()
    weights = init_weights(cfg, seed=11)
    kernel, recon = make_banks(cfg)
    hidden = normals(derive(11, 1), cfg.block_length * cfg.model_dim).reshape(
        cfg.block_length, cfg.model_dim)
    res1 = forward_block(fresh_io(cfg, hidden), weights, cfg, kernel, recon)
    res2 = forward_block(fresh_io(cfg, hidden), weights, cfg, kernel, recon)
    np.testing.assert_array_equal(res1.output, res2.output)
    np.testing.assert_array_equal(res1.key_state.coefficients,
                                  res2.key_state.coefficients)
    np.testing.assert_array_equal(res1.value_state.coefficients,
                                  res2.value_state.coefficients)


def permute_heads(weights, cfg, perm):
    """Swap head channel groups: projection output columns plus w_output rows."""
    def permute_cols(mat):
        blocks = [mat[:, h * cfg.head_dim:(h + 1) * cfg.head_dim] for h in perm]
        return np.concatenate(blocks, axis=1)

    def permute_rows(mat):
        blocks = [mat[h * cfg.head_dim:(h + 1) * cfg.head_dim, :] for h in perm]
        return np.concatenate(blocks, axis=0)

    return AttentionWeights(
        w_query=permute_cols(weights.w_query),
        w_key=permute_cols(weights.w_key),
        w_value=permute_cols(weights.w_value),
        w_output=permute_rows(weights.w_output),
    )


def test_heads_are_isolated_under_permutation():
    cfg = make_config()
    perm = [1, 0]
    weights = init_weights(cfg, seed=13)
    swapped = permute_heads(weights, cfg, perm)
    kernel, recon = make_banks(cfg)
    key_state = zero_state(cfg.hippo_order, cfg.model_dim)
    value_state = zero_state(cfg.hippo_order, cfg.model_dim)
    key_state_p = zero_state(cfg.hippo_order, cfg.model_dim)
    value_state_p = zero_state(cfg.hippo_order, cfg.model_dim)
    col_perm = np.concatenate([
        np.arange(h * cfg.head_dim, (h + 1) * cfg.head_dim) for h in perm])
    for i in (1, 2):
        hidden = normals(derive(13, i), cfg.block_length * cfg.model_dim).reshape(
            cfg.block_length, cfg.model_dim)
        res = forward_block(fresh_io(cfg, hidden, i, key_state, value_state),
                            weights, cfg, kernel, recon)
        res_p = forward_block(fresh_io(cfg, hidden, i, key_state_p, value_state_p),
                              swapped, cfg, kernel, recon)
        # consistent permutation leaves the output identical ...
        np.testing.assert_allclose(res_p.output, res.output, atol=1e-12)
        # ... permutes per-head probabilities ...
        np.testing.assert_allclose(res_p.probabilities, res.probabilities[perm],
                                   atol=1e-12)
        # ... and permutes the per-head state channel groups identically
        np.testing.assert_allclose(res_p.key_state.coefficients,
                                   res.key_state.coefficients[:, col_perm], atol=1e-12)
        key_state, value_state = res.key_state, res.value_state
        key_state_p, value_state_p = res_p.key_state, res_p.value_state


def test_block_io_requires_consistent_states():
    cfg = make_config()
    with pytest.raises(ValueError):
        BlockIO(
            hidden=np.zeros((cfg.block_length, cfg.model_dim)),
            key_state=zero_state(cfg.hippo_order, cfg.model_dim),
            value_state=zero_state(cfg.hippo_order, cfg.model_dim),
            block_index=2,
        )


def test_forward_rejects_bad_hidden_shape():
    cfg = make_config()
    weights = init_weights(cfg, seed=1)
    kernel, recon = make_banks(cfg)
    with pytest.raises(ValueError):
        forward_block(fresh_io(cfg, np.zeros((3, cfg.model_dim))), weights, cfg,
                      kernel, recon)


def test_forward_rejects_banks_the_config_does_not_name():
    # the banks decide what is computed, so a config naming other ones must raise
    cfg = make_config()
    weights = init_weights(cfg, seed=1)
    kernel, recon = make_banks(cfg)
    io = fresh_io(cfg, np.zeros((cfg.block_length, cfg.model_dim)))
    bilinear, _ = make_banks(make_config(scheme=Scheme.BILINEAR))
    with pytest.raises(ValueError, match="scheme 'bilinear' != config scheme 'zoh'"):
        forward_block(io, weights, cfg, bilinear, recon)
    exp95, exp90 = (SamplingStrategy(SamplingKind.EXPONENTIAL, a) for a in (0.95, 0.9))
    _, recon95 = make_banks(make_config(strategy=exp95))
    with pytest.raises(ValueError, match="'exponential0.95' != config strategy 'uniform'"):
        forward_block(io, weights, cfg, kernel, recon95)
    cfg90 = make_config(strategy=exp90)
    with pytest.raises(ValueError, match="'exponential0.95' != config strategy 'exponential0.9'"):
        forward_block(io, weights, cfg90, kernel, recon95)
    # N=8 banks and states under a config that names N=16
    kernel8, recon8 = make_banks(make_config(hippo_order=8))
    io8 = BlockIO(io.hidden, zero_state(8, cfg.model_dim), zero_state(8, cfg.model_dim), 1)
    with pytest.raises(ValueError, match="kernel bank order 8 != config hippo_order 16"):
        forward_block(io8, weights, cfg, kernel8, recon8)
    kernel4, _ = make_banks(make_config(block_length=4))
    with pytest.raises(ValueError, match="kernel bank block_length 4 != config block_length 8"):
        forward_block(io, weights, cfg, kernel4, recon)
    _, recon2 = make_banks(make_config(mem_length=2))
    with pytest.raises(ValueError, match="reconstruction bank mem_length 2 != config mem_length 4"):
        forward_block(io, weights, cfg, kernel, recon2)
    # with retrieval off there is no reconstruction bank to check
    off = make_config(mem_length=0)
    forward_block(fresh_io(off, io.hidden), weights, off, kernel, None)
