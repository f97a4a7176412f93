"""Memory-augmented attention block forward pass (toy scale, no training).

Per block: project Q/K/V, rotate Q/K by absolute position, reconstruct a
fixed-length history summary from the key/value memory states, attend over
[memory rows, current rows] under a trapezoidal mask, then fold the block's
raw keys and values into the states for the next block.

Two deliberate asymmetries, both load-bearing:
  * memory rows receive no rotary encoding (their position is intrinsic to
    the reconstruction), while current rows do;
  * the keys compressed into memory are the pre-rotary projections, since
    compression operates on the underlying signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from . import rng
from .block_kernel import BlockKernelBank, block_update
from .discretization import MemoryState, Scheme
from .operators import _as_index, _freeze
from .reconstruction import ReconstructionBank, SamplingStrategy, _require_strategy, retrieve

__all__ = [
    "AttentionConfig",
    "AttentionWeights",
    "BlockIO",
    "BlockResult",
    "MASK_NEG",
    "init_weights",
    "build_trapezoidal_mask",
    "apply_rotary",
    "forward_block",
]

# Large negative sentinel standing in for -inf in additive masks; keeps the
# softmax arithmetic finite.
MASK_NEG = -1e30


@dataclass(frozen=True)
class AttentionConfig:
    model_dim: int
    head_count: int
    head_dim: int
    block_length: int
    mem_length: int
    hippo_order: int
    scheme: Scheme
    strategy: SamplingStrategy
    rope_base: ClassVar[float] = 10000.0   # rotary frequency base; not a field

    def __post_init__(self) -> None:
        # mem_length 0 turns retrieval off, leaving plain causal attention
        minimums = dict(model_dim=1, head_count=1, head_dim=1, block_length=1,
                        mem_length=0, hippo_order=1)
        for name, minimum in minimums.items():
            object.__setattr__(self, name, _as_index(name, getattr(self, name), minimum))
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        _require_strategy(self.strategy)
        if self.model_dim != self.head_count * self.head_dim:
            raise ValueError(
                f"model_dim {self.model_dim} != head_count {self.head_count} "
                f"* head_dim {self.head_dim}"
            )
        if self.head_dim % 2:
            raise ValueError("head_dim must be even for rotary encoding")


@dataclass(frozen=True)
class AttentionWeights:
    """Dense projection matrices, each model_dim x model_dim."""

    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    w_output: np.ndarray


def init_weights(cfg: AttentionConfig, seed: int) -> AttentionWeights:
    """Seeded scaled-normal projections (std 1/sqrt(model_dim)); no training here."""
    d = cfg.model_dim
    scale = 1.0 / np.sqrt(d)
    mats = [
        scale * rng.normals(rng.derive(seed, tag), d * d).reshape(d, d)
        for tag in range(4)
    ]
    return AttentionWeights(*mats)


@dataclass(frozen=True)
class BlockIO:
    """Inputs to one block step: hidden rows plus the per-channel memory states.

    Key and value states must agree and equal block_index - 1 blocks absorbed.
    Channels are laid out head-major: channel h * head_dim + d belongs to
    head h.
    """

    hidden: np.ndarray          # (L, model_dim)
    key_state: MemoryState      # raw-key memory, (N, model_dim)
    value_state: MemoryState    # value memory, (N, model_dim)
    block_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_index", _as_index("block_index", self.block_index))
        expected = self.block_index - 1
        if (self.key_state.blocks_absorbed != expected
                or self.value_state.blocks_absorbed != expected):
            raise ValueError(
                f"states must have absorbed {expected} blocks, got "
                f"{self.key_state.blocks_absorbed}/{self.value_state.blocks_absorbed}"
            )


@dataclass(frozen=True)
class BlockResult:
    output: np.ndarray          # (L, model_dim)
    key_state: MemoryState
    value_state: MemoryState
    probabilities: np.ndarray   # (H, L, mem_rows + L)
    memory_keys: np.ndarray     # (mem_rows, model_dim); 0 rows when retrieval off


def build_trapezoidal_mask(block_length: int, mem_length: int) -> np.ndarray:
    """Additive mask of shape (L, mem_length + L).

    Memory columns are visible to every query; in-block columns are causal
    (column position <= query position). The result is read-only and shared:
    every call with the same sizes returns the same array.
    """
    # validate before the cache, which takes True for 1 and 3.0 for 3
    return _trapezoidal_mask(_as_index("block_length", block_length),
                             _as_index("mem_length", mem_length, minimum=0))


@lru_cache(maxsize=2)  # forward_block asks for two: block 1's and every later block's
def _trapezoidal_mask(block_length: int, mem_length: int) -> np.ndarray:
    mask = np.zeros((block_length, mem_length + block_length))
    p = np.arange(block_length)[:, None]
    q = np.arange(block_length)[None, :]
    mask[:, mem_length:] = np.where(q <= p, 0.0, MASK_NEG)
    return _freeze(mask)


@lru_cache(maxsize=2)  # as _trapezoidal_mask
def _visibility(block_length: int, mem_length: int) -> np.ndarray:
    """Read-only 1.0 where the trapezoidal mask is 0 and 0.0 where it is MASK_NEG."""
    return _freeze((_trapezoidal_mask(block_length, mem_length) == 0.0).astype(float))


@lru_cache(maxsize=1)  # forward_block rotates Q, then K, at one start
def _rotary_table(start_position: int, length: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos and sin of the (length, dim / 2) rotary angles."""
    freqs = AttentionConfig.rope_base ** (-np.arange(0, dim, 2, dtype=float) / dim)
    angles = (start_position + np.arange(length, dtype=float))[:, None] * freqs[None, :]
    return _freeze(np.cos(angles)), _freeze(np.sin(angles))


def apply_rotary(mat: np.ndarray, start_position: int) -> np.ndarray:
    """Rotate each (2i, 2i+1) pair of every row by position * base**(-2i/D).

    base is AttentionConfig.rope_base. mat is (..., L, D): rows get absolute
    positions start_position, start_position + 1, ... along the L axis, and
    the angles are computed once and broadcast over any leading (e.g. head)
    axes. Pure rotation, so pairwise norms are preserved. The result is
    C-contiguous. The cos/sin table of the last (start_position, L, D) is
    kept, read-only, so rotating K after Q at one start reuses Q's table.
    """
    mat = np.asarray(mat, dtype=float)
    length, dim = mat.shape[-2:]
    if dim % 2:
        raise ValueError(f"rotary encoding needs an even dimension, got {dim}")
    cos, sin = _rotary_table(start_position, length, dim)
    even, odd = mat[..., 0::2], mat[..., 1::2]
    out = np.empty(mat.shape)
    out_even, out_odd = out[..., 0::2], out[..., 1::2]
    scratch = np.multiply(odd, sin)
    np.multiply(even, cos, out=out_even)
    out_even -= scratch                      # even * cos - odd * sin
    np.multiply(odd, cos, out=scratch)
    np.multiply(even, sin, out=out_odd)
    out_odd += scratch                       # even * sin + odd * cos
    return out


def _softmax_rows(scores: np.ndarray, visibility: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in scores and returned.

    scores already hold the additive mask; visibility is 1.0 where that mask
    is 0 and 0.0 where it is MASK_NEG. Masked entries come out exactly 0, as
    exp(MASK_NEG - max) does, but they are zeroed before exp and again after
    it, because exp takes several times longer on arguments near -1e30 than
    on in-range ones.
    """
    scores -= scores.max(axis=-1, keepdims=True)
    scores *= visibility
    np.exp(scores, out=scores)
    scores *= visibility
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _heads(mat: np.ndarray, head_count: int, head_dim: int) -> np.ndarray:
    """(L, H*D) -> (H, L, D), head-major channel layout."""
    length = mat.shape[0]
    return mat.reshape(length, head_count, head_dim).transpose(1, 0, 2)


def _require_match(what: str, have, config_field: str, want) -> None:
    if have != want:
        raise ValueError(f"{what} {have!r} != config {config_field} {want!r}")


def forward_block(
    io: BlockIO,
    weights: AttentionWeights,
    cfg: AttentionConfig,
    kernel_bank: BlockKernelBank,
    recon_bank: ReconstructionBank | None,
) -> BlockResult:
    """Run one block and return the output plus updated memory states.

    Block 1 sees no memory rows (nothing absorbed yet); with mem_length 0 the
    block is plain causal self-attention. State updates happen after the
    attention read, so a block never attends to its own compression. The
    kernel bank must match cfg's scheme, hippo_order and block_length, and
    the reconstruction bank, if any, cfg's strategy and mem_length.
    """
    hidden = np.asarray(io.hidden, dtype=float)
    ell, h, dh = cfg.block_length, cfg.head_count, cfg.head_dim
    if hidden.shape != (ell, cfg.model_dim):
        raise ValueError(f"hidden shape {hidden.shape} != ({ell}, {cfg.model_dim})")
    # the banks decide what is computed; a config naming other ones is an error
    _require_match("kernel bank scheme", kernel_bank.scheme.value, "scheme", cfg.scheme.value)
    _require_match("kernel bank order", kernel_bank.order, "hippo_order", cfg.hippo_order)
    _require_match("kernel bank block_length", kernel_bank.block_length,
                   "block_length", cfg.block_length)
    if recon_bank is not None:
        _require_match("reconstruction bank strategy", recon_bank.strategy.label(),
                       "strategy", cfg.strategy.label())
        _require_match("reconstruction bank mem_length", recon_bank.mem_length,
                       "mem_length", cfg.mem_length)
    use_memory = cfg.mem_length > 0 and io.block_index > 1
    if use_memory and recon_bank is None:
        raise ValueError("mem_length > 0 and history present, but no reconstruction bank")

    q_raw = hidden @ weights.w_query
    k_raw = hidden @ weights.w_key
    v_curr = hidden @ weights.w_value

    start = (io.block_index - 1) * ell
    q_heads = apply_rotary(_heads(q_raw, h, dh), start)
    k_heads = apply_rotary(_heads(k_raw, h, dh), start)
    v_heads = _heads(v_curr, h, dh)

    if use_memory:
        k_mem = retrieve(io.key_state, recon_bank)      # (L_mem, model_dim), no rotary
        v_mem = retrieve(io.value_state, recon_bank)
    else:
        k_mem = v_mem = np.zeros((0, cfg.model_dim))
    mem_rows = k_mem.shape[0]
    k_aug = np.concatenate([_heads(k_mem, h, dh), k_heads], axis=1)
    v_aug = np.concatenate([_heads(v_mem, h, dh), v_heads], axis=1)

    mask = build_trapezoidal_mask(ell, mem_rows)
    scores = q_heads @ k_aug.transpose(0, 2, 1)
    scores /= np.sqrt(dh)
    scores += mask
    probs = _softmax_rows(scores, _visibility(ell, mem_rows))
    att = probs @ v_aug                                  # (H, L, dh)
    merged = att.transpose(1, 0, 2).reshape(ell, cfg.model_dim)
    output = merged @ weights.w_output

    key_state = block_update(io.key_state, k_raw, kernel_bank)
    value_state = block_update(io.value_state, v_curr, kernel_bank)
    return BlockResult(
        output=output,
        key_state=key_state,
        value_state=value_state,
        probabilities=probs,
        memory_keys=k_mem,
    )
