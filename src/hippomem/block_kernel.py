"""Block-parallel form of the memory recurrence.

Unrolling the per-step recurrence over a block of L inputs gives
C_i = P_i C_{i-1} + K_i F_i, where P_i is the ordered product of the step
matrices in block i and column j of K_i is the product of the step matrices
above position j times that step's input vector. Both depend on the absolute
block position i because the ODE is time-varying, so they are precomputed
once per position and cached in a bank. A is lower triangular, so every P_i
is too, exactly: a bank holds zeros above the diagonal, and `block_update`
skips them.

Block i (1-based) covers steps k = (i-1)L+1 .. iL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import (
    _PANEL_MIN_WORK, _PANEL_ROWS, MemoryState, Scheme, _check_finite, _fill_bank,
)
from .operators import HippoOperator, _as_index, _freeze

__all__ = ["BlockKernelBank", "build_bank", "block_update"]


@dataclass(frozen=True)
class BlockKernelBank:
    """Per-position transition matrices P_i and input kernels K_i.

    transitions[i-1] is the N x N product of step matrices for block i;
    kernels[i-1] is the N x L operator folding block i's inputs into the
    state. Immutable; share freely across concurrent sequence processors.
    Every P_i must be lower triangular, with exact zeros above the diagonal,
    because `block_update` never reads them; a bank with any other entry
    there raises ValueError.
    """

    block_length: int
    order: int
    scheme: Scheme
    transitions: np.ndarray  # (max_blocks, N, N)
    kernels: np.ndarray      # (max_blocks, N, L)

    def __post_init__(self) -> None:
        # one row's strict upper part at a time: a whole-bank mask or triu
        # copy would be as large as the bank (50 MB at N = 128, 256 blocks)
        p = self.transitions
        for row in range(p.shape[1] - 1):
            if p[:, row, row + 1:].any():
                raise ValueError(f"transitions are not lower triangular in row {row}")

    @property
    def max_blocks(self) -> int:
        return self.transitions.shape[0]


def build_bank(
    op: HippoOperator, block_length: int, scheme: Scheme, max_blocks: int
) -> BlockKernelBank:
    """Precompute P_i and K_i for every block position i = 1 .. max_blocks."""
    block_length = _as_index("block_length", block_length)
    max_blocks = _as_index("max_blocks", max_blocks)
    scheme = Scheme(scheme)
    n, ell = op.order, block_length
    transitions = np.empty((max_blocks, n, n))
    kernels = np.empty((max_blocks, n, ell))
    _fill_bank(op, scheme, transitions, kernels)
    _check_finite(scheme, transitions, kernels)
    return BlockKernelBank(
        block_length=block_length,
        order=n,
        scheme=scheme,
        transitions=_freeze(transitions),
        kernels=_freeze(kernels),
    )


def block_update(
    state: MemoryState, inputs: np.ndarray, bank: BlockKernelBank
) -> MemoryState:
    """Fold one block of inputs into the state: C <- P_i C + K_i F_i.

    Equivalent to applying the per-step recurrence over the block token by
    token, whatever the block length. P_i C is one product, or, from
    N^2 D >= `_PANEL_MIN_WORK` on, one per row panel of `_PANEL_ROWS` rows
    that skips the zeros right of the panel's diagonal block, with the bits
    of the full product; K_i F_i is one more product, added into it.
    """
    position = state.blocks_absorbed + 1
    if position > bank.max_blocks:
        raise ValueError(
            f"bank capacity exhausted: block {position} > max_blocks {bank.max_blocks}"
        )
    if state.order != bank.order:
        raise ValueError(f"state order {state.order} != bank order {bank.order}")
    f = np.asarray(inputs, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if f.shape != (bank.block_length, state.channel_count):
        raise ValueError(
            f"inputs shape {f.shape} != ({bank.block_length}, {state.channel_count})"
        )
    p, c = bank.transitions[position - 1], state.coefficients
    n, d = c.shape
    rows = _PANEL_ROWS if n * n * d >= _PANEL_MIN_WORK else n
    coeffs = np.empty((n, d))
    for top in range(0, n, rows):
        end = min(top + rows, n)
        np.matmul(p[top:end, :end], c[:end], out=coeffs[top:end])
    coeffs += np.matmul(bank.kernels[position - 1], f)
    return MemoryState(coeffs, blocks_absorbed=position)
