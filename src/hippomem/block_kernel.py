"""Block-parallel form of the memory recurrence.

Unrolling the per-step recurrence over a block of L inputs gives
C_i = P_i C_{i-1} + K_i F_i, where P_i is the ordered product of the step
matrices in block i and column j of K_i is the product of the step matrices
above position j times that step's input vector. Both depend on the absolute
block position i because the ODE is time-varying, so they are precomputed
once per position and cached in a bank.

Block i (1-based) covers steps k = (i-1)L+1 .. iL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import MemoryState, Scheme, _check_finite, _fold_steps
from .operators import HippoOperator, _as_index, _freeze

__all__ = ["BlockKernelBank", "build_bank", "block_update"]


@dataclass(frozen=True)
class BlockKernelBank:
    """Per-position transition matrices P_i and input kernels K_i.

    transitions[i-1] is the N x N product of step matrices for block i;
    kernels[i-1] is the N x L operator folding block i's inputs into the
    state. Immutable; share freely across concurrent sequence processors.
    """

    block_length: int
    order: int
    scheme: Scheme
    transitions: np.ndarray  # (max_blocks, N, N)
    kernels: np.ndarray      # (max_blocks, N, L)

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
    _fold_steps(op, scheme, transitions, kernels)
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
    token; two matrix multiplications regardless of block length.
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
    coeffs = (bank.transitions[position - 1] @ state.coefficients
              + bank.kernels[position - 1] @ f)
    return MemoryState(coeffs, blocks_absorbed=position)
