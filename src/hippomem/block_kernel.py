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

from .discretization import MemoryState, Scheme, _check_finite, _fill_bank
from .operators import HippoOperator, _as_index, _freeze

__all__ = ["BlockKernelBank", "build_bank", "block_update"]

# Rows per panel of `block_update`'s P_i C, read up to the panel's diagonal block.
_PANEL_ROWS = 32


@dataclass(frozen=True)
class BlockKernelBank:
    """Per-position transition matrices P_i and input kernels K_i.

    transitions[i-1] is the N x N product of step matrices for block i;
    kernels[i-1] is the N x L operator folding block i's inputs into the
    state. Immutable; share freely across concurrent sequence processors.
    The order, block length and block count are those of the arrays, which
    must be (B, N, N) and (B, N, L). Every P_i must be lower triangular,
    with exact zeros above the diagonal, because `block_update` never reads
    them. A bank of any other shape or with any other entry there, or of an
    unknown scheme, raises ValueError; a scheme may be given by name.
    """

    scheme: Scheme
    transitions: np.ndarray  # (max_blocks, N, N)
    kernels: np.ndarray      # (max_blocks, N, L)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        p, k = self.transitions, self.kernels
        if p.ndim != 3 or k.ndim != 3 or p.shape != (k.shape[0], k.shape[1], k.shape[1]):
            raise ValueError(
                f"transitions {p.shape} and kernels {k.shape} are not (B, N, N) and (B, N, L)"
            )
        # one row's strict upper part at a time: a whole-bank mask or triu
        # copy would be as large as the bank (50 MB at N = 128, 256 blocks)
        for row in range(p.shape[1] - 1):
            if p[:, row, row + 1:].any():
                raise ValueError(f"transitions are not lower triangular in row {row}")

    @property
    def order(self) -> int:
        return self.kernels.shape[1]

    @property
    def block_length(self) -> int:
        return self.kernels.shape[2]

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
    return BlockKernelBank(scheme, _freeze(transitions), _freeze(kernels))


def block_update(
    state: MemoryState, inputs: np.ndarray, bank: BlockKernelBank
) -> MemoryState:
    """Fold one block of inputs into the state: C <- P_i C + K_i F_i.

    Equivalent to applying the per-step recurrence over the block token by
    token, whatever the block length. P_i C is one product per row panel of
    `_PANEL_ROWS` rows, which skips the zeros right of the panel's diagonal
    block and keeps the bits of the full product P_i @ C; K_i F_i is one
    more product, added into it. A one-row last panel joins the panel above
    it: numpy forms a one-row product as a matrix-vector product, which
    does not sum in the full product's order.
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
    n = state.order
    coeffs = np.empty(c.shape)
    top = 0
    for end in [*range(_PANEL_ROWS, n - 1, _PANEL_ROWS), n]:
        np.matmul(p[top:end, :end], c[:end], out=coeffs[top:end])
        top = end
    coeffs += np.matmul(bank.kernels[position - 1], f)
    return MemoryState(coeffs, blocks_absorbed=position)
