"""Block-parallel form of the memory recurrence.

Unrolling the per-step recurrence over a block of L inputs gives
C_i = P_i C_{i-1} + K_i F_i, where P_i is the ordered product of the step
matrices in block i and column j of K_i is the product of the step matrices
above position j times that step's input vector. Both depend on the absolute
block position i because the ODE is time-varying, so they are precomputed
once per position and cached in a bank. A is lower triangular, so every P_i
is too, exactly: a bank stores each P_i as row panels that stop at their
diagonal block, which is all that `block_update` reads.

Block i (1-based) covers steps k = (i-1)L+1 .. iL.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .discretization import MemoryState, Scheme, _check_finite, _fill_bank
from .operators import HippoOperator, _as_index, _freeze

__all__ = ["BlockKernelBank", "build_bank", "block_update"]

# Rows per stored panel of P_i.
_PANEL_ROWS = 16


def _panel_rows(order: int) -> list[tuple[int, int]]:
    """Row ranges [r0, r1) of P_i's panels, `_PANEL_ROWS` rows each. A
    one-row last panel joins the panel above it: numpy forms a one-row
    product as a matrix-vector product, which does not sum in the full
    product's order. So N <= 17 is one panel."""
    ends = [*range(_PANEL_ROWS, order - 1, _PANEL_ROWS), order]
    return list(zip([0, *ends[:-1]], ends))


def _panel_width(order: int) -> int:
    """Floats per block of a bank's panels: 9216 at N = 128, not N^2 = 16384."""
    return sum((r1 - r0) * r1 for r0, r1 in _panel_rows(order))


def _panels(flat: np.ndarray, order: int) -> list[tuple[int, int, np.ndarray]]:
    """(r0, r1, panel) for each panel in flat (..., W), the panel a
    (..., r1 - r0, r1) view of rows r0 .. r1-1 of P_i over columns 0 .. r1-1."""
    panels, at = [], 0
    for r0, r1 in _panel_rows(order):
        size = (r1 - r0) * r1
        panels.append((r0, r1, flat[..., at:at + size].reshape(flat.shape[:-1] + (r1 - r0, r1))))
        at += size
    return panels


@dataclass(frozen=True)
class BlockKernelBank:
    """Per-position transition matrices P_i and input kernels K_i.

    P_i is the N x N product of step matrices for block i, and
    kernels[i-1] the N x L operator folding block i's inputs into the
    state. panels[i-1] holds P_i's row panels one after another, panel
    [r0, r1) row-major over columns 0 .. r1-1, so nothing right of a
    panel's diagonal block is stored; `transitions` forms the dense
    (B, N, N) stack. Immutable; share freely across concurrent sequence
    processors. The order, block length and block count are those of the
    arrays, which must be (B, W) and (B, N, L) with W = `_panel_width(N)`.
    The strict upper parts of the panels' diagonal blocks, the only entries
    above the diagonal a bank holds, must be exact zeros. A bank of any
    other shape or with any other entry there, or of an unknown scheme,
    raises ValueError; a scheme may be given by name.
    """

    scheme: Scheme
    panels: np.ndarray   # (max_blocks, W)
    kernels: np.ndarray  # (max_blocks, N, L)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        p, k = self.panels, self.kernels
        if k.ndim != 3 or p.shape != (k.shape[0], _panel_width(k.shape[1])):
            raise ValueError(
                f"transitions {p.shape} and kernels {k.shape} are not (B, W) row panels"
                " and (B, N, L)"
            )
        for r0, r1, panel in self._views:
            # the diagonal block's nonzero pattern over all blocks: no copy of the panel
            if np.triu(panel[:, :, r0:].any(axis=0), 1).any():
                raise ValueError(f"transitions are not lower triangular in rows {r0} to {r1 - 1}")

    @cached_property
    def _views(self) -> list[tuple[int, int, np.ndarray]]:
        """(r0, r1, panel) per panel, each a (B, r1 - r0, r1) view of `panels`."""
        return _panels(self.panels, self.order)

    @property
    def transitions(self) -> np.ndarray:
        """The dense (B, N, N) stack of P_i, formed anew on each access."""
        n = self.order
        dense = np.zeros((self.max_blocks, n, n))
        for r0, r1, panel in self._views:
            dense[:, r0:r1, :r1] = panel
        return _freeze(dense)

    @property
    def order(self) -> int:
        return self.kernels.shape[1]

    @property
    def block_length(self) -> int:
        return self.kernels.shape[2]

    @property
    def max_blocks(self) -> int:
        return self.kernels.shape[0]


def build_bank(
    op: HippoOperator, block_length: int, scheme: Scheme, max_blocks: int
) -> BlockKernelBank:
    """Precompute P_i and K_i for every block position i = 1 .. max_blocks."""
    block_length = _as_index("block_length", block_length)
    max_blocks = _as_index("max_blocks", max_blocks)
    scheme = Scheme(scheme)
    n, ell = op.order, block_length
    panels = np.empty((max_blocks, _panel_width(n)))
    kernels = np.empty((max_blocks, n, ell))
    # row n of every P_i, a (B, r1) view into its panel
    rows = [row for *_, panel in _panels(panels, n) for row in panel.transpose(1, 0, 2)]
    _fill_bank(op, scheme, rows, kernels)
    _check_finite(scheme, panels, kernels)
    return BlockKernelBank(scheme, _freeze(panels), _freeze(kernels))


def block_update(
    state: MemoryState, inputs: np.ndarray, bank: BlockKernelBank
) -> MemoryState:
    """Fold one block of inputs into the state: C <- P_i C + K_i F_i.

    Equivalent to applying the per-step recurrence over the block token by
    token, whatever the block length. P_i C is one product per stored row
    panel, each contiguous; the zeros right of a panel's diagonal block are
    not stored, and the bits are those of the full product P_i @ C. K_i F_i
    is one more product, added into it.
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
    c = state.coefficients
    coeffs = np.empty(c.shape)
    for r0, r1, panels in bank._views:
        np.matmul(panels[position - 1], c[:r1], out=coeffs[r0:r1])
    coeffs += np.matmul(bank.kernels[position - 1], f)
    return MemoryState(coeffs, blocks_absorbed=position)
