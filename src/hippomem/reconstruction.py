"""History retrieval by sampling the compressed polynomial.

A memory state holding coefficients for a history of length t can be read
out at any coordinates x in [0, t): stacking basis rows g_n(x_j) gives a
reconstruction matrix R with R @ C = reconstructed channel values at the
sample points. Banks precompute R for every block position; the sample
points come from a strategy (uniform, or exponentially spaced so that
spacing tightens toward the recent end).

Reconstructed rows need no positional encoding: the basis values are
injective in x, so position is intrinsic to each row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .discretization import MemoryState
from .operators import HippoOperator, _freeze, basis_matrix

__all__ = [
    "SamplingKind",
    "SamplingStrategy",
    "ReconstructionBank",
    "sample_points",
    "build_reconstruction_bank",
    "retrieve",
]

DEFAULT_DECAY = 0.95


class SamplingKind(enum.Enum):
    UNIFORM = "uniform"
    EXPONENTIAL = "exponential"

    @classmethod
    def parse(cls, name: str) -> "SamplingKind":
        for member in cls:
            if member.value == name.lower():
                return member
        raise ValueError(f"unknown sampling strategy {name!r}; expected one of "
                         f"{[m.value for m in cls]}")


@dataclass(frozen=True)
class SamplingStrategy:
    """Where in the history window the reconstruction samples fall."""

    kind: SamplingKind
    decay: float = DEFAULT_DECAY  # used only by EXPONENTIAL

    def __post_init__(self) -> None:
        if self.kind is SamplingKind.EXPONENTIAL and not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {self.decay}")

    def label(self) -> str:
        if self.kind is SamplingKind.EXPONENTIAL:
            return f"exponential{self.decay:g}"
        return self.kind.value


def sample_points(strategy: SamplingStrategy, history_length: float, count: int) -> np.ndarray:
    """Strictly increasing coordinates in [0, t), oldest first.

    Uniform: x_j = j t / count. Exponential: x_j = t (1 - decay**j), whose
    gaps shrink geometrically toward the recent end. Float collisions among
    neighbouring exponential points (decay**j below resolution) are resolved
    by nudging the earlier point down to the nearest unused coordinate, so
    the requested count is always honoured.
    """
    if history_length <= 0:
        raise ValueError(f"history_length must be positive, got {history_length}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    j = np.arange(count, dtype=float)
    if strategy.kind is SamplingKind.UNIFORM:
        pts = j * history_length / count
    else:
        pts = history_length * (1.0 - strategy.decay ** j)
    # decay**j can underflow past float spacing, saturating points at t
    if pts[-1] >= history_length:
        pts[-1] = np.nextafter(history_length, -np.inf)
    for idx in range(count - 2, -1, -1):
        if pts[idx] >= pts[idx + 1]:
            pts[idx] = np.nextafter(pts[idx + 1], -np.inf)
    if pts[0] < 0.0 or pts[-1] >= history_length:
        raise ValueError(
            f"cannot place {count} distinct points in [0, {history_length})"
        )
    return pts


@dataclass(frozen=True)
class ReconstructionBank:
    """Reconstruction matrices R_i for history lengths t = i * block_length.

    matrices[i-1] evaluates the basis at the strategy's sample points for a
    history of i blocks; row order is oldest to newest. Immutable.
    """

    mem_length: int
    order: int
    block_length: int
    strategy: SamplingStrategy
    matrices: np.ndarray  # (max_blocks, L_mem, N)
    points: np.ndarray    # (max_blocks, L_mem)

    @property
    def max_blocks(self) -> int:
        return self.matrices.shape[0]

    def matrix(self, i: int) -> np.ndarray:
        """R_i for a history of i absorbed blocks (1-based)."""
        if not 1 <= i <= self.max_blocks:
            raise IndexError(f"history of {i} blocks outside 1..{self.max_blocks}")
        return self.matrices[i - 1]


def build_reconstruction_bank(
    op: HippoOperator,
    strategy: SamplingStrategy,
    mem_length: int,
    block_length: int,
    max_blocks: int,
) -> ReconstructionBank:
    """Precompute R_i for every history length i * block_length, i = 1..max_blocks."""
    if mem_length < 1:
        raise ValueError(f"mem_length must be >= 1, got {mem_length}")
    if block_length < 1:
        raise ValueError(f"block_length must be >= 1, got {block_length}")
    if max_blocks < 1:
        raise ValueError(f"max_blocks must be >= 1, got {max_blocks}")
    horizons = np.arange(1, max_blocks + 1) * float(block_length)
    points = np.empty((max_blocks, mem_length))
    for row, t in zip(points, horizons.tolist()):
        row[:] = sample_points(strategy, t, mem_length)
    # one basis evaluation for every block: one Legendre recurrence in all
    matrices = basis_matrix(points, horizons[:, None], op.order)
    return ReconstructionBank(
        mem_length=mem_length,
        order=op.order,
        block_length=block_length,
        strategy=strategy,
        matrices=_freeze(matrices),
        points=_freeze(points),
    )


def retrieve(state: MemoryState, bank: ReconstructionBank) -> np.ndarray:
    """Reconstructed history summary R_i @ C, rows ordered past to present.

    Requires at least one absorbed block; a bank never extrapolates beyond
    the positions it was built for.
    """
    absorbed = state.blocks_absorbed
    if absorbed < 1:
        raise ValueError("state holds no history; nothing to retrieve")
    if absorbed > bank.max_blocks:
        raise ValueError(
            f"history of {absorbed} blocks exceeds bank capacity {bank.max_blocks}"
        )
    if state.order != bank.order:
        raise ValueError(f"state order {state.order} != bank order {bank.order}")
    return bank.matrix(absorbed) @ state.coefficients
