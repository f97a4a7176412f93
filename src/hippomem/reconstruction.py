"""History retrieval by sampling the compressed polynomial.

A memory state holding coefficients for a history of length t can be read
out at any coordinates x in [0, t): stacking basis rows g_n(x_j) gives a
reconstruction matrix R with R @ C = reconstructed channel values at the
sample points. The sample points come from a strategy (uniform, or
exponentially spaced so that spacing tightens toward the recent end), and
both strategies place them at fixed fractions of t. The basis is scale
invariant, g_n(x; t) = g_n(x/t; 1), so R does not depend on t: a bank
computes it once, at t = 1, and serves every history length with it.

Reconstructed rows need no positional encoding: the basis values are
injective in x, so position is intrinsic to each row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .discretization import MemoryState
from .operators import HippoOperator, _as_index, _fold_case, basis_matrix

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
    def _missing_(cls, value: object) -> "SamplingKind":
        return _fold_case(cls, value, "sampling strategy")


@dataclass(frozen=True)
class SamplingStrategy:
    """Where in the history window the reconstruction samples fall.

    Only EXPONENTIAL uses the decay, which must lie in (0, 1). UNIFORM
    stores DEFAULT_DECAY whatever decay it is given, so all uniform
    strategies are equal. `label()` writes the decay with repr, which
    round-trips: two strategies share a label (and a cache file name)
    exactly when they are equal.
    """

    kind: SamplingKind
    decay: float = DEFAULT_DECAY

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", SamplingKind(self.kind))
        if self.kind is SamplingKind.UNIFORM:
            object.__setattr__(self, "decay", DEFAULT_DECAY)
        elif not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {self.decay}")

    def label(self) -> str:
        if self.kind is SamplingKind.EXPONENTIAL:
            return f"exponential{float(self.decay)!r}"
        return self.kind.value


def _require_strategy(value: object) -> None:
    """The one check of a strategy argument: a kind name is not a strategy,
    since exponential sampling needs a decay."""
    if not isinstance(value, SamplingStrategy):
        raise TypeError(f"strategy must be a SamplingStrategy, got {value!r}")


def sample_points(strategy: SamplingStrategy, history_length: float, count: int) -> np.ndarray:
    """Strictly increasing coordinates in [0, t), oldest first.

    Uniform: x_j = j t / count, with a t >= 1 scaled exactly by its binary
    exponent so that j t cannot overflow; a t < 1 needs no scaling, which
    would round subnormal points twice. Exponential: x_j = t (1 - decay**j),
    whose gaps shrink geometrically toward the recent end. Float collisions among neighbouring
    exponential points (decay**j below resolution) are resolved by nudging
    the earlier point down to the nearest unused coordinate, so the
    requested count is always honoured.
    """
    _require_strategy(strategy)
    count = _as_index("count", count)
    if not 0.0 < history_length < np.inf:
        raise ValueError(f"history_length must be positive and finite, got {history_length}")
    j = np.arange(count, dtype=float)
    if strategy.kind is SamplingKind.UNIFORM:
        shift = max(np.frexp(history_length)[1], 0)
        pts = np.ldexp(j * np.ldexp(history_length, -shift) / count, shift)
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
    """The reconstruction matrix R, which serves a history of any length.

    Every entry of matrices is the same R, the basis at the strategy's
    sample points, rows oldest to newest; entries that differ raise. The
    builder and the cache reader give a read-only stride-0 view, which is
    not compared. `retrieve` reads matrices[0]; max_blocks sizes the view.
    """

    block_length: int
    strategy: SamplingStrategy
    matrices: np.ndarray  # (max_blocks, L_mem, N)

    def __post_init__(self) -> None:
        if np.ndim(self.matrices) != 3:
            raise ValueError(f"matrices must be (B, M, N), got shape {np.shape(self.matrices)}")
        if self.matrices.strides[0] and not (self.matrices[1:] == self.matrices[:1]).all():
            raise ValueError("every entry of matrices must be the same R")

    @property
    def mem_length(self) -> int:
        return self.matrices.shape[1]

    @property
    def order(self) -> int:
        return self.matrices.shape[2]

    @property
    def max_blocks(self) -> int:
        return self.matrices.shape[0]


def build_reconstruction_bank(
    op: HippoOperator,
    strategy: SamplingStrategy,
    mem_length: int,
    block_length: int,
    max_blocks: int,
) -> ReconstructionBank:
    """Compute R once, at t = 1, for every history length; max_blocks only
    sizes the view, and with block_length names the cache file."""
    mem_length = _as_index("mem_length", mem_length)
    block_length = _as_index("block_length", block_length)
    max_blocks = _as_index("max_blocks", max_blocks)
    recon = basis_matrix(sample_points(strategy, 1.0, mem_length), 1.0, op.order)
    return ReconstructionBank(
        block_length=block_length,
        strategy=strategy,
        matrices=np.broadcast_to(recon, (max_blocks, mem_length, op.order)),
    )


def retrieve(state: MemoryState, bank: ReconstructionBank) -> np.ndarray:
    """Reconstructed history summary R @ C, rows ordered past to present.

    R does not depend on the history length, so a state of any number of
    absorbed blocks, at least one, reads `bank.matrices[0]`.
    """
    if state.blocks_absorbed < 1:
        raise ValueError("state holds no history; nothing to retrieve")
    if state.order != bank.order:
        raise ValueError(f"state order {state.order} != bank order {bank.order}")
    return bank.matrices[0] @ state.coefficients
