"""Online polynomial compression of sequences into fixed-size memory states.

Compresses a growing history into N scaled-Legendre coefficients via the
time-varying linear recurrence c_k = Abar_k c_{k-1} + Bbar_k f_k, executes
the recurrence block-parallel with precomputed per-position kernels,
reconstructs history summaries by sampling the polynomial, and wires the
whole thing into a toy memory-augmented attention block.

The package exports what the README example, the attention block and the
benchmark use; everything else is imported from its module, e.g.
`hippomem.discretization.transition_power`.
"""

from .operators import basis_matrix, build_operator
from .discretization import (
    InstabilityError,
    MemoryState,
    Scheme,
    discretize_step,
    history_kernel,
    sequential_update,
    zero_state,
)
from .block_kernel import block_update, build_bank
from .reconstruction import (
    SamplingKind,
    SamplingStrategy,
    build_reconstruction_bank,
    retrieve,
)
from .attention import AttentionConfig, AttentionWeights, BlockIO, forward_block

__all__ = [
    "AttentionConfig",
    "AttentionWeights",
    "BlockIO",
    "InstabilityError",
    "MemoryState",
    "SamplingKind",
    "SamplingStrategy",
    "Scheme",
    "basis_matrix",
    "block_update",
    "build_bank",
    "build_operator",
    "build_reconstruction_bank",
    "discretize_step",
    "forward_block",
    "history_kernel",
    "retrieve",
    "sequential_update",
    "zero_state",
]
