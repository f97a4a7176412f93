"""Online polynomial compression of sequences into fixed-size memory states.

Compresses a growing history into N scaled-Legendre coefficients via the
time-varying linear recurrence c_k = Abar_k c_{k-1} + Bbar_k f_k, executes
the recurrence block-parallel with precomputed per-position kernels,
reconstructs history summaries by sampling the polynomial, and wires the
whole thing into a toy memory-augmented attention block. A benchmark harness
measures reconstruction quality on synthetic signals.
"""

from .operators import (
    HippoOperator,
    basis_matrix,
    build_operator,
    legendre_table,
)
from .discretization import (
    DiscreteStep,
    InstabilityError,
    MemoryState,
    Scheme,
    discretize_interval,
    discretize_step,
    history_kernel,
    segment_coefficients,
    sequential_update,
    transition_power,
    zero_state,
)
from .block_kernel import BlockKernelBank, block_update, build_bank
from .reconstruction import (
    ReconstructionBank,
    SamplingKind,
    SamplingStrategy,
    build_reconstruction_bank,
    retrieve,
    sample_points,
)
from .attention import (
    AttentionConfig,
    AttentionWeights,
    BlockIO,
    BlockResult,
    apply_rotary,
    build_trapezoidal_mask,
    forward_block,
    init_weights,
)
from .signal_bench import (
    SignalKind,
    SignalSpec,
    TableRow,
    generate_signal,
    run_benchmark,
    run_table,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "AttentionWeights",
    "BlockIO",
    "BlockKernelBank",
    "BlockResult",
    "DiscreteStep",
    "HippoOperator",
    "InstabilityError",
    "MemoryState",
    "ReconstructionBank",
    "SamplingKind",
    "SamplingStrategy",
    "Scheme",
    "SignalKind",
    "SignalSpec",
    "TableRow",
    "apply_rotary",
    "basis_matrix",
    "block_update",
    "build_bank",
    "build_operator",
    "build_reconstruction_bank",
    "build_trapezoidal_mask",
    "discretize_interval",
    "discretize_step",
    "forward_block",
    "generate_signal",
    "history_kernel",
    "init_weights",
    "legendre_table",
    "retrieve",
    "run_benchmark",
    "run_table",
    "sample_points",
    "segment_coefficients",
    "sequential_update",
    "transition_power",
    "zero_state",
]
