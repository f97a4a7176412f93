"""Synthetic-signal compression benchmark.

Generates composite sine waves and white noise, compresses each sequence
into a polynomial state, reconstructs at every original sample time, and
reports mean squared error. Nine standard rows sweep component count,
discretization scheme, and state order.

Grid conventions (fixed so that the numbers are comparable across runs):
sample a is taken at time a and held over [a, a+1); the first sample enters
through the exact limit step; reconstruction is probed at the sample times,
which coincide with the uniform sampling points x_j = j * t / L_mem at
L_mem = length. Smooth signals then reconstruct to ~1e-5..1e-3 MSE at order
32 while unit-variance noise stays near 1.

Reports hold no timings, so they are byte-identical for identical seeds;
the CLI prints each subcommand's wall time on stderr. Nothing is cached: a
row holds one N x T matrix at a time, its kernel and then its probe.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import rng
from .discretization import Scheme, history_kernel
from .operators import _as_index, basis_matrix, build_operator

__all__ = [
    "SignalKind",
    "SignalSpec",
    "TableRow",
    "generate_signal",
    "run_benchmark",
    "standard_rows",
    "run_table",
    "rows_to_csv",
    "rows_to_json",
]

# Component frequencies are stratified over FREQUENCY_RANGE in this many
# contiguous bands (component i draws from band i, capped at the last), so
# adding components strictly adds higher-frequency content and reconstruction
# error grows monotonically with component count.
FREQUENCY_BANDS = 5

AMPLITUDE_RANGE = (0.5, 1.5)
FREQUENCY_RANGE = (1.0, 9.0)  # cycles per window
PHASE_RANGE = (0.0, 2.0 * np.pi)


class SignalKind(enum.Enum):
    SINE_COMPOSITE = "sine"
    RANDOM_NOISE = "noise"


@dataclass(frozen=True)
class SignalSpec:
    kind: SignalKind
    component_count: int
    length: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", _as_index("length", self.length, minimum=2))
        least = 1 if self.kind is SignalKind.SINE_COMPOSITE else 0  # noise has none
        object.__setattr__(self, "component_count",
                           _as_index("component_count", self.component_count, least))


def generate_signal(spec: SignalSpec) -> np.ndarray:
    """Deterministic signal for a SignalSpec, normalized to zero mean, unit variance."""
    if spec.kind is SignalKind.RANDOM_NOISE:
        sig = rng.normals(spec.seed, spec.length)
    else:
        u = rng.uniforms(spec.seed, 3 * spec.component_count)
        a_lo, a_hi = AMPLITUDE_RANGE
        f_lo, f_hi = FREQUENCY_RANGE
        p_lo, p_hi = PHASE_RANGE
        band_width = (f_hi - f_lo) / FREQUENCY_BANDS
        t = np.arange(spec.length) / spec.length
        sig = np.zeros(spec.length)
        for i in range(spec.component_count):
            amp = a_lo + (a_hi - a_lo) * u[3 * i]
            band = min(i, FREQUENCY_BANDS - 1)
            freq = f_lo + band_width * (band + u[3 * i + 1])
            phase = p_lo + (p_hi - p_lo) * u[3 * i + 2]
            sig += amp * np.sin(2.0 * np.pi * freq * t + phase)
    sig = sig - sig.mean()
    std = sig.std()
    if std == 0.0:
        raise ValueError("degenerate signal: zero variance")
    return sig / std


def run_benchmark(specs: list[SignalSpec], order: int, scheme: Scheme) -> list[float]:
    """The MSE of each signal, all of one length, reconstructed at every sample time.

    One kernel folds every signal and is dropped before one probe matrix
    reconstructs them, each signal by its own matrix-vector products.
    """
    length = specs[0].length
    if any(spec.length != length for spec in specs):
        raise ValueError(f"specs must share one length, got {[spec.length for spec in specs]}")
    signals = [generate_signal(spec) for spec in specs]
    kernel = history_kernel(build_operator(order), length, scheme)
    states = [kernel @ signal for signal in signals]
    del kernel
    probe = basis_matrix(np.arange(length, dtype=float), float(length), order)
    return [float(np.mean((probe @ c - f) ** 2)) for c, f in zip(states, signals)]


@dataclass(frozen=True)
class TableRow:
    signal_type: str
    n_components: int
    hippo_dim: int
    sample_length: int
    scheme: str
    mse: float
    mse_std: float


def standard_rows() -> list[tuple[SignalKind, int, int, Scheme]]:
    """The nine benchmark rows: (kind, components, order, scheme)."""
    return [
        (SignalKind.SINE_COMPOSITE, 1, 32, Scheme.ZOH),
        (SignalKind.SINE_COMPOSITE, 3, 32, Scheme.ZOH),
        (SignalKind.SINE_COMPOSITE, 5, 32, Scheme.ZOH),
        (SignalKind.SINE_COMPOSITE, 5, 32, Scheme.FORWARD_EULER),
        (SignalKind.SINE_COMPOSITE, 5, 32, Scheme.BACKWARD_EULER),
        (SignalKind.SINE_COMPOSITE, 5, 32, Scheme.BILINEAR),
        (SignalKind.RANDOM_NOISE, 0, 32, Scheme.ZOH),
        (SignalKind.RANDOM_NOISE, 0, 128, Scheme.ZOH),
        (SignalKind.RANDOM_NOISE, 0, 512, Scheme.ZOH),
    ]


def run_table(base_seed: int = 0, seed_count: int = 8, length: int = 1024) -> list[TableRow]:
    """All nine rows, each averaged over `seed_count` derived seeds.

    Sine rows of a given repetition share one signal seed, so component
    counts nest (the 3-sine signal extends the 1-sine signal) and scheme
    rows compare on identical inputs.
    """
    seed_count = _as_index("seed_count", seed_count)
    rows: list[TableRow] = []
    for kind, n_comp, order, scheme in standard_rows():
        stream = 1 if kind is SignalKind.RANDOM_NOISE else 0
        specs = [SignalSpec(kind, max(n_comp, 1), length, rng.derive(base_seed, stream, rep))
                 for rep in range(seed_count)]
        mses = np.asarray(run_benchmark(specs, order, scheme))
        rows.append(TableRow(
            signal_type=kind.value,
            n_components=n_comp,
            hippo_dim=order,
            sample_length=length,
            scheme=scheme.value,
            mse=float(mses.mean()),
            mse_std=float(mses.std()),
        ))
    return rows


def _report_row(row: TableRow) -> dict[str, object]:
    """A row's fields in declaration order, the MSEs as %.10e strings."""
    return {name: f"{v:.10e}" if isinstance(v, float) else v
            for name, v in asdict(row).items()}


def rows_to_csv(rows: list[TableRow]) -> str:
    lines = [",".join(f.name for f in fields(TableRow))]
    lines += [",".join(map(str, _report_row(r).values())) for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[TableRow]) -> str:
    return json.dumps([_report_row(r) for r in rows], indent=2) + "\n"
