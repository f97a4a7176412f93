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
"""

from __future__ import annotations

import enum
import json
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .discretization import Scheme, history_kernel
from .operators import basis_matrix, build_operator

__all__ = [
    "SignalKind",
    "SignalSpec",
    "BenchResult",
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
        if self.length < 2:
            raise ValueError(f"length must be >= 2, got {self.length}")
        if self.kind is SignalKind.SINE_COMPOSITE and self.component_count < 1:
            raise ValueError("component_count must be >= 1 for sine signals")


@dataclass(frozen=True)
class BenchResult:
    mse: float
    wall_time: float


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


@lru_cache(maxsize=16)
def _cached_kernel(order: int, length: int, scheme: Scheme) -> np.ndarray:
    kernel = history_kernel(build_operator(order), length, scheme)
    kernel.setflags(write=False)
    return kernel


@lru_cache(maxsize=16)
def _cached_probe_matrix(order: int, length: int) -> np.ndarray:
    # probe points are the uniform sampling points at L_mem = length: x_j = j
    mat = basis_matrix(np.arange(length, dtype=float), float(length), order)
    mat.setflags(write=False)
    return mat


def run_benchmark(spec: SignalSpec, order: int, scheme: Scheme) -> BenchResult:
    """Compress one signal, reconstruct at every sample time, return the MSE."""
    started = time.perf_counter()
    signal = generate_signal(spec)
    state = _cached_kernel(order, spec.length, scheme) @ signal
    recon = _cached_probe_matrix(order, spec.length) @ state
    mse = float(np.mean((recon - signal) ** 2))
    return BenchResult(mse=mse, wall_time=time.perf_counter() - started)


@dataclass(frozen=True)
class TableRow:
    signal_type: str
    n_components: int
    hippo_dim: int
    sample_length: int
    scheme: str
    mse: float
    mse_std: float
    seconds: float


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


def run_table(
    base_seed: int = 0,
    seed_count: int = 8,
    length: int = 1024,
    include_timing: bool = False,
) -> list[TableRow]:
    """All nine rows, each averaged over `seed_count` derived seeds.

    Sine rows of a given repetition share one signal seed, so component
    counts nest (the 3-sine signal extends the 1-sine signal) and scheme
    rows compare on identical inputs. The seconds column is written as 0
    unless `include_timing` is set: timing varies run to run, and reports
    must be byte-identical for identical seeds.
    """
    if seed_count < 1:
        raise ValueError("seed_count must be >= 1")
    rows: list[TableRow] = []
    for kind, n_comp, order, scheme in standard_rows():
        mses = []
        elapsed = 0.0
        for rep in range(seed_count):
            seed = rng.derive(base_seed, 1 if kind is SignalKind.RANDOM_NOISE else 0, rep)
            spec = SignalSpec(
                kind=kind,
                component_count=max(n_comp, 1),
                length=length,
                seed=seed,
            )
            result = run_benchmark(spec, order, scheme)
            mses.append(result.mse)
            elapsed += result.wall_time
        mses = np.asarray(mses)
        rows.append(TableRow(
            signal_type=kind.value,
            n_components=n_comp,
            hippo_dim=order,
            sample_length=length,
            scheme=scheme.value,
            mse=float(mses.mean()),
            mse_std=float(mses.std()),
            seconds=elapsed if include_timing else 0.0,
        ))
    return rows


_CSV_HEADER = "signal_type,n_components,hippo_dim,sample_length,scheme,mse,mse_std,seconds"


def rows_to_csv(rows: list[TableRow]) -> str:
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.signal_type},{r.n_components},{r.hippo_dim},{r.sample_length},"
            f"{r.scheme},{r.mse:.10e},{r.mse_std:.10e},{r.seconds:.6f}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[TableRow]) -> str:
    payload = [
        {
            "signal_type": r.signal_type,
            "n_components": r.n_components,
            "hippo_dim": r.hippo_dim,
            "sample_length": r.sample_length,
            "scheme": r.scheme,
            "mse": f"{r.mse:.10e}",
            "mse_std": f"{r.mse_std:.10e}",
            "seconds": f"{r.seconds:.6f}",
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"
