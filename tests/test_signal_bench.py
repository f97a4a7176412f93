"""Signal generation and the reconstruction-quality table."""

import numpy as np
import pytest

from hippomem import Scheme, signal_bench
from hippomem.signal_bench import (
    SignalKind,
    SignalSpec,
    generate_signal,
    rows_to_csv,
    rows_to_json,
    run_benchmark,
    run_table,
)


def test_same_seed_same_signal():
    spec = SignalSpec(SignalKind.SINE_COMPOSITE, 3, 512, seed=77)
    np.testing.assert_array_equal(generate_signal(spec), generate_signal(spec))
    noise = SignalSpec(SignalKind.RANDOM_NOISE, 0, 512, seed=77)
    np.testing.assert_array_equal(generate_signal(noise), generate_signal(noise))


def test_normalization_forces_unit_variance():
    for kind, comps in ((SignalKind.RANDOM_NOISE, 0), (SignalKind.SINE_COMPOSITE, 4)):
        spec = SignalSpec(kind, max(comps, 1), 1024, seed=3)
        sig = generate_signal(spec)
        assert abs(sig.mean()) < 1e-12
        assert abs(sig.var() - 1.0) < 1e-6


def test_single_fixed_sine_matches_closed_form(monkeypatch):
    # pin every range to a point so the oracle needs no random draws
    monkeypatch.setattr(signal_bench, "AMPLITUDE_RANGE", (0.8, 0.8))
    monkeypatch.setattr(signal_bench, "FREQUENCY_RANGE", (3.0, 3.0))
    monkeypatch.setattr(signal_bench, "PHASE_RANGE", (0.0, 0.0))
    sig = generate_signal(SignalSpec(SignalKind.SINE_COMPOSITE, 1, 256, seed=9))
    t = np.arange(256) / 256.0
    expected = 0.8 * np.sin(2.0 * np.pi * 3.0 * t)
    expected = (expected - expected.mean()) / expected.std()
    np.testing.assert_allclose(sig, expected, atol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        SignalSpec(SignalKind.SINE_COMPOSITE, 0, 256, seed=1)
    with pytest.raises(ValueError):
        SignalSpec(SignalKind.SINE_COMPOSITE, 1, 1, seed=1)


def test_mse_monotone_in_component_count_per_seed():
    # shared seed nests the signals: more components only add higher bands
    for seed in range(8):
        mses = run_benchmark(
            [SignalSpec(SignalKind.SINE_COMPOSITE, n, 1024, seed=seed) for n in (1, 3, 5)],
            32, Scheme.ZOH)
        assert mses[0] <= mses[1] <= mses[2]


def test_noise_is_incompressible():
    for order in (32, 512):
        spec = SignalSpec(SignalKind.RANDOM_NOISE, 0, 1024, seed=17)
        assert run_benchmark([spec], order, Scheme.ZOH)[0] > 0.5


def test_bilinear_beats_euler_schemes_on_five_sines():
    specs = [SignalSpec(SignalKind.SINE_COMPOSITE, 5, 1024, seed=seed) for seed in (0, 1)]
    bils = run_benchmark(specs, 32, Scheme.BILINEAR)
    fwds = run_benchmark(specs, 32, Scheme.FORWARD_EULER)
    bwds = run_benchmark(specs, 32, Scheme.BACKWARD_EULER)
    for bil, fwd, bwd in zip(bils, fwds, bwds, strict=True):
        assert bil < bwd
        assert bil < fwd


def test_run_benchmark_takes_specs_of_one_length():
    specs = [SignalSpec(SignalKind.SINE_COMPOSITE, 1, n, seed=1) for n in (256, 512)]
    with pytest.raises(ValueError, match="one length"):
        run_benchmark(specs, 32, Scheme.ZOH)


def test_each_mse_is_that_of_its_signal_alone():
    specs = [SignalSpec(SignalKind.SINE_COMPOSITE, 3, 256, seed=seed) for seed in range(3)]
    alone = [run_benchmark([spec], 32, Scheme.BILINEAR)[0] for spec in specs]
    assert run_benchmark(specs, 32, Scheme.BILINEAR) == alone


def test_signal_classes_separate_cleanly():
    # smooth signals compress orders of magnitude better than noise; the
    # Euler rows sit a small factor above 1e-2 under this step convention
    rows = run_table(base_seed=0, seed_count=2)
    for r in rows:
        if r.signal_type == "sine":
            assert r.mse < 5e-2
            if r.scheme in ("zoh", "bilinear"):
                assert r.mse < 1e-2
        else:
            assert r.mse > 0.5


def test_table_shape_and_determinism():
    rows1 = run_table(base_seed=5, seed_count=2)
    rows2 = run_table(base_seed=5, seed_count=2)
    assert len(rows1) == 9
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    header = rows_to_csv(rows1).splitlines()[0]
    assert header == "signal_type,n_components,hippo_dim,sample_length,scheme,mse,mse_std"


def test_table_rows_cover_the_nine_settings():
    rows = run_table(base_seed=1, seed_count=1, length=256)
    labels = [(r.signal_type, r.n_components, r.hippo_dim, r.scheme) for r in rows]
    assert labels == [
        ("sine", 1, 32, "zoh"),
        ("sine", 3, 32, "zoh"),
        ("sine", 5, 32, "zoh"),
        ("sine", 5, 32, "forward"),
        ("sine", 5, 32, "backward"),
        ("sine", 5, 32, "bilinear"),
        ("noise", 0, 32, "zoh"),
        ("noise", 0, 128, "zoh"),
        ("noise", 0, 512, "zoh"),
    ]


def test_json_mirror_has_identical_fields():
    import json

    rows = run_table(base_seed=2, seed_count=1, length=256)
    payload = json.loads(rows_to_json(rows))
    assert len(payload) == 9
    header = rows_to_csv(rows).splitlines()[0].split(",")
    csv_rows = [line.split(",") for line in rows_to_csv(rows).splitlines()[1:]]
    for row, entry, cells in zip(rows, payload, csv_rows):
        assert list(entry) == header
        assert [str(v) for v in entry.values()] == cells
        assert entry["mse"] == f"{row.mse:.10e}"
