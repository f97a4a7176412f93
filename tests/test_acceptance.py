"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import time

import numpy as np

from hippomem import (
    AttentionConfig,
    BlockIO,
    MemoryState,
    SamplingKind,
    SamplingStrategy,
    Scheme,
    apply_rotary,
    basis_matrix,
    block_update,
    build_bank,
    build_operator,
    build_reconstruction_bank,
    build_trapezoidal_mask,
    discretize_step,
    forward_block,
    init_weights,
    sequential_update,
    zero_state,
)
from hippomem.attention import MASK_NEG
from hippomem.cli import main as cli_main
from hippomem.rng import derive, normals


def report(criterion: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {status}: {name}{suffix}", flush=True)
    assert passed, f"criterion {criterion} failed: {name}{suffix}"


def test_criterion_1_benchmark_table_bands(tmp_path, capsys):
    started = time.perf_counter()
    out_path = tmp_path / "table.csv"
    assert cli_main(["bench-table", "--out", str(out_path)]) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    lines = out_path.read_text().strip().splitlines()[1:]
    mse = [float(line.split(",")[5]) for line in lines]
    bands = [
        (1.2e-6, 1.2e-4),   # 1 sine, ZOH, N=32       (reference 1.2e-5)
        (2.3e-5, 2.3e-3),   # 3 sines                  (reference 2.3e-4)
        (9.8e-5, 9.8e-3),   # 5 sines, ZOH             (reference 9.8e-4)
        (3.3e-4, 3.3e-2),   # 5 sines, forward Euler   (reference 3.3e-3)
        (2.9e-4, 2.9e-2),   # 5 sines, backward Euler  (reference 2.9e-3)
        (4.8e-5, 4.8e-3),   # 5 sines, bilinear        (reference 4.8e-4)
        (0.85, 1.05),       # noise, N=32              (reference 0.97)
        (0.80, 1.00),       # noise, N=128             (reference 0.90)
        (0.60, 0.85),       # noise, N=512             (reference 0.72)
    ]
    with capsys.disabled():
        in_band = all(lo <= m <= hi for m, (lo, hi) in zip(mse, bands))
        report(1, "all nine rows inside their reference bands", in_band,
               " ".join(f"{m:.2e}" for m in mse))
        report(1, "scheme ordering bilinear < backward and bilinear < forward",
               mse[5] < mse[4] and mse[5] < mse[3],
               f"bil={mse[5]:.2e} back={mse[4]:.2e} fwd={mse[3]:.2e}")
        report(1, "noise error strictly decreasing in state order",
               mse[6] > mse[7] > mse[8],
               f"{mse[6]:.3f} > {mse[7]:.3f} > {mse[8]:.3f}")
        report(1, "table completes in under two minutes", elapsed < 120.0,
               f"{elapsed:.1f}s")


def test_criterion_2_block_equals_sequential(capsys):
    # Forward Euler states reach ~1e15 at N=32 (one ulp there is 0.125), so
    # its error is taken relative to max(1, |state|); the other schemes keep
    # the absolute bound.
    started = time.perf_counter()
    seeds = 100
    worst = 0.0
    worst_forward = 0.0
    for order in (2, 8, 32):
        op = build_operator(order)
        for block_length in (1, 4, 64):
            for scheme in (Scheme.ZOH, Scheme.BILINEAR, Scheme.BACKWARD_EULER,
                           Scheme.FORWARD_EULER):
                bank = build_bank(op, block_length, scheme, 2)
                steps = {
                    pos: [discretize_step(op, (pos - 1) * block_length + 1 + j, scheme)
                          for j in range(block_length)]
                    for pos in (1, 2)
                }
                for channels in (1, 3):
                    width = seeds * channels  # all seeds batched channel-wise
                    coeffs = normals(derive(29, order, block_length, channels),
                                     order * width).reshape(order, width)
                    inputs = normals(derive(31, order, block_length, channels),
                                     block_length * width).reshape(block_length, width)
                    state = MemoryState(coeffs, blocks_absorbed=0)
                    for pos in (1, 2):
                        fast = block_update(state, inputs, bank)
                        slow = state
                        for j in range(block_length):
                            slow = sequential_update(slow, inputs[j], steps[pos][j])
                        err = float(np.abs(fast.coefficients - slow.coefficients).max())
                        if scheme is Scheme.FORWARD_EULER:
                            scale = max(1.0, float(np.abs(slow.coefficients).max()))
                            worst_forward = max(worst_forward, err / scale)
                        else:
                            worst = max(worst, err)
                        state = fast
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(2, "block update equals composed sequential update (<= 1e-9)",
               worst <= 1e-9, f"max abs err {worst:.2e}")
        report(2, "forward Euler block update equals composed sequential update "
               "(<= 1e-9 of max(1, |state|))",
               worst_forward <= 1e-9, f"max scaled err {worst_forward:.2e}")
        report(2, "equivalence grid completes in under 30 seconds",
               elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_3_orthonormality(capsys):
    order = 32
    nodes, weights = np.polynomial.legendre.leggauss(2 * order + 8)
    worst = 0.0
    for t in (1.0, 17.0, 1000.0):
        xs = t * (nodes + 1.0) / 2.0
        g = basis_matrix(xs, t, order)
        gram = (g * (weights / 2.0)[:, None]).T @ g
        worst = max(worst, float(np.abs(gram - np.eye(order)).max()))
    with capsys.disabled():
        report(3, "basis orthonormality at N=32 for t in {1, 17, 1000} (<= 1e-8)",
               worst <= 1e-8, f"max |<g_n,g_m> - delta| = {worst:.2e}")


def test_criterion_4_fixed_point_convergence(capsys):
    op = build_operator(8)
    c = 1.0
    coeffs = np.zeros((8, 1))
    coeffs[0, 0] = c  # exact absorption of the first constant sample
    state = MemoryState(coeffs)
    for k in range(1, 1025):
        state = sequential_update(state, np.array([c]),
                                  discretize_step(op, k, Scheme.ZOH))
    trailing = float(np.abs(state.coefficients[1:, 0]).max())
    leading = float(abs(state.coefficients[0, 0] - c))
    with capsys.disabled():
        report(4, "constant input converges to [c, 0, ..., 0] after 1024 ZOH steps",
               trailing < 1e-3 and leading < 1e-3,
               f"trailing {trailing:.2e}, leading err {leading:.2e}")


def test_criterion_5_attention_reduction(capsys):
    uniform = SamplingStrategy(SamplingKind.UNIFORM)
    cfg = AttentionConfig(
        model_dim=32, head_count=2, head_dim=16, block_length=8, mem_length=0,
        hippo_order=16, scheme=Scheme.ZOH, strategy=uniform,
    )
    op = build_operator(cfg.hippo_order)
    kernel_bank = build_bank(op, cfg.block_length, cfg.scheme, 1)
    weights = init_weights(cfg, seed=77)
    hidden = normals(derive(77, 1), cfg.block_length * cfg.model_dim).reshape(
        cfg.block_length, cfg.model_dim)
    io = BlockIO(hidden=hidden,
                 key_state=zero_state(cfg.hippo_order, cfg.model_dim),
                 value_state=zero_state(cfg.hippo_order, cfg.model_dim),
                 block_index=1)
    result = forward_block(io, weights, cfg, kernel_bank, None)

    # reference causal attention, written from scratch
    q = hidden @ weights.w_query
    k = hidden @ weights.w_key
    v = hidden @ weights.w_value
    reference = np.zeros_like(hidden)
    for h in range(cfg.head_count):
        sl = slice(h * cfg.head_dim, (h + 1) * cfg.head_dim)
        qh = apply_rotary(q[:, sl], 0, cfg.rope_base)
        kh = apply_rotary(k[:, sl], 0, cfg.rope_base)
        scores = qh @ kh.T / np.sqrt(cfg.head_dim)
        for p in range(cfg.block_length):
            row = scores[p, :p + 1]
            e = np.exp(row - row.max())
            reference[p, sl] = (e / e.sum()) @ v[:p + 1, sl]
    reference = reference @ weights.w_output
    diff = float(np.abs(result.output - reference).max())

    mask = build_trapezoidal_mask(5, 3)
    mask_ok = (mask[:, :3] == 0.0).all()
    for p in range(5):
        for col in range(5):
            expected = 0.0 if col <= p else MASK_NEG
            mask_ok &= mask[p, 3 + col] == expected
    with capsys.disabled():
        report(5, "mem_length 0 matches reference causal attention (<= 1e-12)",
               diff <= 1e-12, f"max abs diff {diff:.2e}")
        report(5, "trapezoidal mask admits memory columns, blocks future exactly",
               bool(mask_ok))


def test_criterion_6_retrieval_decoupled_from_state(tmp_path, capsys):
    code = cli_main([
        "attn-demo", "--cache-dir", str(tmp_path), "--seed", "3",
        "--train-strategy", "uniform", "--eval-strategy", "exponential",
    ])
    out = capsys.readouterr().out
    summary = json.loads(out.strip().splitlines()[-1][len("SUMMARY "):])
    with capsys.disabled():
        report(6, "attn-demo exits 0 with all internal checks passing",
               code == 0 and summary["pass"])
        report(6, "state checksums identical under swapped retrieval strategy",
               summary["states_match"])
        report(6, "retrieved memory matrices differ across strategies",
               summary["retrievals_differ"])


def test_criterion_7_byte_identical_reruns(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    sig.write_text("\n".join(f"{np.sin(0.05 * i):.17g}" for i in range(128)) + "\n")

    def snapshot(directory):
        return {p.name: p.read_bytes()
                for p in sorted(directory.rglob("*")) if p.is_file()}

    results = {}

    # build-banks: identical flags into two fresh cache dirs
    dirs = [tmp_path / "banks_a", tmp_path / "banks_b"]
    for d in dirs:
        assert cli_main(["build-banks", "--order", "8", "--block-length", "16",
                         "--max-blocks", "4", "--cache-dir", str(d)]) == 0
    results["build-banks"] = snapshot(dirs[0]) == snapshot(dirs[1])

    # compress / bench-table / attn-demo: run twice, compare output files
    for name, argv, outputs in [
        ("compress",
         ["compress", str(sig), "--order", "8", "--out", str(tmp_path / "r.txt"),
          "--full-out", str(tmp_path / "f.txt")],
         ["r.txt", "f.txt"]),
        ("bench-table",
         ["bench-table", "--seed", "5", "--seeds", "2", "--length", "512",
          "--out", str(tmp_path / "t.csv")],
         ["t.csv"]),
        ("attn-demo",
         ["attn-demo", "--cache-dir", str(tmp_path / "demo_cache"), "--seed", "11",
          "--eval-strategy", "exponential", "--out", str(tmp_path / "demo.txt")],
         ["demo.txt"]),
    ]:
        assert cli_main(argv) == 0
        first = {f: (tmp_path / f).read_bytes() for f in outputs}
        assert cli_main(argv) == 0
        second = {f: (tmp_path / f).read_bytes() for f in outputs}
        results[name] = first == second
    capsys.readouterr()

    with capsys.disabled():
        for name, ok in results.items():
            report(7, f"{name} rerun produces byte-identical output files", ok)
