"""Command-line behavior: outputs, validation, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hippomem import (
    SamplingStrategy,
    Scheme,
    bank_cache,
    basis_matrix,
    block_kernel,
    build_operator,
    cli,
    history_kernel,
)
from hippomem.cli import main
from hippomem.discretization import _GROUP_POINTS
from hippomem.reconstruction import DEFAULT_DECAY, sample_points
from hippomem.signal_bench import SignalKind, SignalSpec, generate_signal


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_summary(out):
    line = out.strip().splitlines()[-1]
    assert line.startswith("SUMMARY ")
    return json.loads(line[len("SUMMARY "):])


def test_build_banks_then_cache_hit(tmp_path, capsys):
    args = ["build-banks", "--order", "8", "--block-length", "16",
            "--max-blocks", "4", "--cache-dir", str(tmp_path)]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    summary = last_summary(out)
    assert summary["pass"] and not summary["kernel_cache_hit"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    summary = last_summary(out)
    assert summary["kernel_cache_hit"] and summary["recon_cache_hit"]
    assert "no recomputation" in out


def test_build_banks_writes_the_row_panels(tmp_path, capsys):
    # header, then 40 blocks of P_i's 16-row panels (9216 floats at N = 128,
    # not 16384) and K_i (128 x 64)
    code, out, err = run_cli(["build-banks", "--order", "128", "--max-blocks", "40",
                              "--cache-dir", str(tmp_path)], capsys)
    assert code == 0, err
    size = 40 + 8 * 40 * (9216 + 8192)
    assert f"kernel bank: N=128 L=64 max_blocks=40 bytes={size} (built)" in out
    assert last_summary(out)["kernel_bytes"] == size
    assert (tmp_path / "kernel_N128_L64_zoh_B40.emkb").stat().st_size == size


def test_build_banks_rejects_zero_max_blocks(tmp_path, capsys):
    code, _, err = run_cli(
        ["build-banks", "--max-blocks", "0", "--cache-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "max-blocks" in err


@pytest.mark.parametrize("argv", [
    ["build-banks", "--order", "4", "--block-length", "4", "--max-blocks", "2",
     "--cache-dir", "{d}"],
    ["compress", "{d}/sig.txt", "--order", "4"],
    ["bench-table", "--seeds", "1", "--length", "64"],
    ["attn-demo", "--blocks", "1", "--cache-dir", "{d}"],
], ids=lambda argv: argv[0])
def test_timing_goes_to_stderr_not_stdout(tmp_path, capsys, argv):
    (tmp_path / "sig.txt").write_text("0.5\n1.0\n0.25\n")
    code, out, err = run_cli([a.format(d=tmp_path) for a in argv], capsys)
    assert code == 0
    timing = [line for line in err.splitlines() if "[timing]" in line]
    assert len(timing) == 1 and timing[0].startswith(f"[timing] {argv[0]}: ")
    assert "[timing]" not in out


def test_compress_constant_column(tmp_path, capsys):
    src = tmp_path / "const.txt"
    src.write_text("# constant signal\n" + "3.0\n" * 128)
    out_path = tmp_path / "recon.txt"
    full_path = tmp_path / "full.txt"
    code, out, _ = run_cli(
        ["compress", str(src), "--order", "8", "--out", str(out_path),
         "--full-out", str(full_path)], capsys)
    assert code == 0
    summary = last_summary(out)
    assert float(summary["mse"]) < 1e-20
    full = np.loadtxt(full_path)
    assert np.abs(full[:, 1] - 3.0).max() < 1e-2
    points = np.loadtxt(out_path)
    assert points.shape == (64, 2)
    assert np.abs(points[:, 1] - 3.0).max() < 1e-2


def test_compress_multichannel_and_comments(tmp_path, capsys):
    rows = ["# two channels", "1.0, 2.0", "0.5 1.5", "0.0,1.0", "0.5, 1.5",
            "1.0 2.0", "0.5 1.5", "0.0 1.0", "0.5 1.5"]
    src = tmp_path / "two.txt"
    src.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(["compress", str(src), "--order", "4"], capsys)
    assert code == 0
    assert last_summary(out)["channels"] == 2


def test_compress_single_sine_hits_reference_band(tmp_path, capsys):
    spec = SignalSpec(SignalKind.SINE_COMPOSITE, 1, 1024, seed=123)
    sig = generate_signal(spec)
    src = tmp_path / "sine.txt"
    src.write_text("\n".join(f"{v:.17g}" for v in sig) + "\n")
    code, out, _ = run_cli(["compress", str(src), "--order", "32"], capsys)
    assert code == 0
    mse = float(last_summary(out)["mse"])
    assert 1.2e-6 <= mse <= 1.2e-4


def test_compress_rejects_empty_and_malformed(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code, _, err = run_cli(["compress", str(empty)], capsys)
    assert code == 2 and "no numeric rows" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    code, _, err = run_cli(["compress", str(bad)], capsys)
    assert code == 2
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1.0 2.0\n3.0\n")
    code, _, err = run_cli(["compress", str(ragged)], capsys)
    assert code == 2 and "ragged" in err


@pytest.mark.parametrize("text, lineno", [
    (",\n,\n,\n", 1),
    ("1.0\n,\n2.0\n", 2),
    (" , ,\n1.0\n2.0\n", 1),
])
def test_compress_rejects_rows_of_separators_only(tmp_path, capsys, text, lineno):
    # such a row holds no value: read as an empty row, a file of them
    # compressed as zero channels to a NaN MSE that read as a pass
    sig = tmp_path / "sig.txt"
    sig.write_text(text)
    code, out, err = run_cli(["compress", str(sig)], capsys)
    assert code == 2 and out == ""
    assert f"{sig}:{lineno}: not numeric: " in err, err


def test_compress_accepts_a_byte_order_mark(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("1.0 2.0\n0.5 1.5\n0.25 1.0\n")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    code, expected, _ = run_cli(["compress", str(plain), "--order", "4"], capsys)
    assert code == 0
    code, out, err = run_cli(["compress", str(marked), "--order", "4"], capsys)
    assert (code, out) == (0, expected), err


def test_compress_tables_render_each_value_with_12_digits(tmp_path, capsys):
    # past one row chunk, with values of every exponent width
    length, order = 5000, 32
    t = np.arange(length)
    data = np.column_stack([np.sin(0.01 * t), 1e-300 * np.cos(0.003 * t),
                            1e150 * (t % 7 - 3.0)])
    sig = tmp_path / "sig.txt"
    sig.write_text("".join(" ".join(map(repr, row)) + "\n" for row in data.tolist()))
    out_path, full_path = tmp_path / "out.txt", tmp_path / "full.txt"
    code, _, err = run_cli(["compress", str(sig), "--order", str(order),
                            "--out", str(out_path), "--full-out", str(full_path)], capsys)
    assert code == 0, err

    state = history_kernel(build_operator(order), length, Scheme.ZOH) @ data
    grid = np.arange(length, dtype=float)
    full = np.concatenate([basis_matrix(grid[lo:lo + _GROUP_POINTS], float(length), order) @ state
                           for lo in range(0, length, _GROUP_POINTS)])
    pts = sample_points(SamplingStrategy("uniform", DEFAULT_DECAY), float(length), 64)
    points = basis_matrix(pts, float(length), order) @ state

    def rendered(xs, values):
        rows = [f"{x:.12e} " + " ".join(f"{v:.12e}" for v in row)
                for x, row in zip(xs, values)]
        return ("\n".join(["# x ch0 ch1 ch2"] + rows) + "\n").encode("utf-8")

    assert out_path.read_bytes() == rendered(pts, points)
    assert full_path.read_bytes() == rendered(grid, full)


def test_compress_writes_plain_text_to_a_gz_name(tmp_path, capsys):
    (tmp_path / "sig.txt").write_text("0.5\n1.0\n0.25\n")
    out_path = tmp_path / "r.txt.gz"
    code, _, err = run_cli(["compress", str(tmp_path / "sig.txt"), "--order", "4",
                            "--out", str(out_path)], capsys)
    assert code == 0, err
    assert out_path.read_bytes().startswith(b"# x ch0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_compress_rejects_non_finite_values(tmp_path, capsys, value):
    # float() parses these, but they would compress to a NaN MSE that reads as a pass
    sig = tmp_path / "sig.txt"
    sig.write_text(f"1.0 2.0\n0.5 {value}\n0.25 1.0\n")
    code, out, err = run_cli(["compress", str(sig)], capsys)
    assert code == 2 and out == ""
    assert f"{sig}:2:" in err and "not finite" in err


@pytest.mark.parametrize("scheme", ["forward", "backward"])
def test_compress_fails_on_a_non_finite_mse(tmp_path, capsys, scheme):
    # finite values near 1e200 square past float64's range: the MSE is inf,
    # which is a failed check, not a pass
    sig = tmp_path / "sig.txt"
    sig.write_text("".join(f"{1e200 * math.sin(0.05 * i)!r}\n" for i in range(300)))
    code, out, err = run_cli(["compress", str(sig), "--order", "32", "--scheme", scheme],
                             capsys)
    assert code == 1
    assert "MSE inf\n" in out
    summary = last_summary(out)
    assert summary["pass"] is False and summary["mse"] == "inf"
    assert "RuntimeWarning" not in err


def test_bench_table_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(
        ["bench-table", "--seeds", "1", "--length", "256", "--out", str(out_path)],
        capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 10  # header + nine rows
    assert lines[0].startswith("signal_type,")


def test_bench_table_json_format(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    code, out, _ = run_cli(
        ["bench-table", "--seeds", "1", "--length", "256", "--format", "json",
         "--out", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert len(payload) == 9


def test_attn_demo_invariants_pass(tmp_path, capsys):
    code, out, _ = run_cli(
        ["attn-demo", "--cache-dir", str(tmp_path), "--blocks", "3"], capsys)
    assert code == 0
    summary = last_summary(out)
    assert summary["pass"]
    assert summary["checks"]["block1_memory_mass_zero"]
    assert summary["checks"]["rows_sum_to_one"]
    assert "block 1: memory_mass=0.000000" in out
    # the check against its bound, not the deviation's roundoff digits
    assert "\nmax row-sum deviation: <= 1e-12\n" in out


def test_attn_demo_strategy_swap_keeps_states(tmp_path, capsys):
    code, out, _ = run_cli(
        ["attn-demo", "--cache-dir", str(tmp_path),
         "--train-strategy", "uniform", "--eval-strategy", "exponential"], capsys)
    assert code == 0
    summary = last_summary(out)
    assert summary["states_match"]
    assert summary["retrievals_differ"]


def test_attn_demo_caches_only_its_kernel_bank(tmp_path, capsys):
    # R costs under a millisecond to build, so only build-banks writes EMRB files
    code, _, _ = run_cli(
        ["attn-demo", "--cache-dir", str(tmp_path),
         "--train-strategy", "uniform", "--eval-strategy", "exponential"], capsys)
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["kernel_N16_L8_zoh_B4.emkb"]


def test_attn_demo_finishes_when_its_cache_write_fails(tmp_path, capsys, monkeypatch):
    _, cold, _ = run_cli(["attn-demo", "--cache-dir", str(tmp_path / "cold")], capsys)
    blocked = tmp_path / "blocked"
    (blocked / "kernel_N16_L8_zoh_B4.emkb").mkdir(parents=True)
    # the bank built for the failed write is the one the demo runs on
    builds = []
    real = block_kernel.build_bank
    for module in (block_kernel, bank_cache, cli):
        monkeypatch.setattr(module, "build_bank",
                            lambda *args: builds.append(args) or real(*args), raising=False)
    code, out, err = run_cli(["attn-demo", "--cache-dir", str(blocked)], capsys)
    assert (code, out) == (0, cold)
    assert len(builds) == 1
    warnings = [line for line in err.splitlines() if line.startswith("warning: ")]
    assert len(warnings) == 1, err
    assert warnings[0].startswith("warning: kernel bank not cached: ")
    # so does a cache directory that cannot be made, here a regular file
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code, out, err = run_cli(["attn-demo", "--cache-dir", str(not_a_dir)], capsys)
    assert (code, out, len(builds)) == (0, cold, 2)
    assert err.count("warning: kernel bank not cached: ") == 1, err
    # writing the bank is build-banks' job, so there the same failure is an error
    code, out, err = run_cli(["build-banks", "--order", "16", "--block-length", "8",
                              "--max-blocks", "4", "--cache-dir", str(blocked)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert [p.name for p in blocked.iterdir()] == ["kernel_N16_L8_zoh_B4.emkb"]


def test_attn_demo_has_no_strategy_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["attn-demo", "--blocks", "1", "--strategy", "uniform", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--strategy" in capsys.readouterr().err


def test_config_strategy_does_not_reach_attn_demo(tmp_path, capsys):
    # attn-demo has no --strategy flag, so it ignores the key; --train-strategy rules
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"strategy = exponential\nblocks = 1\ncache_dir = {tmp_path}\n")
    code, out, _ = run_cli(["--config", str(cfg), "attn-demo"], capsys)
    assert code == 0
    summary = last_summary(out)
    assert summary["train_strategy"] == summary["eval_strategy"] == "uniform"
    code, out, _ = run_cli(["--config", str(cfg), "attn-demo", "--train-strategy",
                            "exponential", "--alpha", "0.5"], capsys)
    summary = last_summary(out)
    assert summary["train_strategy"] == summary["eval_strategy"] == "exponential0.5"


@pytest.mark.parametrize("config, argv, expected, flags, flagged_expected", [
    # int keys, in dash and underscore spellings
    pytest.param("order = 8\nblock-length = 16\nmax_blocks = 2\n", ["build-banks"],
                 "N=8 L=16", ["--order", "6"], "N=6 L=16", id="int"),
    pytest.param("order = 4\nblock_length = 4\nmax_blocks = 1\nstrategy = exponential\n"
                 "alpha = 0.5\n", ["build-banks"],
                 "_exponential0.5_", ["--alpha", "0.25"], "_exponential0.25_", id="float"),
    # a config value is matched against its flag's choices in any case
    pytest.param("format = JSON\nseeds = 1\nlength = 64\n", ["bench-table"],
                 '"signal_type": "sine"', ["--format", "csv"], "\nsine,1,32,64,zoh,",
                 id="format-case-folded"),
    # compress's own default would be 64 rows
    pytest.param("mem_length = 5\n", ["compress", "{d}/sig.txt", "--out", "{d}/o.txt"],
                 "wrote 5 reconstruction rows", ["--mem-length", "7"],
                 "wrote 7 reconstruction rows", id="compress-mem-length"),
    # attn-demo's own block length default, then a config value overriding it
    pytest.param("blocks = 1\n", ["attn-demo"], " L=8 ", ["--block-length", "4"], " L=4 ",
                 id="attn-default-block-length"),
    pytest.param("blocks = 1\nblock_length = 4\n", ["attn-demo"], " L=4 ",
                 ["--block-length", "2"], " L=2 ", id="attn-block-length"),
    # config values are folded to lower case; flags must be lower case
    pytest.param("order = 4\nblock_length = 4\nmax_blocks = 1\nscheme = ZOH\n",
                 ["build-banks"], "_zoh_", ["--scheme", "bilinear"], "_bilinear_",
                 id="scheme-case-folded"),
])
def test_config_file_supplies_defaults_flags_override(
        tmp_path, capsys, config, argv, expected, flags, flagged_expected):
    (tmp_path / "sig.txt").write_text("3.0\n" * 128)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# demo config\n{config}cache_dir = {tmp_path}\n")
    argv = ["--config", str(cfg)] + [a.format(d=tmp_path) for a in argv]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert expected in out
    if flags:
        code, out, _ = run_cli(argv + flags, capsys)
        assert code == 0
        assert flagged_expected in out


def test_cache_dir_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EMK_CACHE_DIR", str(tmp_path / "envcache"))
    code, out, _ = run_cli(
        ["build-banks", "--order", "4", "--block-length", "4", "--max-blocks", "2"],
        capsys)
    assert code == 0
    assert (tmp_path / "envcache").is_dir()
    assert "envcache" in last_summary(out)["kernel_path"]


@pytest.mark.parametrize("argv", [
    ["build-banks", "--order", "4", "--block-length", "4", "--max-blocks", "2"],
    ["attn-demo", "--blocks", "2"],
])
def test_empty_cache_dir_env_falls_back_to_working_directory(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("EMK_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    assert (tmp_path / ".bank_cache").is_dir()


@pytest.mark.parametrize("command", ["build-banks", "attn-demo"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_empty_cache_dir_is_usage_error(tmp_path, capsys, monkeypatch, command, via):
    # refused as a usage error before os.makedirs("") could fail with a bare ENOENT
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cache_dir =\n")
    argv = ([command, "--cache-dir", ""] if via == "flag"
            else ["--config", str(cfg), command])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--cache-dir: must not be empty" in captured.err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_accepts_a_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("\ufefforder = 6\nmax_blocks = 1\n".encode("utf-8"))
    code, out, err = run_cli(["--config", str(cfg), "build-banks", "--block-length", "4",
                              "--cache-dir", str(tmp_path)], capsys)
    assert code == 0, err
    assert "N=6 L=4" in out


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("orderx = 8\n")
    code, _, err = run_cli(["--config", str(cfg), "build-banks"], capsys)
    assert code == 2 and "unknown config key" in err


def test_invalid_scheme_via_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scheme = eulerish\ncache_dir = {tmp_path}\n")
    code, _, err = run_cli(["--config", str(cfg), "build-banks"], capsys)
    assert code == 2 and "unknown scheme" in err


@pytest.mark.parametrize("argv_builder", [
    lambda d: ["compress", str(d / "sig.txt"), "--order", "8",
               "--out", str(d / "o.txt"), "--full-out", str(d / "f.txt")],
    lambda d: ["bench-table", "--seeds", "1", "--length", "256",
               "--out", str(d / "t.csv")],
    lambda d: ["attn-demo", "--cache-dir", str(d / "cache"),
               "--blocks", "2", "--out", str(d / "r.txt")],
])
def test_outputs_are_byte_identical_across_reruns(tmp_path, capsys, argv_builder):
    (tmp_path / "sig.txt").write_text("\n".join(str(0.1 * i) for i in range(64)) + "\n")
    argv = argv_builder(tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert main(argv) == 0
    capsys.readouterr()
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert first == second


@pytest.mark.parametrize("value", ["xml", "JSONL"])
def test_config_value_outside_choices_is_usage_error(tmp_path, capsys, value):
    # argparse checks choices on flags only; a config value becomes a default
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"format = {value}\nseeds = 1\nlength = 64\n")
    code, out, err = run_cli(["--config", str(cfg), "bench-table"], capsys)
    assert code == 2 and out == ""
    assert f"unknown format {value!r}" in err and "['csv', 'json']" in err


def test_non_numeric_int_via_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"heads = two\ncache_dir = {tmp_path}\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "attn-demo"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "--heads" in captured.err and "'two'" in captured.err
    assert captured.out == ""


_WITHOUT_SCIPY = """
import sys
import hippomem.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
sys.modules["scipy"] = None          # any later scipy import fails
d = sys.argv[1]
with open(d + "/sig.txt", "w") as fh:
    fh.write("0.5\\n1.0\\n0.25\\n")
with open(d + "/long.txt", "w") as fh:
    fh.write("".join(f"{i % 7 - 3}\\n" for i in range(300)))
for argv in (
    ["build-banks", "--order", "4", "--block-length", "4", "--max-blocks", "2",
     "--scheme", "bilinear", "--cache-dir", d],
    ["compress", d + "/sig.txt", "--order", "4", "--scheme", "backward"],
    ["compress", d + "/long.txt", "--order", "32", "--scheme", "bilinear"],
    ["bench-table", "--seeds", "1", "--length", "64"],
    ["attn-demo", "--blocks", "2", "--cache-dir", d],
):
    assert hippomem.cli.main(argv) == 0, argv
"""


def _run_child(script, tmp_path):
    """script in a fresh interpreter that imports this checkout's hippomem."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_runs_without_scipy(tmp_path):
    _run_child(_WITHOUT_SCIPY, tmp_path)


_OPENSSL_FOR_ATTN_DEMO_ONLY = """
import sys
import hippomem.cli
assert "_hashlib" not in sys.modules
d = sys.argv[1]
with open(d + "/sig.txt", "w") as fh:
    fh.write("0.5\\n1.0\\n0.25\\n")
for argv in (
    ["compress", d + "/sig.txt", "--order", "4"],
    ["bench-table", "--seeds", "1", "--length", "64"],
    ["bench-table", "--seeds", "1", "--length", "64", "--format", "json"],
    ["build-banks", "--order", "4", "--block-length", "4", "--max-blocks", "2",
     "--cache-dir", d],
):
    assert hippomem.cli.main(argv) == 0, argv
    assert "_hashlib" not in sys.modules, argv
assert hippomem.cli.main(["attn-demo", "--blocks", "2", "--cache-dir", d]) == 0
"""


def test_only_attn_demo_loads_openssl(tmp_path):
    # OpenSSL's libcrypto costs every child that loads it ~3.5 MB resident;
    # only attn-demo's state checksums use it
    out = _run_child(_OPENSSL_FOR_ATTN_DEMO_ONLY, tmp_path)
    checksums = [line for line in out.splitlines() if line.startswith("state checksum (")]
    assert len(checksums) == 2, out
    assert all(len(line.split()[-1]) == 64 for line in checksums), checksums
