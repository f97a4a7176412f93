"""Command-line behavior: outputs, validation, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hippomem.signal_bench import SignalKind, SignalSpec, generate_signal
from hippomem.cli import main


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_compress_rejects_non_finite_values(tmp_path, capsys, value):
    # float() parses these, but they would compress to a NaN MSE that reads as a pass
    sig = tmp_path / "sig.txt"
    sig.write_text(f"1.0 2.0\n0.5 {value}\n0.25 1.0\n")
    code, out, err = run_cli(["compress", str(sig)], capsys)
    assert code == 2 and out == ""
    assert f"{sig}:2:" in err and "not finite" in err


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


def test_runs_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
