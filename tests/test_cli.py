import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "ppfe.cli", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def scalar_scenario_file(tmp_path_factory):
    cfg = {
        "model": {
            "A": [[2.0]], "Q": [[1.0]], "x0_mean": [0.0], "P0": [[1.0]],
            "sensors": [{"C": [[1.0]], "R": [[1.0]]}],
        },
        "channel": {"gamma": [0.5], "gamma_eve": [0.4]},
        "codec": {"a": [2.0], "delta": [0.01], "s": 1.0},
        "horizon": 50, "trials": 2, "seed": 1,
    }
    path = tmp_path_factory.mktemp("scen") / "scalar.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_writes_outputs_and_is_deterministic(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        proc = run_cli("simulate", "--preset", "three-tank-groupA1", "--seed", "7",
                       "--horizon", "25", "--trials", "3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "mse.csv").exists()
        assert (out / "events.csv").exists()
        assert (out / "summary.json").exists()
    assert (out1 / "mse.csv").read_bytes() == (out2 / "mse.csv").read_bytes()
    assert (out1 / "events.csv").read_bytes() == (out2 / "events.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_rejects_zero_trials(tmp_path):
    proc = run_cli("simulate", "--preset", "three-tank-groupA1", "--trials", "0",
                   "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "trials" in proc.stderr


def test_simulate_requires_exactly_one_source(tmp_path):
    proc = run_cli("simulate", "--out", str(tmp_path))
    assert proc.returncode == 2


def test_simulate_unknown_preset_is_usage_error(tmp_path):
    proc = run_cli("simulate", "--preset", "no-such", "--out", str(tmp_path))
    assert proc.returncode == 2


def test_bound_three_tank_converges(tmp_path):
    proc = run_cli("bound", "--preset", "three-tank-groupA1", "--horizon", "200",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "converged" in proc.stdout
    summary = json.loads((tmp_path / "bound_summary.json").read_text())
    assert summary["verdict"] == "converged"
    lines = (tmp_path / "bound.csv").read_text().splitlines()
    assert lines[0] == "k,trace_bound"
    assert float(lines[-1].split(",")[1]) < 1e3


def test_bound_scalar_unstable_diverges(tmp_path, scalar_scenario_file):
    proc = run_cli("bound", "--scenario", scalar_scenario_file, "--horizon", "3000",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "diverged" in proc.stdout


def test_bound_respects_tolerance_flag(tmp_path):
    loose = tmp_path / "loose"
    tight = tmp_path / "tight"
    for out, tol in ((loose, "1e-3"), (tight, "1e-12")):
        proc = run_cli("bound", "--preset", "three-tank-groupA1", "--horizon", "400",
                       "--tol", tol, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    n_loose = json.loads((loose / "bound_summary.json").read_text())["steps"]
    n_tight = json.loads((tight / "bound_summary.json").read_text())["steps"]
    assert n_loose < n_tight


def test_conditions_three_tank_report(tmp_path):
    proc = run_cli("conditions", "--preset", "three-tank-groupA1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "satisfied" in proc.stdout
    report = json.loads((tmp_path / "conditions.json").read_text())
    assert report["capacity"]["satisfied"] is True
    assert abs(report["capacity"]["total_capacity"] - 3.5977) < 1e-3
    assert report["capacity"]["entropy"] == 0.0
    assert report["pbh"]["passed"] is True
    # round-trips through json
    assert json.loads(json.dumps(report)) == report


def test_conditions_weak_channel_fails(tmp_path, scalar_scenario_file):
    proc = run_cli("conditions", "--scenario", scalar_scenario_file, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "conditions.json").read_text())
    # a=2 with gamma=0.5: capacity 0.3466 < ln 2
    assert report["capacity"]["satisfied"] is False


def test_quantizer_test_passes(tmp_path):
    proc = run_cli("quantizer-test", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout


def test_env_seed_default(tmp_path):
    out1 = tmp_path / "e1"
    out2 = tmp_path / "e2"
    for out in (out1, out2):
        proc = run_cli("simulate", "--preset", "three-tank-groupA1",
                       "--horizon", "10", "--trials", "2", "--out", str(out),
                       env_extra={"PPFE_SEED": "99"})
        assert proc.returncode == 0, proc.stderr
    assert (out1 / "mse.csv").read_bytes() == (out2 / "mse.csv").read_bytes()
    # a different env seed changes the result
    out3 = tmp_path / "e3"
    proc = run_cli("simulate", "--preset", "three-tank-groupA1",
                   "--horizon", "10", "--trials", "2", "--out", str(out3),
                   env_extra={"PPFE_SEED": "100"})
    assert proc.returncode == 0
    assert (out1 / "mse.csv").read_bytes() != (out3 / "mse.csv").read_bytes()


# ---------------------------------------------------------------- configuration faults

def write_scenario(tmp_path, cfg):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def scalar_config(**kw):
    cfg = {
        "model": {"A": [[0.9]], "Q": [[0.04]], "x0_mean": [0.0], "P0": [[1.0]],
                  "sensors": [{"C": [[1.0]], "R": [[0.09]]}]},
        "channel": {"gamma": [0.9], "gamma_eve": [0.8]},
        "codec": {"a": [2.0], "delta": [0.01], "s": 1.0},
        "horizon": 10, "trials": 2, "seed": 1,
    }
    cfg.update(kw)
    return cfg


def test_short_input_sequence_is_usage_error(tmp_path):
    cfg = scalar_config()
    cfg["model"].update(B=[[1.0]], u=[[0.1]] * 5)
    proc = run_cli("simulate", "--scenario", write_scenario(tmp_path, cfg),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert "input sequence u has 5 steps" in proc.stderr and "Traceback" not in proc.stderr
    # the same file passes at a horizon the inputs cover, and fails again when
    # --horizon asks for more steps than it holds
    cfg["horizon"] = 5
    path = write_scenario(tmp_path, cfg)
    assert run_cli("simulate", "--scenario", path, "--out", str(tmp_path / "ok")).returncode == 0
    proc = run_cli("simulate", "--scenario", path, "--horizon", "6", "--out", str(tmp_path / "o"))
    assert proc.returncode == 2 and "input sequence u" in proc.stderr


def test_non_finite_codec_scale_is_usage_error(tmp_path):
    cfg = scalar_config(codec={"a": [2.0], "delta": [0.01], "s": float("nan")})
    proc = run_cli("simulate", "--scenario", write_scenario(tmp_path, cfg),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert "scale s must be nonzero and finite" in proc.stderr


def test_unknown_preset_key_is_usage_error(tmp_path):
    path = write_scenario(tmp_path, {"preset": "three-tank-groupA1", "trails": 3})
    proc = run_cli("simulate", "--scenario", path, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert "'trails'" in proc.stderr
