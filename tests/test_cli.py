import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ppfe.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

# a warning inside `main` fails the test, as a warning line on a process's
# stderr fails the one-line stderr checks
pytestmark = pytest.mark.filterwarnings("error")


def run_cli(*args, env_extra=None):
    """`ppfe *args` run in this process, with `env_extra` set in the environment."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env_extra or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(args))
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    return subprocess.CompletedProcess(["ppfe", *args], rc, out.getvalue(), err.getvalue())


def run_module(module, *args):
    """`python -m module *args` in a fresh interpreter, for what the process decides."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", module, *args],
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
    # one run through `python -m ppfe` in a fresh interpreter, one in this
    # process after every earlier test: no state carries over between runs
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for run, out in ((functools.partial(run_module, "ppfe"), out1), (run_cli, out2)):
        proc = run("simulate", "--preset", "three-tank-groupA1", "--seed", "7",
                   "--horizon", "25", "--trials", "3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "mse.csv").exists()
        assert (out / "events.csv").exists()
        assert (out / "summary.json").exists()
    assert (out1 / "mse.csv").read_bytes() == (out2 / "mse.csv").read_bytes()
    assert (out1 / "events.csv").read_bytes() == (out2 / "events.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_summary_reports_bound_diagnostics(tmp_path):
    # the A1 bound falls back to the prediction-only recursion on most iterates
    proc = run_cli("simulate", "--preset", "three-tank-groupA1", "--seed", "7",
                   "--trials", "20", "--horizon", "200", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["bound_degenerate_steps"] == 171
    assert summary["bound_verdict"] == "max-steps"


def test_simulate_rejects_zero_trials(tmp_path):
    proc = run_cli("simulate", "--preset", "three-tank-groupA1", "--trials", "0",
                   "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "trials" in proc.stderr
    # and zero workers, in one line
    proc = run_cli("simulate", "--preset", "three-tank-groupA1", "--workers", "0",
                   "--out", str(tmp_path))
    assert proc.returncode == 2 and proc.stderr == "error: --workers must be >= 1\n", proc.stderr


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


def test_conditions_writes_unit_circle_eigenvalues_as_pairs(tmp_path):
    # a rotation without process noise fails the PBH test at both of its
    # unit-circle eigenvalues, which conditions.json writes as [real, imag] pairs
    rotation = [[0.0, -1.0], [1.0, 0.0]]
    cfg = scalar_config(model={"A": rotation, "Q": [[0.0, 0.0], [0.0, 0.0]], "x0_mean": [0.0, 0.0],
                               "P0": np.eye(2).tolist(), "sensors": [{"C": [[1.0, 0.0]], "R": [[0.09]]}]})
    proc = run_cli("conditions", "--scenario", write_scenario(tmp_path, cfg), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    pairs = [[z.real, z.imag] for z in np.linalg.eigvals(rotation)]
    text = (tmp_path / "conditions.json").read_text()
    want = dict(json.loads(text), pbh={"unit_circle_eigenvalues": pairs, "failures": pairs, "passed": False})
    assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_quantizer_test_passes():
    proc = run_cli("quantizer-test")
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize("args", [("simulate", "--preset", "three-tank-groupA1", "--tol", "1e-3"),
                                  ("conditions", "--preset", "three-tank-groupA1", "--tol", "1e-3"),
                                  ("quantizer-test", "--workers", "0"),
                                  ("conditions", "--preset", "three-tank-groupA1", "--trials", "5"),
                                  ("conditions", "--preset", "three-tank-groupA1", "--workers", "3"),
                                  ("conditions", "--preset", "three-tank-groupA1", "--horizon", "7"),
                                  ("conditions", "--preset", "three-tank-groupA1", "--seed", "9"),
                                  ("bound", "--preset", "three-tank-groupA1", "--seed", "9"),
                                  ("bound", "--preset", "three-tank-groupA1", "--workers", "2"),
                                  ("bound", "--preset", "three-tank-groupA1", "--trials", "5")])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, args):
    proc = run_cli(*args, "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize("args, env", [
    (("simulate", "--preset", "three-tank-groupA1", "--seed", "-1"), None),
    (("simulate", "--preset", "three-tank-groupA1"), {"PPFE_SEED": "-3"}),
    (("simulate", "--preset", "three-tank-groupA1"), {"PPFE_SEED": "abc"}),
    (("simulate", "--scenario", "seed-2.json"), None),
    (("quantizer-test", "--seed", "-1"), None),
    (("quantizer-test",), {"PPFE_SEED": "-3"}),
    (("quantizer-test",), {"PPFE_SEED": "abc"}),
], ids=["flag", "env", "env-text", "file", "qt-flag", "qt-env", "qt-env-text"])
def test_bad_seed_is_usage_error(tmp_path, args, env):
    # every route to a seed rejects a negative or non-integer one before any work
    write_scenario(tmp_path, scalar_config(seed=-2))
    args = [str(tmp_path / "scenario.json") if a == "seed-2.json" else a for a in args]
    out = tmp_path / "out"
    if args[0] == "simulate":
        args += ["--out", str(out)]
    proc = run_cli(*args, env_extra=env)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "seed" in lines[0].lower(), proc.stderr
    assert not out.exists()


def test_seed_flag_overrides_env_seed(tmp_path):
    # $PPFE_SEED is only the default: --seed wins, so the variable is not read
    proc = run_cli("simulate", "--preset", "three-tank-groupA1", "--seed", "5", "--horizon", "5",
                   "--trials", "1", "--out", str(tmp_path), env_extra={"PPFE_SEED": "abc"})
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("where, key", [("channel", "gama"), ("codec", "sigma"),
                                        ("sensor", "Rr"), ("model", "BB"),
                                        ("outcome_override", "wier")])
def test_unknown_nested_key_is_usage_error(tmp_path, where, key):
    cfg = scalar_config()
    if where == "outcome_override":
        cfg[where] = {"auth": [[1] * 10], "wire": [[1] * 10]}
    target = cfg["model"]["sensors"][0] if where == "sensor" else cfg[where]
    target[key] = 1.0
    proc = run_cli("simulate", "--scenario", write_scenario(tmp_path, cfg),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert f"'{key}'" in proc.stderr and len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["simulate", "bound"])
def test_singular_effective_noise_is_usage_error(tmp_path, command):
    # E is 2x1, so E R E^T is singular: the block engine runs such a sensor,
    # but the bound cannot whiten it, so the command stops before any trial
    cfg = scalar_config()
    cfg["model"].update(A=[[0.9, 0.1], [0.0, 0.8]], Q=[[0.04, 0.0], [0.0, 0.04]],
                        x0_mean=[0.0, 0.0], P0=[[1.0, 0.0], [0.0, 1.0]])
    cfg["model"]["sensors"] = [{"C": [[1.0, 0.0]], "R": [[0.09]]},
                               {"C": [[1.0, 0.0], [0.0, 1.0]], "R": [[0.5]], "E": [[1.0], [1.0]]}]
    cfg.update(channel={"gamma": [0.9, 0.9], "gamma_eve": [0.8, 0.8]},
               codec={"a": [2.0, 2.0], "delta": [0.01, 0.01], "s": 1.0})
    out = tmp_path / "out"
    proc = run_cli(command, "--scenario", write_scenario(tmp_path, cfg), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "sensor 1: effective noise E R E^T must be positive definite" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "bound"])
def test_benchmark_setup_probe_reaches_a_layer(tmp_path, command):
    # perfbench/launch.py wraps names bound on ppfe.cli and ppfe.harness and exits 0
    # at the first call into one; a refactor that unbinds them makes it exit 3
    launch = Path(SRC).parent / "perfbench" / "launch.py"
    trials = ("--trials", "1") if command == "simulate" else ()
    proc = subprocess.run([sys.executable, str(launch), "setup", "--", command, "--preset",
                           "three-tank-groupA1", *trials, "--horizon", "20",
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("form", ["preset", "full"])
@pytest.mark.parametrize("key, value", [("seed", 1.9), ("trials", 2.7), ("horizon", 10.5)])
def test_fractional_count_is_usage_error(tmp_path, form, key, value):
    # a fractional seed, trial count or horizon is a fault, not truncated
    cfg = {"preset": "three-tank-groupA1"} if form == "preset" else scalar_config()
    cfg[key] = value
    out = tmp_path / "out"
    proc = run_cli("simulate", "--scenario", write_scenario(tmp_path, cfg), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and f"{key} must be an integer, got {value}" in lines[0], proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["bound", "conditions"])
def test_seedless_commands_ignore_env_seed(tmp_path, command):
    # only the commands that take --seed read $PPFE_SEED
    outputs = []
    for name, env in (("plain", None), ("env", {"PPFE_SEED": "abc"})):
        out = tmp_path / name
        proc = run_cli(command, "--preset", "three-tank-groupA1", "--out", str(out),
                       env_extra=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] and outputs[1] == outputs[0]


@pytest.mark.parametrize("form", ["preset", "full"])
@pytest.mark.parametrize("key, value", [("track_eavesdropper", "false"),
                                        ("transparent_quantizer", "no"),
                                        ("track_eavesdropper", 0)])
def test_non_boolean_switch_is_usage_error(tmp_path, form, key, value):
    # a switch takes a JSON boolean; "false" or "no" must not turn it on
    cfg = {"preset": "three-tank-groupA1"} if form == "preset" else scalar_config()
    flags = ("--trials", "1", "--horizon", "5")
    cfg[key] = False
    ok = run_cli("simulate", "--scenario", write_scenario(tmp_path, cfg), *flags,
                 "--out", str(tmp_path / "ok"))
    assert ok.returncode == 0, ok.stderr
    cfg[key] = value
    out = tmp_path / "out"
    proc = run_cli("simulate", "--scenario", write_scenario(tmp_path, cfg), *flags,
                   "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and f"{key} must be true or false, got {value!r}" in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("form", ["preset", "full"])
def test_non_string_name_is_usage_error(tmp_path, form):
    cfg = {"preset": "three-tank-groupA1"} if form == "preset" else scalar_config()
    flags = ("--trials", "1", "--horizon", "5")
    cfg["name"] = "labelled"
    ok = run_cli("simulate", "--scenario", write_scenario(tmp_path, cfg), *flags,
                 "--out", str(tmp_path / "ok"))
    assert ok.returncode == 0, ok.stderr
    cfg["name"] = [1, 2]
    out = tmp_path / "out"
    proc = run_cli("simulate", "--scenario", write_scenario(tmp_path, cfg), *flags,
                   "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "name must be a string, got [1, 2]" in lines[0], lines
    assert not out.exists()


def config_fault(tmp_path, command, cfg) -> str:
    """The one stderr line of a command that must stop at build with code 2 and no
    output directory; an exception out of `main` fails the test."""
    out = tmp_path / "out"
    proc = run_cli(command, "--scenario", write_scenario(tmp_path, cfg), "--out", str(out))
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 2 and len(lines) == 1, lines
    assert not out.exists()
    return lines[0]


def test_config_fault_exits_2_from_a_fresh_interpreter(tmp_path):
    # `python -m ppfe.cli` turns main's code into the exit status, and the
    # process prints the one error line: no traceback, no warning
    cfg = scalar_config(model=model_with(A=[[math.nan]]))
    out = tmp_path / "out"
    proc = run_module("ppfe.cli", "simulate", "--scenario", write_scenario(tmp_path, cfg),
                      "--out", str(out))
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 2 and len(lines) == 1, proc.stderr
    assert "A must be finite" in lines[0] and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_worker_thread():
    # this process loaded numpy before ppfe, so only a fresh interpreter shows that
    # `import ppfe` keeps OpenBLAS to the main thread; a value already set wins
    code = ("import os, ppfe; "
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")

    def threads_and_setting(**extra):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**env, **extra})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    assert threads_and_setting() == ["1", "1"]
    assert threads_and_setting(OPENBLAS_NUM_THREADS="2")[1] == "2"


@pytest.mark.parametrize("preset", [5, None])
def test_non_string_preset_is_usage_error(tmp_path, preset):
    line = config_fault(tmp_path, "simulate", {"preset": preset})
    assert f"unknown scenario preset {preset!r}" in line


@pytest.mark.parametrize("command", ["simulate", "conditions"])
@pytest.mark.parametrize("form", ["preset", "full"])
@pytest.mark.parametrize("key", ["gamma", "a", "delta"])
def test_two_dimensional_channel_array_is_usage_error(tmp_path, command, form, key):
    # one row of M entries has M entries but is not one entry per channel
    label = "gamma_bar" if key == "gamma" else key
    if form == "preset":
        cfg, m = {"preset": "three-tank-groupA1", label: [[0.9, 0.9, 0.9]]}, 3
    else:
        cfg, m = scalar_config(), 1
        cfg["channel" if key == "gamma" else "codec"][key] = [[0.5]]
    line = config_fault(tmp_path, command, cfg)
    assert f"{label} must have one entry per channel, shape ({m},)" in line


# a one-state model that sets every matrix and vector of the model format
ONE_STATE = {"A": [[0.9]], "B": [[1.0]], "D": [[1.0]], "Q": [[0.04]], "P0": [[1.0]],
             "x0_mean": [0.0], "u": [0.1], "C": [[1.0]], "R": [[0.09]], "E": [[1.0]]}


@pytest.mark.parametrize("command", ["simulate", "bound", "conditions"])
@pytest.mark.parametrize("key, value", [*((k, math.nan) for k in ONE_STATE), ("P0", math.inf)])
def test_non_finite_model_entry_is_usage_error(tmp_path, command, key, value):
    entries = dict(ONE_STATE, **{key: np.full(np.shape(ONE_STATE[key]), value).tolist()})
    model = {k: v for k, v in entries.items() if k not in ("C", "R", "E")}
    model["sensors"] = [{k: entries[k] for k in ("C", "R", "E")}]
    line = config_fault(tmp_path, command, scalar_config(model=model))
    assert f"{key} must be finite" in line


# the fault of a scenario whose first prediction covariance A P0 A^T + D Q D^T overflows
FIRST_PREDICTION = r"\bfirst prediction covariance A P0 A\^T \+ D Q D\^T is not finite$"
# and of one whose filter's covariance prediction map overflows
PREDICTION_MAP = r"\bcovariance prediction map kron\(A, A\) is not finite$"


def model_with(**entries):
    """scalar_config's model with some entries replaced."""
    return dict(scalar_config()["model"], **entries)


def must(key):
    """A fault message that says what `key` must be."""
    return rf"\b{key} must\b"


def missing(key):
    """A fault message that names the required `key` a full scenario lacks."""
    return rf"a full scenario is missing required key '{key}'$"


@pytest.mark.parametrize("want, cfg", [
    (must("s"), {"preset": "three-tank-groupA1", "s": None}),
    (must("s"), scalar_config(codec={"a": [2.0], "delta": [0.01], "s": None})),
    (must("a"), {"preset": "three-tank-groupA1", "a": ["x", 1, 2]}),
    (must("gamma_bar"), {"preset": "three-tank-groupA1", "gamma_bar": [0.9, "x", 0.9]}),
    (must("channel"), scalar_config(channel=5)),
    (must("codec"), scalar_config(codec=[2.0])),
    (must("outcome_override"), scalar_config(outcome_override=5)),
    (must("sensor 0"), scalar_config(model=model_with(sensors=[5]))),
    (must("sensors"), scalar_config(model=model_with(sensors=5))),
    (must("sensors"), scalar_config(model=model_with(sensors={"C": [[1.0]], "R": [[0.09]]}))),
    (must("model"), scalar_config(model=5)),
    (must("A"), scalar_config(model=model_with(A=[["x"]]))),
    (must("x0_mean"), scalar_config(model=model_with(x0_mean=[[0.0], 1.0]))),
    (must("scenario"), [1, 2]),
    (must("s"), {"preset": "three-tank-groupA1", "s": "1"}),
    (must("a"), {"preset": "three-tank-groupA1", "a": ["0.5", "0.5", "5"]}),
    (must("s"), scalar_config(codec={"a": [2.0], "delta": [0.01], "s": "1"})),
    (must("gamma_bar"), scalar_config(channel={"gamma": ["0.9"], "gamma_eve": [0.8]})),
    *((missing(key), {k: v for k, v in scalar_config().items() if k != key})
      for key in ("channel", "codec", "horizon")),
    (missing("gamma_eve"), scalar_config(channel={"gamma": [0.9]})),
    (missing("s"), scalar_config(codec={"a": [2.0], "delta": [0.01]})),
    (must("gamma_bar"), {"preset": "three-tank-groupA1", "gamma_bar": [True, 0.9, 0.9]}),
    (must("s"), {"preset": "three-tank-groupA1", "s": True}),
    (r"\ba must hold numbers, got None$", {"preset": "three-tank-groupA1", "a": [None, 0.5, 5]}),
    (r"\bs must be a number, got False$",
     scalar_config(codec={"a": [2.0], "delta": [0.01], "s": False})),
    (must("gamma_bar_eve"), scalar_config(channel={"gamma": [0.9], "gamma_eve": [True]})),
    (must("sensors"), scalar_config(model=model_with(sensors=[]),
                                    channel={"gamma": [], "gamma_eve": []},
                                    codec={"a": [], "delta": [], "s": 1.0})),
    (r"s\^2 delta\^2 / 4 overflows with delta = 1e\+200 and s = 1\.0$",
     {"preset": "three-tank-groupA1", "delta": [0.01, 0.01, 1e200], "trials": 2, "horizon": 20}),
    (r"s\^2 delta\^2 / 4 overflows with delta = 0\.01 and s = 1e\+200$",
     scalar_config(codec={"a": [2.0], "delta": [0.01], "s": 1e200})),
    (FIRST_PREDICTION, scalar_config(model=model_with(A=[[1e155]]))),
    (r"s\^2 delta\^2 / 4 underflows to 0 with delta = 1e-200 and s = 1\.0$",
     {"preset": "three-tank-groupA1", "delta": [1e-200, 0.01, 0.01], "trials": 2, "horizon": 20}),
    (r"s\^2 delta\^2 / 4 underflows to 0 with delta = 0\.01 and s = 1e-200$",
     scalar_config(codec={"a": [2.0], "delta": [0.01], "s": 1e-200})),
    # V_1 is about 1e10, but kron(A, A) overflows
    (PREDICTION_MAP, scalar_config(model=model_with(A=[[1e155]], P0=[[1e-300]]))),
    (r"\bA must be square$", scalar_config(model=model_with(A=[[0.9, 0.1]]))),
    (r"\bA must be a 2-d matrix, got shape \(1,\)$", scalar_config(model=model_with(A=[0.9]))),
    (r"\bx0_mean must be a 1-d vector, got shape \(1, 1\)$",
     scalar_config(model=model_with(x0_mean=[[0.0]]))),
    (r"\bD must have d_x rows$", scalar_config(model=model_with(D=[[1.0], [1.0]]))),
    (r"\bQ must be 2x2 to match D, got \(1, 1\)$",
     scalar_config(model=model_with(D=[[1.0, 0.0]]))),
    (r"\bB must have d_x rows$", scalar_config(model=model_with(B=[[1.0], [1.0]]))),
    (r"\bu must have trailing dimension 1, got shape \(2,\)$",
     scalar_config(model=model_with(B=[[1.0]], u=[0.1, 0.2]))),
    (r"\bx0_mean must have length d_x$", scalar_config(model=model_with(x0_mean=[0.0, 0.0]))),
    (r"\bP0 must be d_x x d_x$", scalar_config(model=model_with(P0=[[1.0, 0.0], [0.0, 1.0]]))),
    (r"\bE must have d_y rows$",
     scalar_config(model=model_with(sensors=[{"C": [[1.0]], "R": [[0.09]], "E": [[1.0], [1.0]]}]))),
    (r"\bR must be 1x1 to match E, got \(2, 2\)$",
     scalar_config(model=model_with(sensors=[{"C": [[1.0]], "R": [[0.09, 0.0], [0.0, 0.09]]}]))),
    # a^gap overflows at every gap: a trial would fail at its first grown reference
    (r"\bgrowth base a must lie in \(0, e\^690\], got 1e\+300$",
     {"preset": "three-tank-groupA1", "a": [1e300, 1e300, 1e300], "trials": 2, "horizon": 50}),
    (r"\bgrowth base a must lie in \(0, e\^690\], got 1e\+300$",
     scalar_config(codec={"a": [1e300], "delta": [0.01], "s": 1.0})),
], ids=["preset-s-null", "full-s-null", "a-string", "gamma-string", "channel-int",
        "codec-list", "override-int", "sensor-int", "sensors-int", "sensors-object",
        "model-int", "matrix-string", "vector-ragged", "top-level-list",
        "preset-s-string", "preset-a-strings", "full-s-string", "full-gamma-string",
        "no-channel", "no-codec", "no-horizon", "no-gamma-eve", "no-s",
        "preset-gamma-bool", "preset-s-bool", "preset-a-null", "full-s-bool",
        "full-gamma-eve-bool", "no-sensors", "preset-decoding-noise-overflow",
        "full-decoding-noise-overflow", "first-prediction-overflow",
        "preset-decoding-noise-underflow", "full-decoding-noise-underflow",
        "prediction-map-overflow", "A-not-square", "A-one-dimensional",
        "x0-two-dimensional", "D-rows", "Q-against-D", "B-rows", "u-trailing-dimension",
        "x0-length", "P0-shape", "E-rows", "R-against-E", "preset-growth-overflow",
        "full-growth-overflow"])
def test_config_fault_names_its_key(tmp_path, want, cfg):
    # every command builds its scenario the same way, so each must stop there,
    # except that `conditions` forms neither V_1 nor kron(A, A), and runs on an A
    # that overflows either
    for command in ("simulate", "bound", "conditions"):
        if command == "conditions" and want in (FIRST_PREDICTION, PREDICTION_MAP):
            proc = run_cli(command, "--scenario", write_scenario(tmp_path, cfg),
                           "--out", str(tmp_path / "out"))
            assert proc.returncode == 0 and not proc.stderr, proc.stderr
            continue
        line = config_fault(tmp_path, command, cfg)
        assert re.search(want, line), (command, line)


@pytest.mark.parametrize("delta, transparent, step", [(0.01, False, 32), (1e-10, False, 31),
                                                      (0.01, True, 32)],
                         ids=["residual-overflow", "rounding-overflow", "transparent"])
def test_non_finite_packet_fails_the_run_in_one_line(tmp_path, delta, transparent, step):
    # trial 1's reference, about 1e20 since step 3, grows by a = 1e10 a step, so
    # at step 32 a^29 y_ref overflows the encoder's residual (y - a^gap y_ref) / s
    # before the growth check's gap of 30, with or without the quantizer; with a
    # step of 1e-10, the finite residual of step 31 overflows in the rounding's
    # z / delta. Either is a run-time failure that names the (seed, trial) pair,
    # with no warning line
    cfg = {"model": {"A": [[1.0]], "Q": [[0.01]], "x0_mean": [1e20], "P0": [[1.0]],
                     "sensors": [{"C": [[1.0]], "R": [[0.01]]}]},
           "channel": {"gamma": [0.05], "gamma_eve": [0.5]},
           "codec": {"a": [1e10], "delta": [delta], "s": 1.0}, "horizon": 200, "trials": 4,
           "transparent_quantizer": transparent}
    proc = run_cli("simulate", "--scenario", write_scenario(tmp_path, cfg),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [
        f"error: trial 1 (seed 0): encoded packet is not finite at step {step}"], proc.stderr


@pytest.mark.parametrize("override", [
    {"auth": [[1] * 10], "wire": [[1] * 9 + [2]]},
    {"auth": [[1] * 9], "wire": [[1] * 9]},
    {"auth": [[1] * 10], "wire": [[1] * 9]},
    {"auth": [[1] * 10, [1] * 9], "wire": [[1] * 10, [1] * 10]},
    {"auth": [[1] * 10]},
], ids=["entry-2", "short-horizon", "ragged-links", "ragged-rows", "one-link"])
def test_bad_outcome_override_is_usage_error(tmp_path, override):
    line = config_fault(tmp_path, "simulate", scalar_config(outcome_override=override))
    assert "outcome_override" in line


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_bound_tolerance_must_be_positive_and_finite(tmp_path, tol):
    # an infinite tolerance "converges" after two iterates, a NaN or non-positive
    # one never: either way the verdict would say nothing
    out = tmp_path / "out"
    proc = run_cli("bound", "--preset", "three-tank-groupD3", "--tol", tol, "--out", str(out))
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 2 and len(lines) == 1 and "--tol must be positive and finite" in lines[0], lines
    assert not out.exists()
