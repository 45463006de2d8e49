"""ppfe benchmark: Monte Carlo throughput and bound time-to-verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Every timed unit is a whole `ppfe` CLI command in a fresh interpreter, timed
from launch to exit with its outputs written. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer metrics,
taken from span files that perfbench/launch.py writes around the layer entry
points. Every command's outputs are checked against the reference outputs
under perfbench/refs; `--record` rewrites those references from the current
program. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md for the
workloads and what each layer metric should move.
"""
from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

from launch import ENTRY_POINTS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs"
LAUNCH = str(BENCH / "launch.py")

HORIZON = 500           # the presets' horizon; every Monte Carlo trial runs all of it
POOL = (1, 2, 3, 4)  # ppfe master seeds with stored reference outputs
BOUND_PRESETS = ("three-tank-groupA1", "three-tank-groupD1",
                 "three-tank-groupD2", "three-tank-groupD3")
SUMMARY_KEYS = ("criterion_i", "criterion_ii", "criterion_ii_mode")
RTOL = 1e-9             # relative tolerance on mse.csv values and the bound's final trace
SETUP_PROBES = 16       # set-up probes per untraced run, taken in groups between repeats
PROBE_GROUP = 4
MIN_REPEATS = 3         # timed repeats per untraced run, whatever --seconds says
TAIL_TRIALS = 100       # pooled traced trials, so that >= 10 lie beyond the 90th percentile
COMMAND_TIMEOUT = 45.0  # one command; commands take about 10 s
RUN_CAP = 100.0         # no new repeat starts this many seconds after launch
HARD_LIMIT = 160.0      # every command is killed this many seconds after launch

A1 = ("--preset", "three-tank-groupA1")
NOGROWTH = ("--scenario", str(BENCH / "scenarios" / "nogrowth.json"))
# The trial counts make a command's one-off costs (interpreter start, import,
# bound, aggregation, output) about 5% of its time; a no-growth trial costs
# 1.6 A1 trials. Timed commands run 1 worker; mc-a1 also runs `pool_workers`
# for the pool layer's per-layer metric and the worker-count invariance
# check (C12).
WORKLOADS = {
    "mc-a1": {"scenario": A1, "trials": 64, "pool_workers": 2},
    "mc-nogrowth": {"scenario": NOGROWTH, "trials": 48},
    "bound-sweep": {"presets": BOUND_PRESETS},
}

# per-layer metrics that are counts: they must repeat exactly at one seed
COUNTS = ("codec.packets", "codec.decodes", "codec.eve_decodes", "estimator.legit_steps",
          "estimator.eve_steps", "estimator.eve_active_share", "analysis.bound_iterates",
          "analysis.degenerate_steps", "harness.output_bytes", "harness.critical_events",
          "harness.diverged_trials")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PPFE_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], timeout: float = COMMAND_TIMEOUT) -> tuple[float, float, int]:
    """Wall seconds from launch to exit, peak RSS in MB (children included), exit code."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            start_new_session=True)
    watchdog = threading.Timer(timeout, _kill_group, (proc.pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


# ---------------------------------------------------------------- output checks

def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if x == y or (math.isnan(x) and math.isnan(y)):
        return True
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    return abs(x - y) <= RTOL * max(abs(x), abs(y))


def compare_mse(text: str, ref: str) -> list[str]:
    rows, ref_rows = text.splitlines(), ref.splitlines()
    if rows[:1] != ref_rows[:1] or len(rows) != len(ref_rows):
        return ["mse.csv header or row count differs from the reference"]
    for line, ref_line in zip(rows[1:], ref_rows[1:]):
        cells, ref_cells = line.split(","), ref_line.split(",")
        if len(cells) != len(ref_cells) or not all(map(_close, cells, ref_cells)):
            return [f"mse.csv row differs from the reference: {line!r} vs {ref_line!r}"]
    return []


def check_mc(out: Path, ref: dict) -> list[str]:
    try:
        events = (out / "events.csv").read_text()
        mse = (out / "mse.csv").read_text()
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = [] if events == ref["events_csv"] else ["events.csv differs from the reference"]
    problems += compare_mse(mse, ref["mse_csv"])
    problems += [f"summary.json {key} = {summary.get(key)!r}, reference {ref['summary'][key]!r}"
                 for key in SUMMARY_KEYS if summary.get(key) != ref["summary"][key]]
    return problems


def check_bound(out: Path, ref: dict) -> list[str]:
    try:
        got = json.loads((out / "bound_summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    same = (got.get("verdict") == ref["verdict"] and got.get("steps") == ref["steps"]
            and _close(repr(got.get("final_trace")), repr(ref["final_trace"])))
    return [] if same else [f"{out.name}: bound {got} differs from the reference {ref}"]


def load_refs(name: str, trials: int | None):
    if name == "bound-sweep":
        return json.loads((REFS / "bound-sweep.json").read_text())
    with gzip.open(REFS / f"{name}.json.gz", "rt") as fh:
        refs = json.load(fh)
    if refs["trials"] != trials:
        raise SystemExit(f"refs/{name}.json.gz holds {refs['trials']} trials, the workload runs "
                         f"{trials}: rerun with --record")
    return {int(k): v for k, v in refs["outputs"].items()}


# ---------------------------------------------------------------- commands

def simulate_cli(spec: dict, seed: int, out: Path, workers: int = 1) -> list[str]:
    return ["simulate", *spec["scenario"], "--seed", str(seed), "--trials", str(spec["trials"]),
            "--workers", str(workers), "--out", str(out)]


def bound_cli(preset: str, out: Path) -> list[str]:
    return ["bound", "--preset", preset, "--tol", "1e-10", "--out", str(out / preset)]


class Bench:
    """Runs the commands of one workload and counts attempts and failures."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.refs = load_refs(workload, self.spec.get("trials"))
        self.attempted = 0
        self.failed = 0
        self.launched = time.perf_counter()
        rng = random.Random(seed)
        self.order = rng.sample(BOUND_PRESETS, len(BOUND_PRESETS))

    def seed_of(self, j: int) -> int:
        return POOL[(self.seed + j) % len(POOL)]

    def commands(self, j: int, out: Path, workers: int = 1) -> list[list[str]]:
        if "presets" in self.spec:
            return [bound_cli(p, out) for p in self.order]
        return [simulate_cli(self.spec, self.seed_of(j), out, workers)]

    def check(self, j: int, out: Path) -> list[str]:
        if "presets" in self.spec:
            return [msg for p in self.order for msg in check_bound(out / p, self.refs[p])]
        return check_mc(out, self.refs[self.seed_of(j)])

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for msg in problems:
                print(f"FAILED: {msg}", file=sys.stderr)
        return not problems

    def repeat(self, j: int, out: Path, workers: int = 1, traced: bool = False):
        """One timed repeat: (wall s, peak RSS MB, span documents or None on failure)."""
        shutil.rmtree(out, ignore_errors=True)
        wall, rss, docs, ok = 0.0, 0.0, [], True
        for i, cli in enumerate(self.commands(j, out, workers)):
            spans = self.work / f"spans{i}.json"
            argv = ([sys.executable, LAUNCH, "trace", str(spans), "--", *cli] if traced
                    else [sys.executable, "-m", "ppfe.cli", *cli])
            w, r, rc = run_process(argv, self.timeout())
            wall += w
            rss = max(rss, r)
            if rc != 0:
                ok = False
                break
            if traced:
                docs.append(json.loads(spans.read_text()))
        good = self.record(self.check(j, out) if ok else [f"{self.name}: command exited non-zero"])
        return wall, rss, docs if good else None

    def setup_probes(self, n: int) -> list[float]:
        """Wall times of n commands that exit at their first call into a layer."""
        cli = self.commands(0, self.work / "probe")[0]
        walls = []
        for _ in range(n):
            wall, _, rc = run_process([sys.executable, LAUNCH, "setup", "--", *cli],
                                      self.timeout())
            if self.record([] if rc == 0 else ["setup probe exited non-zero"]):
                walls.append(wall)
        return walls

    def timeout(self) -> float:
        return max(1.0, min(COMMAND_TIMEOUT, HARD_LIMIT - (time.perf_counter() - self.launched)))

    def more(self, done: int, needed: int, deadline: float) -> bool:
        now = time.perf_counter()
        return now - self.launched < RUN_CAP and (done < needed or now < deadline)

    def units_per_repeat(self) -> int:
        return len(self.order) if "presets" in self.spec else self.spec["trials"]


# ---------------------------------------------------------------- end to end

def measure_end_to_end(b: Bench, seconds: float) -> dict:
    """Timed repeats until `seconds` have passed, with set-up probes and the
    pool check between them, so that all of them sample the same stretch."""
    deadline = time.perf_counter() + seconds
    b.setup_probes(1)  # warm-up: byte-compiles the package in a fresh checkout
    setups, walls, rss = [], [], []
    first = b.work / "first"
    probed = j = 0
    while b.more(len(walls), MIN_REPEATS, deadline):
        n = min(PROBE_GROUP, SETUP_PROBES - probed)
        setups += b.setup_probes(n)
        probed += n
        wall, peak, docs = b.repeat(j, first if j == 0 else b.work / "out")
        if docs is not None:
            walls.append(wall)
            rss.append(peak)
        if j == 0 and docs is not None and "pool_workers" in b.spec:
            pool_out = b.work / "pool"
            if b.repeat(0, pool_out, workers=b.spec["pool_workers"])[2] is not None:
                b.record(compare_bytes(pool_out, first))
        j += 1
    setups += b.setup_probes(SETUP_PROBES - probed)
    # the mean, not the median: see "Steadiness" in perfbench/README.md
    run_s = statistics.fmean(walls) if walls else math.nan
    print(f"# run_s samples ({len(walls)}, median {statistics.median(walls or [math.nan])!r}): "
          f"{[round(w, 4) for w in walls]}")
    print(f"# setup_s samples ({len(setups)}): {[round(w, 4) for w in setups]}")
    return {
        "run_s": run_s,
        "throughput_per_s": b.units_per_repeat() / run_s,
        "setup_s": statistics.median(setups) if setups else math.nan,
        "peak_rss_mb": max(rss) if rss else math.nan,
    }


def compare_bytes(multi: Path, single: Path) -> list[str]:
    """C12: a multi-worker run's outputs equal the 1-worker run's byte for byte."""
    for f in ("mse.csv", "events.csv", "summary.json"):
        try:
            if (multi / f).read_bytes() != (single / f).read_bytes():
                return [f"{f} differs between the pool run and the 1-worker run"]
        except OSError as exc:
            return [f"unreadable output: {exc}"]
    return []


# ---------------------------------------------------------------- per layer

def summarize(docs: list[dict]) -> dict:
    """Totals over the span files of one traced repeat."""
    busy, calls, units = defaultdict(int), defaultdict(int), defaultdict(int)
    trials, self_ns = [], []
    mc_ns = mc_children_ns = output_ns = 0
    counters = defaultdict(int)
    missing = set()
    for doc in docs:
        spans = doc["spans"]
        child = [0] * len(spans)
        last_end = [0] * len(spans)
        for name, start, end, parent, _trial, n in spans:
            busy[name] += end - start
            calls[name] += 1
            units[name] += n
            if parent >= 0:
                child[parent] += end - start
                if name in ("harness.monte_carlo", "analysis.bound"):
                    last_end[parent] = max(last_end[parent], end)
                if spans[parent][0] == "harness.monte_carlo":
                    mc_children_ns += end - start
        for i, (name, start, end, *_rest) in enumerate(spans):
            if name == "harness.trial":
                trials.append(end - start)
                self_ns.append(end - start - child[i])
            elif name == "harness.monte_carlo":
                mc_ns += end - start
            elif name == "cli.command" and last_end[i]:
                output_ns += end - last_end[i]
        for key, value in doc["counters"].items():
            counters[key] += value
        missing.update(doc["missing"])
    return {"busy": busy, "calls": calls, "units": units, "trials": trials, "self": self_ns,
            "trial_child_ns": sum(trials) - sum(self_ns), "mc_ns": mc_ns,
            "mc_children_ns": mc_children_ns, "output_ns": output_ns,
            "commands": len(docs), "counters": counters, "missing": missing}


def output_counts(b: Bench, out: Path) -> dict:
    files = [p for p in out.rglob("*") if p.is_file()]
    counts = {"harness.output_bytes": sum(p.stat().st_size for p in files),
              "harness.critical_events": 0, "harness.diverged_trials": 0}
    if "presets" not in b.spec:
        counts["harness.critical_events"] = len((out / "events.csv").read_text().splitlines()) - 1
        counts["harness.diverged_trials"] = json.loads(
            (out / "summary.json").read_text())["diverged_trials"]
    return counts


def layer_values(s: dict, trials: int) -> dict:
    """Per-layer values of one traced repeat run with one worker."""
    busy, calls, units = s["busy"], s["calls"], s["units"]

    def per(ns: float, n: int, scale: float) -> float:
        return ns * scale / n if n else 0.0

    ms, us = 1e-6, 1e-3
    eve_steps = units["estimator.eve"]
    trial_ns = sum(s["trials"])
    return {
        "model.plant_ms_per_trial": per(busy["model.plant"], trials, ms),
        "channel.outcomes_ms_per_trial": per(busy["channel.outcomes"], trials, ms),
        "codec.encode_us": per(busy["codec.encode"], calls["codec.encode"], us),
        "codec.decode_us": per(busy["codec.decode"] + busy["codec.ack"], calls["codec.decode"], us),
        "codec.eve_decode_us": per(busy["codec.eve_decode"], calls["codec.eve_decode"], us),
        "codec.packets": calls["codec.encode"],
        "codec.decodes": calls["codec.decode"],
        "codec.eve_decodes": calls["codec.eve_decode"],
        "estimator.legit_us_per_step": per(busy["estimator.legit"], units["estimator.legit"], us),
        "estimator.eve_us_per_step": per(busy["estimator.eve"], eve_steps, us),
        "estimator.legit_steps": units["estimator.legit"],
        "estimator.eve_steps": eve_steps,
        "estimator.eve_active_share": eve_steps / (trials * HORIZON) if trials else 0.0,
        "analysis.bound_us_per_iterate": per(busy["analysis.bound"], units["analysis.bound"], us),
        "analysis.bound_iterates": units["analysis.bound"],
        "analysis.degenerate_steps": s["counters"]["analysis.degenerate_steps"],
        "harness.trial_self_ms": statistics.median(s["self"]) * ms if s["self"] else 0.0,
        "harness.aggregate_ms": (s["mc_ns"] - s["mc_children_ns"]) * ms,
        "harness.output_ms": s["output_ns"] * ms,
        "cli.resolve_ms": per(busy["cli.resolve"], s["commands"], ms),
        "trace.coverage": s["trial_child_ns"] / trial_ns if trial_ns else 0.0,
    }


def measure_layers(b: Bench, seconds: float) -> dict:
    """Traced repeats at one seed, alternated with untraced ones for the overhead.

    Pool workers record no spans, so a `pool_workers` run gives only the
    parent's spans; the per-layer metrics come from the 1-worker repeats.
    """
    trials = b.spec.get("trials", 0)
    pool = b.spec.get("pool_workers")
    out, pool_out = b.work / "out", b.work / "pool"
    singles, pool_runs, untraced_walls, traced_walls, counts = [], [], [], [], []
    needed = max(2, math.ceil(TAIL_TRIALS / trials)) if trials else 2
    deadline = time.perf_counter() + seconds
    while b.more(len(singles), needed, deadline):
        wall, _, docs = b.repeat(0, out)
        if docs is not None:
            untraced_walls.append(wall)
        wall, _, docs = b.repeat(0, out, traced=True)
        if docs is None:
            continue
        traced_walls.append(wall)
        singles.append(summarize(docs))
        counts.append(output_counts(b, out))
        if pool:
            _, _, docs = b.repeat(0, pool_out, workers=pool, traced=True)
            if docs is not None and b.record(compare_bytes(pool_out, out)):
                pool_runs.append(summarize(docs))
    if not singles or not untraced_walls or (pool and not pool_runs):
        return {}

    values = [layer_values(s, trials) | counts[i] for i, s in enumerate(singles)]
    for v in values[1:]:
        diff = [k for k in COUNTS if v[k] != values[0][k]]
        b.record([f"count {k} differs between traced runs at one seed" for k in diff])
    result = {k: (values[0][k] if k in COUNTS else statistics.median(v[k] for v in values))
              for k in values[0]}
    durations = [ns * 1e-6 for s in singles for ns in s["trials"]]
    result["harness.trial_ms"] = statistics.median(durations) if durations else 0.0
    result["harness.trial_ms_p90"] = (statistics.quantiles(durations, n=10)[8]
                                      if len(durations) > 1 else 0.0)
    trial_ns = statistics.median(sum(s["trials"]) for s in singles)
    pool_ns = statistics.median(p["mc_ns"] - p["busy"]["analysis.bound"]
                                for p in pool_runs) if pool_runs else 0
    result["harness.pool_efficiency"] = trial_ns / (pool * pool_ns) if pool_ns else 0.0
    result["trace.overhead_share"] = (statistics.median(traced_walls)
                                      / statistics.median(untraced_walls) - 1.0)
    for s in singles[:1]:
        for ep in sorted(s["missing"]):
            span = next(name for mod, attr, name in ENTRY_POINTS if f"{mod}.{attr}" == ep)
            print(f"# MISSING entry point {ep}: metrics read from {span} spans report 0")
    print(f"# traced repeats: {len(traced_walls)}, untraced repeats: {len(untraced_walls)}, "
          f"pool traced repeats: {len(pool_runs)}, pooled trials: {len(durations)}")
    return result


# ---------------------------------------------------------------- reporting

def git_sha() -> str | None:
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_metadata(args, b: Bench, load: tuple) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "git_sha": git_sha(),
            "python": platform.python_version(), "numpy": numpy_version,
            "cpu_count": os.cpu_count(), "loadavg_start": list(load),
            "trials_per_command": b.spec.get("trials"),
            "ppfe_seeds": None if "presets" in b.spec else [b.seed_of(j) for j in range(len(POOL))],
            "bound_order": b.order if "presets" in b.spec else None}


def declared_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(values: dict, b: Bench, trace: int, meta: dict) -> dict:
    units = declared_units(trace)
    if set(values) - set(units):
        raise RuntimeError(f"metrics {sorted(set(values) - set(units))} are not in BENCHMARK.json")
    # a metric that no successful command measured reads 0 and makes the run incorrect
    measured = {name: values.get(name, math.nan) for name in units}
    print("# run " + json.dumps(meta))
    for name, unit in units.items():
        print(f"# {name} = {measured[name]!r} {unit}")
    print(f"# failed_share = {b.failed / max(b.attempted, 1)!r} ({b.failed}/{b.attempted})")
    ok = b.failed == 0 and all(math.isfinite(v) for v in measured.values())
    metrics = {name: {"value": measured[name] if math.isfinite(measured[name]) else 0.0,
                      "unit": unit} for name, unit in units.items()}
    return {"correct": ok, "attempted": max(b.attempted, 1), "failed": b.failed,
            "metrics": metrics}


def record_references(work: Path) -> None:
    """Rewrite perfbench/refs from 1-worker runs of the current program."""
    REFS.mkdir(exist_ok=True)
    for name in ("mc-a1", "mc-nogrowth"):
        spec, refs = WORKLOADS[name], {}
        for seed in POOL:
            out = work / f"{name}-{seed}"
            _, _, rc = run_process([sys.executable, "-m", "ppfe.cli", *simulate_cli(spec, seed, out)])
            if rc != 0:
                raise SystemExit(f"{name} seed {seed} exited {rc}")
            summary = json.loads((out / "summary.json").read_text())
            refs[seed] = {"events_csv": (out / "events.csv").read_text(),
                          "mse_csv": (out / "mse.csv").read_text(),
                          "summary": {k: summary[k] for k in SUMMARY_KEYS}}
        doc = {"trials": spec["trials"], "outputs": refs}
        with gzip.GzipFile(REFS / f"{name}.json.gz", "wb", mtime=0) as fh:
            fh.write(json.dumps(doc, indent=1, sort_keys=True).encode())
    bounds = {}
    for preset in BOUND_PRESETS:
        _, _, rc = run_process([sys.executable, "-m", "ppfe.cli", *bound_cli(preset, work)])
        if rc != 0:
            raise SystemExit(f"bound {preset} exited {rc}")
        got = json.loads((work / preset / "bound_summary.json").read_text())
        bounds[preset] = {k: got[k] for k in ("verdict", "steps", "final_trace")}
    (REFS / "bound-sweep.json").write_text(json.dumps(bounds, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference outputs from the current program")
    args = parser.parse_args()
    if not (ROOT / "src" / "ppfe" / "cli.py").is_file():
        print(f"error: no ppfe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    load = os.getloadavg()
    work = BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.record:
            record_references(work)
            return 0
        b = Bench(args.workload, args.seed, work)
        values = (measure_layers if args.trace else measure_end_to_end)(b, args.seconds)
        result = report(values, b, args.trace, run_metadata(args, b, load))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (BENCH / ".work").rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
