"""Run one `ppfe` CLI command with wrappers on the layer entry points.

    python3 perfbench/launch.py trace SPANS.json -- <ppfe cli args>
    python3 perfbench/launch.py setup -- <ppfe cli args>

`trace` records one span (name, start, end, parent, trial, units) per call
into a layer, keeps them in memory and writes them to SPANS.json when the
command ends. `setup` exits the process at the first call into a layer, so
its wall time from launch is the command's set-up time.

The wrappers sit on the names the calling module binds (`ppfe.harness.encode`,
not `ppfe.codec.encode`), so no file of the package changes. An entry point
that is not found is listed under "missing" and the command still runs.
Spans are recorded only in the launching process; pool workers run the
unwrapped functions.
"""
from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, attribute, span name); the first call into any span name outside
# "cli." marks the end of set-up.
ENTRY_POINTS = (
    ("ppfe.cli", "_resolve_scenario", "cli.resolve"),
    ("ppfe.cli", "cmd_simulate", "cli.command"),
    ("ppfe.cli", "cmd_bound", "cli.command"),
    ("ppfe.cli", "run_monte_carlo", "harness.monte_carlo"),
    ("ppfe.cli", "compute_bound", "analysis.bound"),
    ("ppfe.harness", "compute_bound", "analysis.bound"),
    ("ppfe.harness", "run_trial", "harness.trial"),
    ("ppfe.harness", "simulate_plant", "model.plant"),
    ("ppfe.harness", "sample_outcomes", "channel.outcomes"),
    ("ppfe.harness", "encode", "codec.encode"),
    ("ppfe.harness", "decode", "codec.decode"),
    ("ppfe.harness", "ack", "codec.ack"),
    ("ppfe.harness", "eavesdrop_decode", "codec.eve_decode"),
    ("ppfe.harness", "run_filter", "estimator.filter"),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial = -1
        self.filter_calls = 0
        self.counters = {"analysis.degenerate_steps": 0}
        self.missing: list[str] = []

    def install(self, modules: dict) -> None:
        for mod_name, attr, name in ENTRY_POINTS:
            fn = getattr(modules[mod_name], attr, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(modules[mod_name], attr, self.wrap(fn, name))

    def wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            if tracer.setup_only and not name.startswith("cli."):
                os._exit(0)
            label = name
            if name == "harness.trial":
                tracer.trial = args[1] if len(args) > 1 else kwargs.get("trial", -1)
                tracer.filter_calls = 0
            elif name == "estimator.filter":
                # run_trial filters the legitimate stream first, the eavesdropper's second
                label = "estimator.legit" if tracer.filter_calls == 0 else "estimator.eve"
                tracer.filter_calls += 1
            span = [label, 0, 0, tracer.stack[-1] if tracer.stack else -1, tracer.trial, 1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer.stack.pop()
                if name == "harness.trial":
                    tracer.trial = -1
            span[5] = tracer.units(label, args, kwargs, result)
            return result

        return wrapper

    def units(self, label: str, args, kwargs, result) -> int:
        """Work units of one call: filter steps, bound iterates, else 1."""
        try:
            if label.startswith("estimator."):
                outcomes = args[3] if len(args) > 3 else kwargs["outcomes"]
                return int(outcomes.shape[1])
            if label == "analysis.bound":
                seq = result[0]
                self.counters["analysis.degenerate_steps"] += int(seq.degenerate_steps)
                return len(seq.iterates)
        except (AttributeError, IndexError, KeyError, TypeError):
            return 0
        return 1


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in ("trace", "setup") or "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    mode = argv[0]
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, str(SRC))
    import ppfe.cli
    import ppfe.harness

    if Path(ppfe.__file__).resolve().parent != SRC / "ppfe":
        print(f"ppfe imported from {ppfe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer(setup_only=mode == "setup")
    tracer.install({"ppfe.cli": ppfe.cli, "ppfe.harness": ppfe.harness})
    rc = ppfe.cli.main(cli_args)
    if mode == "setup":
        print("command finished without calling into a layer", file=sys.stderr)
        return 3
    with open(argv[1], "w") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters,
                   "missing": tracer.missing}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
