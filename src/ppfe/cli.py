"""Command-line front end: scenario loading, experiment execution, analysis
reports and the files each command writes.

Exit codes: 0 success, 1 runtime failure, 2 usage/configuration error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, codec
from .harness import (compute_bound, fmt17, run_monte_carlo, scenario_from_dict, secrecy_report,
                      write_csv, write_events_csv, write_json, write_mse_csv)

USAGE_ERROR = 2
RUNTIME_ERROR = 1


class UsageError(Exception):
    pass


def _seed(args) -> int:
    """--seed, else $PPFE_SEED, else 0; only the commands that take --seed read it."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("PPFE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"PPFE_SEED must be an integer, got {raw!r}") from None


# Flags beside --preset/--scenario/--out. Each command accepts only those it
# lists in build_parser; every command carries all their defaults, which is
# what `_resolve_scenario` reads for a flag the command does not take.
_FLAGS = {
    "--seed": dict(type=int, default=None, help="master seed (default: $PPFE_SEED or 0)"),
    "--horizon": dict(type=int, default=None, help="override the horizon"),
    "--trials": dict(type=int, default=None, help="override the trial count"),
    "--workers": dict(type=int, default=1, help="worker processes for trials"),
    "--tol": dict(type=float, default=1e-10, help="bound convergence tolerance"),
}


def _resolve_scenario(args, bound: bool = False, seeded: bool = False):
    """Scenario from --preset/--scenario plus flag overrides; config faults are usage errors.

    The preset name or the parsed file becomes one configuration dict, the
    flags that are set go on top, and `scenario_from_dict` builds it. With
    `bound`, the scenario's bound parameters are built here too, so a sensor
    that the bound and the filter cannot whiten fails before any trial runs.
    Only a `seeded` command (one that takes --seed) reads $PPFE_SEED.
    """
    if bool(args.preset) == bool(args.scenario):
        raise UsageError("exactly one of --preset or --scenario is required")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    if not 0.0 < args.tol < math.inf:
        raise UsageError(f"--tol must be positive and finite, got {args.tol}")
    try:
        if args.preset:
            cfg = {"preset": args.preset, "seed": _seed(args) if seeded else 0}
        else:
            with open(args.scenario) as fh:
                cfg = json.load(fh)
            if not isinstance(cfg, dict):
                raise ValueError(f"the scenario must be an object, got {cfg!r:.60}")
        flags = {key: value for key in ("seed", "horizon", "trials")
                 if (value := getattr(args, key)) is not None}
        scenario = scenario_from_dict({**cfg, **flags})
        if bound:
            scenario.bound_params
        return scenario
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad scenario configuration: {exc}") from exc


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    scenario = _resolve_scenario(args, bound=True, seeded=True)
    out = _outdir(args)
    result = run_monte_carlo(scenario, workers=args.workers, compute_bound_trace=True)
    write_mse_csv(result, out / "mse.csv")
    write_events_csv(result, out / "events.csv")
    report = secrecy_report(result, scenario)
    write_json(out / "summary.json", report)
    print(f"wrote {out / 'mse.csv'}, {out / 'events.csv'}, {out / 'summary.json'}")
    print(f"secrecy criterion (i):  {'PASS' if report['criterion_i'] else 'FAIL'}")
    print(f"secrecy criterion (ii): {'PASS' if report['criterion_ii'] else 'FAIL'}")
    return 0


def cmd_bound(args) -> int:
    scenario = _resolve_scenario(args, bound=True)
    out = _outdir(args)
    # the verdict needs room to settle past the scenario horizon
    budget = max(scenario.horizon - 1, 10_000)
    seq, _trace = compute_bound(scenario, tol=args.tol, max_steps=budget)
    write_csv(out / "bound.csv", ["k", "trace_bound"], enumerate(map(fmt17, seq.traces), 1))
    summary = {
        "verdict": seq.verdict,
        "steps": len(seq.iterates),
        "final_trace": float(seq.traces[-1]),
        "degenerate_steps": seq.degenerate_steps,
    }
    write_json(out / "bound_summary.json", summary)
    print(f"bound verdict: {seq.verdict} after {summary['steps']} iterates, "
          f"final trace {fmt17(summary['final_trace'])}")
    return 0


def cmd_conditions(args) -> int:
    scenario = _resolve_scenario(args)
    out = _outdir(args)
    cap = analysis.capacity_condition(scenario.model.A, scenario.gamma_bar)
    pbh = analysis.pbh_unit_circle(scenario.model.A, scenario.model.qeff)
    write_json(out / "conditions.json", {"capacity": cap, "pbh": pbh})
    print(f"total capacity {cap['total_capacity']:.4f} vs entropy {cap['entropy']:.4f} "
          f"(Mahler measure {cap['mahler_measure']:.4f}): "
          f"{'satisfied' if cap['satisfied'] else 'NOT satisfied'}")
    print(f"unit-circle PBH check: {'pass' if pbh['passed'] else 'FAIL'} "
          f"({len(pbh['unit_circle_eigenvalues'])} unit-circle eigenvalues)")
    print(f"wrote {out / 'conditions.json'}")
    return 0


def cmd_quantizer_test(args) -> int:
    """Statistical suite for the probabilistic quantizer (mean, variance, lattice)."""
    seed = _seed(args)
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    delta = 0.01
    draws = 10 ** 6
    checks = []
    for label, z in (("on-lattice", 0.02), ("mid-cell", 0.025), ("q=0.7 cell", -0.013)):
        out = codec.quantize(np.full(draws, z), delta, rng)
        q = z / delta - math.floor(z / delta)
        mean_tol = 3.0 * (delta / 2.0) / math.sqrt(draws) + 1e-15
        var_limit = q * (1 - q) * delta ** 2 * 1.05 + 1e-15
        checks.append((f"mean  {label}", abs(out.mean() - z) < mean_tol,
                       f"|mean-z|={abs(out.mean() - z):.3e} tol={mean_tol:.3e}"))
        checks.append((f"var   {label}", out.var() <= var_limit,
                       f"var={out.var():.3e} limit={var_limit:.3e}"))
        on_lattice = np.abs(out / delta - np.rint(out / delta)) < 1e-9
        checks.append((f"lattice {label}", bool(on_lattice.all()), "all points on lattice"))
    ok = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        ok &= passed
    return 0 if ok else RUNTIME_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppfe",
        description="Privacy-preserving fusion estimation: simulation and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, doc, flags in (
        ("simulate", cmd_simulate, "run a Monte Carlo experiment and write mse/events/summary",
         ("--seed", "--horizon", "--trials", "--workers")),
        ("bound", cmd_bound, "iterate the covariance bound and report its verdict",
         ("--horizon", "--tol")),
        ("conditions", cmd_conditions, "capacity/entropy and unit-circle PBH reports", ()),
        ("quantizer-test", cmd_quantizer_test, "run the quantizer statistical suite", ("--seed",)),
    ):
        p = sub.add_parser(name, help=doc)
        p.set_defaults(func=func, **{f[2:]: spec["default"] for f, spec in _FLAGS.items()})
        if name != "quantizer-test":
            p.add_argument("--preset", help="named scenario preset (e.g. three-tank-groupA1)")
            p.add_argument("--scenario", help="path to a scenario configuration file (JSON)")
            p.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError, OSError, json.JSONDecodeError, codec.CodecOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
