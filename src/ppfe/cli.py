"""Command-line front end: scenario loading, experiment execution, analysis
reports, CSV emission.

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
from .harness import (compute_bound, fmt17, load_scenario, run_monte_carlo,
                      scenario_preset, secrecy_report, write_events_csv, write_mse_csv)

USAGE_ERROR = 2
RUNTIME_ERROR = 1


class UsageError(Exception):
    pass


def _default_seed() -> int:
    return int(os.environ.get("PPFE_SEED", "0"))


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named scenario preset (e.g. three-tank-groupA1)")
    p.add_argument("--scenario", help="path to a scenario configuration file (JSON)")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: $PPFE_SEED or 0)")
    p.add_argument("--horizon", type=int, default=None, help="override the horizon")
    p.add_argument("--trials", type=int, default=None, help="override the trial count")
    p.add_argument("--workers", type=int, default=1, help="worker processes for trials")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--tol", type=float, default=1e-10, help="bound convergence tolerance")


def _resolve_scenario(args):
    """Scenario from --preset/--scenario plus flag overrides; config faults are usage errors."""
    from dataclasses import replace

    if bool(args.preset) == bool(args.scenario):
        raise UsageError("exactly one of --preset or --scenario is required")
    try:
        if args.preset:
            scenario = scenario_preset(args.preset, seed=_default_seed())
        else:
            scenario = load_scenario(args.scenario)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad scenario configuration: {exc}") from exc
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    elif args.preset and "PPFE_SEED" in os.environ:
        overrides["seed"] = _default_seed()
    if args.horizon is not None:
        if args.horizon < 1:
            raise UsageError("--horizon must be >= 1")
        overrides["horizon"] = args.horizon
    if args.trials is not None:
        if args.trials < 1:
            raise UsageError("--trials must be >= 1")
        overrides["trials"] = args.trials
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    try:
        return replace(scenario, **overrides) if overrides else scenario
    except ValueError as exc:
        raise UsageError(f"bad scenario configuration: {exc}") from exc


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    scenario = _resolve_scenario(args)
    out = _outdir(args)
    result = run_monte_carlo(scenario, workers=args.workers, compute_bound_trace=True)
    write_mse_csv(result, out / "mse.csv")
    write_events_csv(result, out / "events.csv")
    report = secrecy_report(result, scenario)
    with open(out / "summary.json", "w", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out / 'mse.csv'}, {out / 'events.csv'}, {out / 'summary.json'}")
    print(f"secrecy criterion (i):  {'PASS' if report['criterion_i'] else 'FAIL'}")
    print(f"secrecy criterion (ii): {'PASS' if report['criterion_ii'] else 'FAIL'}")
    return 0


def cmd_bound(args) -> int:
    scenario = _resolve_scenario(args)
    out = _outdir(args)
    # the verdict needs room to settle past the scenario horizon
    budget = max(scenario.horizon - 1, 10_000)
    seq, _trace = compute_bound(scenario, tol=args.tol, max_steps=budget)
    lines = ["k,trace_bound"]
    for j, v in enumerate(seq.iterates):
        lines.append(f"{j + 1},{fmt17(np.trace(v))}")
    with open(out / "bound.csv", "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    verdict = "diverged" if seq.diverged else ("converged" if seq.converged else "max-steps")
    summary = {
        "verdict": verdict,
        "steps": len(seq.iterates),
        "final_trace": float(np.trace(seq.iterates[-1])),
        "degenerate_steps": seq.degenerate_steps,
    }
    with open(out / "bound_summary.json", "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"bound verdict: {verdict} after {summary['steps']} iterates, "
          f"final trace {fmt17(summary['final_trace'])}")
    return 0


def cmd_conditions(args) -> int:
    scenario = _resolve_scenario(args)
    out = _outdir(args)
    cap = analysis.capacity_condition(scenario.model.A, scenario.gamma_bar)
    pbh = analysis.pbh_unit_circle(scenario.model.A, scenario.model.qeff)
    report = {
        "capacity": cap,
        "pbh": {
            "unit_circle_eigenvalues": [[z.real, z.imag] for z in pbh["unit_circle_eigenvalues"]],
            "failures": [[z.real, z.imag] for z in pbh["failures"]],
            "passed": pbh["passed"],
        },
    }
    with open(out / "conditions.json", "w", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"total capacity {cap['total_capacity']:.4f} vs entropy {cap['entropy']:.4f} "
          f"(Mahler measure {cap['mahler_measure']:.4f}): "
          f"{'satisfied' if cap['satisfied'] else 'NOT satisfied'}")
    print(f"unit-circle PBH check: {'pass' if pbh['passed'] else 'FAIL'} "
          f"({len(pbh['unit_circle_eigenvalues'])} unit-circle eigenvalues)")
    print(f"wrote {out / 'conditions.json'}")
    return 0


def cmd_quantizer_test(args) -> int:
    """Statistical suite for the probabilistic quantizer (mean, variance, lattice)."""
    rng = np.random.default_rng(args.seed if args.seed is not None else _default_seed())
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
    for name, func, doc in (
        ("simulate", cmd_simulate, "run a Monte Carlo experiment and write mse/events/summary"),
        ("bound", cmd_bound, "iterate the covariance bound and report its verdict"),
        ("conditions", cmd_conditions, "capacity/entropy and unit-circle PBH reports"),
        ("quantizer-test", cmd_quantizer_test, "run the quantizer statistical suite"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_scenario_args(p)
        p.set_defaults(func=func)
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
